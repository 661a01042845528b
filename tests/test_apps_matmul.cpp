// Integration tests for the matrix multiplication implementations.
#include <gtest/gtest.h>

#include "apps/matmul.h"
#include "support/matrix.h"

namespace {

using namespace skil;
using apps::matmul_c;
using apps::matmul_dpfl;
using apps::matmul_round_up;
using apps::matmul_skil;

struct MCase {
  int p;
  int n;
};

class Matmul : public ::testing::TestWithParam<MCase> {};

TEST_P(Matmul, AllThreeImplementationsAgree) {
  const auto [p, n] = GetParam();
  const auto skil = matmul_skil(p, n, 31);
  const auto dpfl = matmul_dpfl(p, n, 31);
  const auto c = matmul_c(p, n, 31);
  const int size = matmul_round_up(n, p);
  ASSERT_EQ(skil.product.rows(), size);
  for (int i = 0; i < size; ++i)
    for (int j = 0; j < size; ++j) {
      EXPECT_NEAR(skil.product(i, j), c.product(i, j), 1e-9);
      EXPECT_NEAR(skil.product(i, j), dpfl.product(i, j), 1e-9);
    }
}

TEST_P(Matmul, SkilMatchesSequentialOracle) {
  const auto [p, n] = GetParam();
  const int size = matmul_round_up(n, p);
  const auto result = matmul_skil(p, n, 31);
  // Build padded operands exactly as the app does.
  support::Matrix<double> a(size, size, 0.0), b(size, size, 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = support::dense_entry(31, i, j);
      b(i, j) = support::dense_entry(31 ^ 0x5a5a5a5aULL, i, j);
    }
  const auto expected = support::seq_matmul(a, b);
  for (int i = 0; i < size; ++i)
    for (int j = 0; j < size; ++j)
      EXPECT_NEAR(result.product(i, j), expected(i, j), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Matmul,
                         ::testing::Values(MCase{1, 6}, MCase{4, 8},
                                           MCase{4, 10}, MCase{9, 12},
                                           MCase{16, 16}),
                         [](const auto& info) {
                           std::string name = "p";
                           name += std::to_string(info.param.p);
                           name += "_n";
                           name += std::to_string(info.param.n);
                           return name;
                         });

TEST(MatmulCost, SkilIsModeratelySlowerThanOptimizedC) {
  // Paper section 5.1: equally optimized C is ~20% faster than Skil.
  const int p = 4, n = 48;
  const double skil = matmul_skil(p, n, 3).run.vtime_us;
  const double c = matmul_c(p, n, 3).run.vtime_us;
  const double slowdown = skil / c;
  EXPECT_GT(slowdown, 1.0);
  EXPECT_LT(slowdown, 1.8);
}

TEST(MatmulCost, DpflIsMuchSlower) {
  const int p = 4, n = 32;
  const double skil = matmul_skil(p, n, 3).run.vtime_us;
  const double dpfl = matmul_dpfl(p, n, 3).run.vtime_us;
  EXPECT_GT(dpfl / skil, 2.0);
}

}  // namespace
