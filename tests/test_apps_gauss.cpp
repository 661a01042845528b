// Integration tests for the Gaussian elimination implementations.
#include <gtest/gtest.h>

#include "apps/gauss.h"
#include "support/matrix.h"
#include "with_knobs.h"

namespace {

using namespace skil;
using apps::gauss_c;
using apps::gauss_dpfl;
using apps::gauss_round_up;
using apps::gauss_skil;

std::vector<double> first_n(const std::vector<double>& x, int n) {
  return std::vector<double>(x.begin(), x.begin() + n);
}

TEST(RoundUp, MultiplesOfP) {
  EXPECT_EQ(gauss_round_up(64, 4), 64);
  EXPECT_EQ(gauss_round_up(65, 4), 68);
  EXPECT_EQ(gauss_round_up(1, 8), 8);
}

struct GCase {
  int p;
  int n;
};

class Gauss : public ::testing::TestWithParam<GCase> {};

TEST_P(Gauss, SkilNoPivotSolvesTheSystem) {
  const auto [p, n] = GetParam();
  const auto result = gauss_skil(p, n, 11, /*pivoting=*/false);
  const auto oracle =
      support::seq_gauss_nopivot(support::random_linear_system(n, 11));
  ASSERT_GE(static_cast<int>(result.x.size()), n);
  EXPECT_LT(support::max_abs_diff(first_n(result.x, n), oracle), 1e-8);
}

TEST_P(Gauss, SkilPivotSolvesARotatedSystem) {
  const auto [p, n] = GetParam();
  const auto result = gauss_skil(p, n, 13, /*pivoting=*/true);
  const auto oracle =
      support::seq_gauss_pivot(support::random_pivoting_system(n, 13));
  ASSERT_GE(static_cast<int>(result.x.size()), n);
  EXPECT_LT(support::max_abs_diff(first_n(result.x, n), oracle), 1e-8);
}

TEST_P(Gauss, DpflMatchesSkil) {
  const auto [p, n] = GetParam();
  const auto skil_x = gauss_skil(p, n, 17, false).x;
  const auto dpfl_x = gauss_dpfl(p, n, 17).x;
  ASSERT_EQ(skil_x.size(), dpfl_x.size());
  EXPECT_LT(support::max_abs_diff(skil_x, dpfl_x), 1e-10);
}

TEST_P(Gauss, HandWrittenCMatchesOracle) {
  const auto [p, n] = GetParam();
  const auto result = gauss_c(p, n, 19);
  const auto oracle =
      support::seq_gauss_nopivot(support::random_linear_system(n, 19));
  EXPECT_LT(support::max_abs_diff(first_n(result.x, n), oracle), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Gauss,
                         ::testing::Values(GCase{1, 8}, GCase{2, 12},
                                           GCase{4, 16}, GCase{4, 18},
                                           GCase{8, 24}, GCase{6, 17}),
                         [](const auto& info) {
                           std::string name = "p";
                           name += std::to_string(info.param.p);
                           name += "_n";
                           name += std::to_string(info.param.n);
                           return name;
                         });

TEST(GaussCost, DpflSlowerThanSkilSlowerThanC) {
  const int p = 4, n = 32;
  const double skil = gauss_skil(p, n, 5, false).run.vtime_us;
  const double dpfl = gauss_dpfl(p, n, 5).run.vtime_us;
  const double c = gauss_c(p, n, 5).run.vtime_us;
  EXPECT_GT(dpfl, skil);
  EXPECT_GT(skil, c);
}

TEST(GaussCost, PivotingRoughlyDoublesTheRuntime) {
  // Paper section 5.2: "The run-times were here about twice as long as
  // in the first version".
  const int p = 4, n = 48;
  const double nopivot = gauss_skil(p, n, 5, false).run.vtime_us;
  const double pivot = gauss_skil(p, n, 5, true).run.vtime_us;
  const double factor = pivot / nopivot;
  EXPECT_GT(factor, 1.3);
  EXPECT_LT(factor, 4.0);
}

TEST(GaussCost, CollAutoNeverLosesToTheTree) {
  // The cells whose pivot rows SKIL_COLL=auto once sent through the
  // 16-chunk ring: a per-call pick must not make the program slower
  // than the tree it replaces, fused or not.
  struct Cell {
    int p;
    int n;
  };
  using skil::testing::with_coll_mode;
  using skil::testing::with_fuse_mode;
  for (parix::FuseMode fuse : {parix::FuseMode::kOff, parix::FuseMode::kOn})
    for (const Cell cell : {Cell{16, 384}, Cell{32, 384}, Cell{64, 256}}) {
      const auto vtimes = [&](parix::CollMode mode) {
        return with_fuse_mode(fuse, [&] {
          return with_coll_mode(mode, [&] {
            return std::pair{
                gauss_skil(cell.p, cell.n, 5, false).run.vtime_us,
                gauss_c(cell.p, cell.n, 5).run.vtime_us};
          });
        });
      };
      const auto [skil_tree, c_tree] = vtimes(parix::CollMode::kTree);
      const auto [skil_auto, c_auto] = vtimes(parix::CollMode::kAuto);
      const std::string at = "p " + std::to_string(cell.p) + " n " +
                             std::to_string(cell.n) + " fuse " +
                             (fuse == parix::FuseMode::kOn ? "on" : "off");
      EXPECT_LE(skil_auto, skil_tree) << "skil " << at;
      EXPECT_LE(c_auto, c_tree) << "c " << at;
    }
}

TEST(GaussCost, VirtualTimeDeterministic) {
  EXPECT_EQ(gauss_skil(4, 20, 9, false).run.vtime_us,
            gauss_skil(4, 20, 9, false).run.vtime_us);
  EXPECT_EQ(gauss_c(4, 20, 9).run.vtime_us, gauss_c(4, 20, 9).run.vtime_us);
}

TEST(GaussSingular, DistributedPivotSearchRaisesThePapersError) {
  // "if (e.val == 0.0) error ('Matrix is singular');" -- the fold's
  // column maximum is zero on a matrix with an all-zero column, and
  // the error must propagate out of the SPMD run.
  const int n = 8;
  support::Matrix<double> ab = support::random_linear_system(n, 4);
  for (int i = 0; i < n; ++i) ab(i, 2) = 0.0;  // kill column 2
  try {
    skil::apps::gauss_skil_matrix(4, ab, /*pivoting=*/true);
    FAIL() << "expected AppError";
  } catch (const support::AppError& e) {
    EXPECT_STREQ(e.what(), "Matrix is singular");
  }
}

TEST(GaussSingular, ExplicitMatrixVariantAgreesWithSeededVariant) {
  const int n = 16, p = 4;
  const auto ab = support::random_linear_system(n, 21);
  const auto via_matrix = skil::apps::gauss_skil_matrix(p, ab, false);
  const auto oracle = support::seq_gauss_nopivot(ab);
  EXPECT_LT(support::max_abs_diff(via_matrix.x, oracle), 1e-8);
}

TEST(GaussPadding, NonDivisibleSizesArePadded) {
  // n = 10 on 4 processors pads to 12; the first 10 components still
  // solve the original system.
  const auto result = gauss_skil(4, 10, 23, false);
  EXPECT_EQ(result.x.size(), 12u);
  const auto oracle =
      support::seq_gauss_nopivot(support::random_linear_system(10, 23));
  EXPECT_LT(support::max_abs_diff(first_n(result.x, 10), oracle), 1e-8);
  // Padded identity rows solve to zero.
  EXPECT_NEAR(result.x[10], 0.0, 1e-12);
  EXPECT_NEAR(result.x[11], 0.0, 1e-12);
}

}  // namespace
