// Integration tests for SUMMA on split communicators (apps/matmul.h,
// matmul_summa).  Its vtimes under coll tree and auto are pinned in
// tests/goldens/vtimes.json.
//
// SUMMA walks the k panels in the same fixed order on every processor,
// so unlike Cannon's rotations its product must be bit-identical
// across every SKIL_COLL mode -- the panel broadcasts may change
// algorithm, never data.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "apps/matmul.h"
#include "support/matrix.h"
#include "with_knobs.h"

namespace {

using namespace skil;
using skil::testing::with_coll_mode;

struct MCase {
  int p;
  int n;
};

class Summa : public ::testing::TestWithParam<MCase> {};

TEST_P(Summa, MatchesCannonUpToSummationOrder) {
  const auto [p, n] = GetParam();
  const auto cannon = apps::matmul_c(p, n, 31);
  const auto summa = apps::matmul_summa(p, n, 31);
  const int size = apps::matmul_round_up(n, p);
  ASSERT_EQ(summa.product.rows(), size);
  for (int i = 0; i < size; ++i)
    for (int j = 0; j < size; ++j)
      EXPECT_NEAR(summa.product(i, j), cannon.product(i, j),
                  1e-9 * (1.0 + std::fabs(cannon.product(i, j))));
}

TEST_P(Summa, MatchesSequentialOracle) {
  const auto [p, n] = GetParam();
  const int size = apps::matmul_round_up(n, p);
  const auto result = apps::matmul_summa(p, n, 31);
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

TEST_P(Summa, ProductBitIdenticalAcrossAllCollModes) {
  const auto [p, n] = GetParam();
  const auto tree = with_coll_mode(parix::CollMode::kTree, [&, p = p, n = n] {
    return apps::matmul_summa(p, n, 31);
  });
  const int size = apps::matmul_round_up(n, p);
  for (parix::CollMode mode :
       {parix::CollMode::kRing, parix::CollMode::kRd, parix::CollMode::kAuto}) {
    const auto other = with_coll_mode(mode, [&, p = p, n = n] {
      return apps::matmul_summa(p, n, 31);
    });
    for (int i = 0; i < size; ++i)
      for (int j = 0; j < size; ++j)
        EXPECT_EQ(other.product(i, j), tree.product(i, j))
            << parix::coll_mode_name(mode) << " at (" << i << "," << j << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, Summa,
                         ::testing::Values(MCase{1, 8}, MCase{4, 24},
                                           MCase{4, 30}, MCase{9, 36},
                                           MCase{16, 64}),
                         [](const ::testing::TestParamInfo<MCase>& info) {
                           std::string name = "p";
                           name += std::to_string(info.param.p);
                           name += "_n";
                           name += std::to_string(info.param.n);
                           return name;
                         });

TEST(SummaGoldens, CollAutoNeverLosesToTheTree) {
  // One grid size per panel regime: the 2x2 and 4x4 panels ride the
  // pipelined ring under auto, the 8x8 ones stay on the tree.
  struct Grid {
    int p;
    int n;
  };
  for (const Grid g : {Grid{4, 128}, Grid{16, 256}, Grid{64, 256}}) {
    const auto vtime = [&](parix::CollMode mode) {
      return with_coll_mode(mode, [&] {
        return apps::matmul_summa(g.p, g.n, 31).run.vtime_us;
      });
    };
    EXPECT_LE(vtime(parix::CollMode::kAuto), vtime(parix::CollMode::kTree))
        << "p " << g.p << " n " << g.n;
  }
}

TEST(SummaGoldens, VtimeIsDeterministicAcrossRuns) {
  const auto a = apps::matmul_summa(16, 48, 7);
  const auto b = apps::matmul_summa(16, 48, 7);
  EXPECT_EQ(a.run.vtime_us, b.run.vtime_us);
  EXPECT_EQ(a.run.total.messages_sent, b.run.total.messages_sent);
  EXPECT_EQ(a.run.total.bytes_sent, b.run.total.bytes_sent);
}

}  // namespace
