// Integration tests for the Jacobi halo-exchange stencil
// (apps/stencil_jacobi.h).  Its vtimes under coll tree and auto are
// pinned in tests/goldens/vtimes.json.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "apps/stencil_jacobi.h"
#include "with_knobs.h"

namespace {

using namespace skil;
using skil::testing::with_coll_mode;

struct SCase {
  int p;
  int cells;
  int steps;
};

class Stencil : public ::testing::TestWithParam<SCase> {};

TEST_P(Stencil, ConservesTotalHeat) {
  const auto [p, cells, steps] = GetParam();
  const auto result = apps::stencil_jacobi(p, cells, steps);
  // The three-point kernel's weights sum to 1 and the boundaries
  // reflect, so total heat is invariant up to FP rounding.  The hot
  // band is the middle third at 100 degrees.
  const int padded = apps::stencil_round_up(cells, p);
  const double expected = 100.0 * (2 * padded / 3 - padded / 3);
  EXPECT_NEAR(result.total, expected, 1e-9 * expected);
  EXPECT_GT(result.peak, 0.0);
  EXPECT_LE(result.peak, 100.0);
  ASSERT_EQ(static_cast<int>(result.temps.size()), padded);
}

TEST_P(Stencil, DiffusionOnlyFlattensTheProfile) {
  const auto [p, cells, steps] = GetParam();
  const auto one = apps::stencil_jacobi(p, cells, 1);
  const auto many = apps::stencil_jacobi(p, cells, steps);
  if (steps > 1) {
    EXPECT_LE(many.peak, one.peak);
  }
}

TEST_P(Stencil, ResultBitIdenticalAcrossAllCollModes) {
  const auto [p, cells, steps] = GetParam();
  const auto tree = with_coll_mode(parix::CollMode::kTree, [&] {
    return apps::stencil_jacobi(p, cells, steps);
  });
  for (parix::CollMode mode :
       {parix::CollMode::kRing, parix::CollMode::kRd, parix::CollMode::kAuto}) {
    const auto other = with_coll_mode(mode, [&] {
      return apps::stencil_jacobi(p, cells, steps);
    });
    EXPECT_EQ(other.temps, tree.temps) << parix::coll_mode_name(mode);
    EXPECT_EQ(other.total, tree.total) << parix::coll_mode_name(mode);
    EXPECT_EQ(other.peak, tree.peak) << parix::coll_mode_name(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Stencil,
    ::testing::Values(SCase{1, 24, 4}, SCase{3, 50, 8}, SCase{4, 128, 10},
                      SCase{8, 96, 12}, SCase{16, 256, 6}),
    [](const ::testing::TestParamInfo<SCase>& info) {
      std::string name = "p";
      name += std::to_string(info.param.p);
      name += "_c";
      name += std::to_string(info.param.cells);
      name += "_s";
      name += std::to_string(info.param.steps);
      return name;
    });

TEST(StencilGoldens, CollAutoNeverLosesToTheTree) {
  // bench_stencil's rod on its three machine sizes.  At p = 64 the
  // 16-byte folds must take the tree: its isolated call finishes
  // sooner than Bruck's, which lost 1.7 ms to it inside this program.
  for (int p : {8, 16, 64}) {
    const auto vtime = [&](parix::CollMode mode) {
      return with_coll_mode(mode, [&] {
        return apps::stencil_jacobi(p, 1024, 8).run.vtime_us;
      });
    };
    EXPECT_LE(vtime(parix::CollMode::kAuto), vtime(parix::CollMode::kTree))
        << "p " << p;
  }
}

TEST(StencilGoldens, VtimeIsDeterministicAcrossRuns) {
  const auto a = apps::stencil_jacobi(8, 128, 8);
  const auto b = apps::stencil_jacobi(8, 128, 8);
  EXPECT_EQ(a.run.vtime_us, b.run.vtime_us);
  EXPECT_EQ(a.run.total.messages_sent, b.run.total.messages_sent);
  EXPECT_EQ(a.temps, b.temps);
}

}  // namespace
