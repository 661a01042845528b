// Skeleton fusion (DESIGN.md section 13): differential
// result-bit-equality between SKIL_FUSE=off and SKIL_FUSE=on, and the
// fusion counters' accounting.
//
// The contract under test:
//   * off (the default): the fusion counters stay at zero -- fusion
//     support must be invisible when disabled.
//   * on: array *results* stay bit-identical to off on every cell.
//   * every fusible composition is accounted for: seen = fused +
//     rejected, with kShape rejections on the pivoting Gauss cell.
//
// The virtual times of both modes are pinned per run in
// tests/goldens/vtimes.json, where skil-goldens also requires every
// fuse=on entry to be no higher than its fuse=off twin, on every
// engine, carrier count, trace and prof mode (the goldens.* entries).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/gauss.h"
#include "goldens/pinned_runs.h"
#include "apps/matmul.h"
#include "apps/shortest_paths.h"
#include "parix/charge_tape.h"
#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/error.h"
#include "with_knobs.h"

namespace {

using namespace skil;
using namespace skil::parix;

using skil::goldens::kSeed;
using skil::testing::with_fuse_mode;

template <class T>
bool bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// --- mode parsing -----------------------------------------------------------

TEST(FuseMode, StrictParsingAndNames) {
  EXPECT_EQ(parse_fuse_mode("off"), FuseMode::kOff);
  EXPECT_EQ(parse_fuse_mode("on"), FuseMode::kOn);
  EXPECT_THROW(parse_fuse_mode("ON"), support::ContractError);
  EXPECT_THROW(parse_fuse_mode("yes"), support::ContractError);
  EXPECT_THROW(parse_fuse_mode(""), support::ContractError);
  EXPECT_EQ(fuse_mode_name(FuseMode::kOff), "off");
  EXPECT_EQ(fuse_mode_name(FuseMode::kOn), "on");
}

// --- counters ---------------------------------------------------------------

RunResult gauss_skil_p4_n64() {
  return apps::gauss_skil(4, 64, kSeed, /*pivoting=*/false).run;
}

TEST(FusionCounters, AllZeroUnderOff) {
  const RunResult r = with_fuse_mode(FuseMode::kOff, gauss_skil_p4_n64);
  EXPECT_EQ(r.fusion, FusionCounters{});
}

TEST(FusionCounters, OnAccountsForEveryComposition) {
  const RunResult off = with_fuse_mode(FuseMode::kOff, gauss_skil_p4_n64);
  const RunResult on = with_fuse_mode(FuseMode::kOn, gauss_skil_p4_n64);
  EXPECT_EQ(on.fusion.seen, on.fusion.fused + on.fusion.rejected());
  if (on.vtime_us < off.vtime_us) {
    EXPECT_GT(on.fusion.fused, 0u)
        << "vtime moved without a fused composition";
  }
  // The hand-written C program has no fusible composition.
  const RunResult c = with_fuse_mode(
      FuseMode::kOn, [] { return apps::gauss_c(4, 64, kSeed).run; });
  EXPECT_EQ(c.fusion.seen, 0u);
}

TEST(FusionGolden, PivotingGaussRejectsPermutedStepsByShape) {
  const RunResult r = with_fuse_mode(FuseMode::kOn, [] {
    return apps::gauss_skil(4, 32, kSeed, /*pivoting=*/true).run;
  });
  // Steps whose pivot search permutes rows cannot fuse the in-place
  // elimination (it would read moved data); the rest fuse normally.
  EXPECT_GT(r.fusion.rejected_shape, 0u);
  EXPECT_GT(r.fusion.fused, 0u);
  EXPECT_EQ(r.fusion.rejected_order, 0u);
}

// --- differential: results bit-identical off vs on --------------------------

TEST(FusionDifferential, GaussSolutionsBitIdentical) {
  const auto off = with_fuse_mode(FuseMode::kOff, [] {
    return apps::gauss_skil(4, 64, kSeed, false);
  });
  const auto on = with_fuse_mode(FuseMode::kOn, [] {
    return apps::gauss_skil(4, 64, kSeed, false);
  });
  EXPECT_TRUE(bits_equal(off.x, on.x));
  EXPECT_LT(on.run.vtime_us, off.run.vtime_us);
}

TEST(FusionDifferential, GaussPivotingSolutionsBitIdentical) {
  const auto off = with_fuse_mode(FuseMode::kOff, [] {
    return apps::gauss_skil(4, 32, kSeed, true);
  });
  const auto on = with_fuse_mode(FuseMode::kOn, [] {
    return apps::gauss_skil(4, 32, kSeed, true);
  });
  EXPECT_TRUE(bits_equal(off.x, on.x));
  EXPECT_LE(on.run.vtime_us, off.run.vtime_us);
}

TEST(FusionDifferential, GaussDpflSolutionsBitIdentical) {
  const auto off = with_fuse_mode(FuseMode::kOff, [] {
    return apps::gauss_dpfl(4, 64, kSeed);
  });
  const auto on = with_fuse_mode(FuseMode::kOn, [] {
    return apps::gauss_dpfl(4, 64, kSeed);
  });
  EXPECT_TRUE(bits_equal(off.x, on.x));
  EXPECT_LT(on.run.vtime_us, off.run.vtime_us);
}

TEST(FusionDifferential, MatmulProductsBitIdentical) {
  const auto off = with_fuse_mode(FuseMode::kOff, [] {
    return apps::matmul_skil(4, 64, kSeed);
  });
  const auto on = with_fuse_mode(FuseMode::kOn, [] {
    return apps::matmul_skil(4, 64, kSeed);
  });
  EXPECT_TRUE(bits_equal(off.product.storage(), on.product.storage()));
  EXPECT_LT(on.run.vtime_us, off.run.vtime_us);

  const auto doff = with_fuse_mode(FuseMode::kOff, [] {
    return apps::matmul_dpfl(4, 64, kSeed);
  });
  const auto don = with_fuse_mode(FuseMode::kOn, [] {
    return apps::matmul_dpfl(4, 64, kSeed);
  });
  EXPECT_TRUE(bits_equal(doff.product.storage(), don.product.storage()));
  EXPECT_LT(don.run.vtime_us, doff.run.vtime_us);
}

TEST(FusionDifferential, CreateConstStoresEveryConstantsBits) {
  // array_create_const runs one host body in both modes and skips the
  // store only where a fresh partition already holds the constant's
  // bits, so -0.0 (== 0.0, but not its bits) is still stored.
  for (const double value : {0.0, -0.0, 2.5}) {
    const auto created = [value](FuseMode mode) {
      return with_fuse_mode(mode, [value] {
        std::vector<double> got;
        (void)spmd_run(RunConfig{4, CostModel::t800()}, [&](Proc& proc) {
          DistArray<double> c =
              array_create_const<double>(proc, 2, Size{8, 8}, value);
          std::vector<double> all = array_gather_root(c);
          if (proc.id() == 0) got = std::move(all);
        });
        return got;
      });
    };
    const std::vector<double> expected(64, value);
    EXPECT_TRUE(bits_equal(created(FuseMode::kOff), expected)) << value;
    EXPECT_TRUE(bits_equal(created(FuseMode::kOn), expected)) << value;
  }
}

TEST(FusionDifferential, ShortestPathsDistancesBitIdentical) {
  const auto off = with_fuse_mode(FuseMode::kOff, [] {
    return apps::shpaths_skil(4, 32, kSeed);
  });
  const auto on = with_fuse_mode(FuseMode::kOn, [] {
    return apps::shpaths_skil(4, 32, kSeed);
  });
  EXPECT_TRUE(bits_equal(off.distances.storage(), on.distances.storage()));
  EXPECT_LT(on.run.vtime_us, off.run.vtime_us);

  const auto doff = with_fuse_mode(FuseMode::kOff, [] {
    return apps::shpaths_dpfl(4, 32, kSeed);
  });
  const auto don = with_fuse_mode(FuseMode::kOn, [] {
    return apps::shpaths_dpfl(4, 32, kSeed);
  });
  EXPECT_TRUE(
      bits_equal(doff.distances.storage(), don.distances.storage()));
  EXPECT_LT(don.run.vtime_us, doff.run.vtime_us);

  // The hand-written C program has no fusible composition: identical
  // vtimes, zero counters.
  const auto coff = with_fuse_mode(FuseMode::kOff, [] {
    return apps::shpaths_c(4, 32, kSeed, true);
  });
  const auto con = with_fuse_mode(FuseMode::kOn, [] {
    return apps::shpaths_c(4, 32, kSeed, true);
  });
  EXPECT_TRUE(
      bits_equal(coff.distances.storage(), con.distances.storage()));
  EXPECT_EQ(con.run.vtime_us, coff.run.vtime_us);
  EXPECT_EQ(con.run.fusion.seen, 0u);
}

}  // namespace
