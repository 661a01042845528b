// Tests for the DPFL functional baseline: same semantics as the Skil
// skeletons, higher modeled cost.
#include <gtest/gtest.h>

#include <cstdint>

#include "dpfl/dpfl.h"
#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/matrix.h"

namespace {

using namespace skil;
using dpfl::Closure;
using dpfl::FArray;
using parix::CostModel;
using parix::Distr;
using parix::Proc;
using parix::RunConfig;

TEST(FArray, CreateAndGather) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc,
                                   [](Index ix) { return ix[0] * 8 + ix[1]; });
    const auto a = dpfl::fa_create<int>(proc, 2, Size{8, 8}, init);
    const auto global = dpfl::fa_gather_all(a);
    for (int k = 0; k < 64; ++k) EXPECT_EQ(global[k], k);
  });
}

TEST(FArray, MapReturnsFreshArrayAndPreservesSource) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc, [](Index ix) { return ix[0]; });
    const auto a = dpfl::fa_create<int>(proc, 1, Size{8}, init);
    const Closure<int(int, Index)> doubler(
        proc, [](int v, Index) { return v * 2; });
    const auto b = dpfl::fa_map(doubler, a);
    // Immutability: the source is unchanged, the result is new.
    const auto ga = dpfl::fa_gather_all(a);
    const auto gb = dpfl::fa_gather_all(b);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(ga[i], i);
      EXPECT_EQ(gb[i], 2 * i);
    }
  });
}

TEST(FArray, FoldMatchesSequential) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc,
                                   [](Index ix) { return ix[0] + ix[1]; });
    const auto a = dpfl::fa_create<int>(proc, 2, Size{6, 6}, init);
    const Closure<long(int, Index)> conv(
        proc, [](int v, Index) { return static_cast<long>(v); });
    const Closure<long(long, long)> add(
        proc, [](long x, long y) { return x + y; });
    const long sum = dpfl::fa_fold(conv, add, a);
    long expected = 0;
    for (int i = 0; i < 6; ++i)
      for (int j = 0; j < 6; ++j) expected += i + j;
    EXPECT_EQ(sum, expected);
  });
}

TEST(FArray, BroadcastPartMatchesSkilSemantics) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<double(Index)> init(
        proc, [](Index ix) { return ix[0] * 100.0 + ix[1]; });
    auto piv = dpfl::fa_create<double>(proc, 2, Size{4, 5}, init,
                                       Distr::kDefault, Size{1, 5});
    piv = dpfl::fa_broadcast_part(piv, Index{2, 0});
    const int my_row = piv.part_bounds().lower[0];
    EXPECT_DOUBLE_EQ(piv.get_elem(Index{my_row, 3}), 203.0);
  });
}

TEST(FArray, PermuteRowsMatchesSkilSkeleton) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(
        proc, [](Index ix) { return ix[0] * 50 + ix[1]; });
    const auto a = dpfl::fa_create<int>(proc, 2, Size{8, 4}, init,
                                        Distr::kDefault, Size{2, 4});
    const Closure<int(int)> reverse(proc, [](int row) { return 7 - row; });
    const auto b = dpfl::fa_permute_rows(a, reverse);
    const auto global = dpfl::fa_gather_all(b);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 4; ++j)
        EXPECT_EQ(global[static_cast<std::size_t>(i) * 4 + j],
                  (7 - i) * 50 + j);
  });
}

TEST(FArray, PermuteRejectsNonBijection) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc, [](Index) { return 0; });
    const auto a = dpfl::fa_create<int>(proc, 2, Size{4, 2}, init,
                                        Distr::kDefault, Size{2, 2});
    const Closure<int(int)> collapse(proc, [](int) { return 1; });
    EXPECT_THROW(dpfl::fa_permute_rows(a, collapse),
                 skil::support::ContractError);
  });
}

TEST(FArray, GenMultMatchesOracle) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<double(Index)> init_a(
        proc, [](Index ix) { return support::dense_entry(5, ix[0], ix[1]); });
    const Closure<double(Index)> init_b(
        proc, [](Index ix) { return support::dense_entry(6, ix[0], ix[1]); });
    const Closure<double(double, double)> add(
        proc, [](double x, double y) { return x + y; });
    const Closure<double(double, double)> mult(
        proc, [](double x, double y) { return x * y; });
    const auto a = dpfl::fa_create<double>(proc, 2, Size{8, 8}, init_a,
                                           Distr::kTorus2D);
    const auto b = dpfl::fa_create<double>(proc, 2, Size{8, 8}, init_b,
                                           Distr::kTorus2D);
    const auto c = dpfl::fa_gen_mult(
        a, b, [](double x, double y) { return x + y; },
        [](double x, double y) { return x * y; });
    const auto got = dpfl::fa_gather_all(c);
    const auto expected = support::seq_matmul(support::random_dense(8, 8, 5),
                                              support::random_dense(8, 8, 6));
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        EXPECT_NEAR(got[static_cast<std::size_t>(i) * 8 + j], expected(i, j),
                    1e-9);
  });
}

TEST(FArray, GetElemRejectsNonLocal) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const Closure<int(Index)> init(proc, [](Index ix) { return ix[0]; });
    const auto a = dpfl::fa_create<int>(proc, 1, Size{8}, init);
    const int foreign = proc.id() == 0 ? 7 : 0;
    EXPECT_THROW(a.get_elem(Index{foreign}), skil::support::ContractError);
  });
}

TEST(CostComparison, DpflMapCostsMoreThanSkilMap) {
  // The whole point of the baseline: identical semantics, closure and
  // boxing overheads in the virtual time.
  RunConfig config{2, CostModel::t800()};
  const auto skil_run = parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<double>(proc, 1, Size{1000},
                                  [](Index ix) { return ix[0] * 1.0; });
    array_map([](double v) { return v + 1.0; }, a, a);
  });
  const auto dpfl_run = parix::spmd_run(config, [](Proc& proc) {
    const Closure<double(Index)> init(proc,
                                      [](Index ix) { return ix[0] * 1.0; });
    auto a = dpfl::fa_create<double>(proc, 1, Size{1000}, init);
    const Closure<double(double, Index)> inc(
        proc, [](double v, Index) { return v + 1.0; });
    a = dpfl::fa_map(inc, a);
  });
  EXPECT_GT(dpfl_run.vtime_us, 3.0 * skil_run.vtime_us);
}

TEST(BaselineName, MentionsDPFL) {
  EXPECT_NE(std::string(dpfl::baseline_name()).find("DPFL"),
            std::string::npos);
}

}  // namespace
