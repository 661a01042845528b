// Tests for array_broadcast_part and array_permute_rows.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/error.h"

namespace {

using namespace skil;
using parix::CostModel;
using parix::Distr;
using parix::Proc;
using parix::RunConfig;
using skil::support::ContractError;

TEST(BroadcastPart, EveryPartitionBecomesTheRootPartition) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    // One row per processor (the paper's piv array layout).
    auto piv = array_create<double>(
        proc, 2, Size{4, 5}, Size{1, 5}, Index{-1, -1},
        [](Index ix) { return ix[0] * 100.0 + ix[1]; }, Distr::kDefault);
    array_broadcast_part(piv, Index{2, 0});  // partition of row 2
    const int my_row = piv.part_bounds().lower[0];
    for (int j = 0; j < 5; ++j)
      EXPECT_DOUBLE_EQ(piv.get_elem(Index{my_row, j}), 200.0 + j);
  });
}

TEST(BroadcastPart, WorksFromEveryOwner2D) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    for (int owner_row : {0, 5}) {
      for (int owner_col : {0, 5}) {
        auto a = array_create<int>(
            proc, 2, Size{8, 8},
            [](Index ix) { return ix[0] * 8 + ix[1]; }, Distr::kTorus2D);
        array_broadcast_part(a, Index{owner_row, owner_col});
        // After the broadcast every partition holds the owner's block,
        // so the local element at the same *relative* position equals
        // the owner's original value.
        const Bounds mine = a.part_bounds();
        const int owner_base_row = owner_row < 4 ? 0 : 4;
        const int owner_base_col = owner_col < 4 ? 0 : 4;
        const int v = a.get_elem(Index{mine.lower[0], mine.lower[1]});
        EXPECT_EQ(v, owner_base_row * 8 + owner_base_col);
      }
    }
  });
}

TEST(BroadcastPart, RequiresUniformPartitions) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 1, Size{5}, [](Index) { return 0; });
    EXPECT_THROW(array_broadcast_part(a, Index{0}), ContractError);
  });
}

/// p and engine of the storage-reuse broadcasts below.
struct ReuseCase {
  int p;
  parix::ExecutionEngine engine;
};

std::string reuse_case_name(const ::testing::TestParamInfo<ReuseCase>& info) {
  std::string name = "p";
  name += std::to_string(info.param.p);
  name += info.param.engine == parix::ExecutionEngine::kThreads ? "_threads"
                                                                 : "_pooled";
  return name;
}

class BroadcastPartReuse : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(BroadcastPartReuse, EveryPartitionKeepsItsStorageAndGetsTheRootsBits) {
  const auto [p, engine] = GetParam();
  RunConfig config{p, CostModel::t800()};
  config.engine = engine;
  config.coll = parix::CollMode::kTree;
  parix::spmd_run(config, [p](Proc& proc) {
    constexpr int kWidth = 9;
    const auto value = [](int row, int col) {
      return std::ldexp(row + 1.0, -col) / 3.0;
    };
    auto piv = array_create<double>(
        proc, 2, Size{p, kWidth}, Size{1, kWidth}, Index{-1, -1},
        [&](Index ix) { return value(ix[0], ix[1]); }, Distr::kDefault);
    const int my_row = piv.part_bounds().lower[0];
    for (int root_row = 0; root_row < p; ++root_row) {
      std::vector<double>& part = piv.local();
      for (int j = 0; j < kWidth; ++j) part[j] = value(my_row, j);
      const double* storage = part.data();
      array_broadcast_part(piv, Index{root_row, 0});
      EXPECT_EQ(piv.local().data(), storage) << "root row " << root_row;
      ASSERT_EQ(piv.local().size(), static_cast<std::size_t>(kWidth));
      for (int j = 0; j < kWidth; ++j)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(piv.local()[j]),
                  std::bit_cast<std::uint64_t>(value(root_row, j)))
            << "root row " << root_row << ", column " << j;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    PerEngine, BroadcastPartReuse,
    ::testing::Values(ReuseCase{2, parix::ExecutionEngine::kThreads},
                      ReuseCase{3, parix::ExecutionEngine::kThreads},
                      ReuseCase{5, parix::ExecutionEngine::kThreads},
                      ReuseCase{8, parix::ExecutionEngine::kThreads},
                      ReuseCase{64, parix::ExecutionEngine::kThreads},
                      ReuseCase{2, parix::ExecutionEngine::kPooled},
                      ReuseCase{3, parix::ExecutionEngine::kPooled},
                      ReuseCase{5, parix::ExecutionEngine::kPooled},
                      ReuseCase{8, parix::ExecutionEngine::kPooled},
                      ReuseCase{64, parix::ExecutionEngine::kPooled}),
    reuse_case_name);

struct PermCase {
  int p;
  int rows;
  int cols;
  Distr distr;
};

class PermuteRows : public ::testing::TestWithParam<PermCase> {};

TEST_P(PermuteRows, ReversalPermutation) {
  const auto c = GetParam();
  RunConfig config{c.p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index ix) { return ix[0] * 1000 + ix[1]; },
                               c.distr);
    auto b = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index) { return -1; }, c.distr);
    const int n = c.rows;
    array_permute_rows(a, [n](int row) { return n - 1 - row; }, b);
    const auto global = array_gather_all(b);
    for (int i = 0; i < c.rows; ++i)
      for (int j = 0; j < c.cols; ++j)
        EXPECT_EQ(global[static_cast<std::size_t>(i) * c.cols + j],
                  (n - 1 - i) * 1000 + j);
  });
}

TEST_P(PermuteRows, RotationPermutation) {
  const auto c = GetParam();
  RunConfig config{c.p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index ix) { return ix[0] * 37 + ix[1]; },
                               c.distr);
    auto b = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index) { return -1; }, c.distr);
    const int n = c.rows;
    array_permute_rows(a, [n](int row) { return (row + 3) % n; }, b);
    const auto global = array_gather_all(b);
    for (int i = 0; i < c.rows; ++i) {
      const int source = ((i - 3) % n + n) % n;
      for (int j = 0; j < c.cols; ++j)
        EXPECT_EQ(global[static_cast<std::size_t>(i) * c.cols + j],
                  source * 37 + j);
    }
  });
}

TEST_P(PermuteRows, SwapTwoRowsLikeThePivotExchange) {
  const auto c = GetParam();
  RunConfig config{c.p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index ix) { return ix[0]; }, c.distr);
    auto b = array_create<int>(proc, 2, Size{c.rows, c.cols},
                               [](Index) { return -1; }, c.distr);
    auto switch_rows = [](int r1, int r2, int row) {
      if (row == r1) return r2;
      if (row == r2) return r1;
      return row;
    };
    const int r1 = 0, r2 = c.rows - 1;
    array_permute_rows(a, partial(switch_rows, r1, r2), b);
    const auto global = array_gather_all(b);
    for (int i = 0; i < c.rows; ++i) {
      const int expect = i == r1 ? r2 : (i == r2 ? r1 : i);
      EXPECT_EQ(global[static_cast<std::size_t>(i) * c.cols], expect);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PermuteRows,
    ::testing::Values(PermCase{1, 6, 3, Distr::kDefault},
                      PermCase{2, 8, 5, Distr::kDefault},
                      PermCase{4, 8, 8, Distr::kTorus2D},
                      PermCase{4, 8, 5, Distr::kRing},
                      PermCase{6, 12, 6, Distr::kDefault},
                      PermCase{9, 9, 9, Distr::kTorus2D}));

TEST(PermuteRows, IdentityPermutationEqualsCopy) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{8, 4},
                               [](Index ix) { return ix[0] ^ ix[1]; });
    auto b = array_create<int>(proc, 2, Size{8, 4}, [](Index) { return 0; });
    array_permute_rows(a, [](int row) { return row; }, b);
    EXPECT_EQ(array_gather_all(a), array_gather_all(b));
  });
}

TEST(PermuteRows, NonBijectiveFunctionRaisesRuntimeError) {
  // "The user must provide a bijective function ... otherwise a
  // run-time error occurs."
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{4, 2}, [](Index) { return 0; });
    auto b = array_create<int>(proc, 2, Size{4, 2}, [](Index) { return 0; });
    EXPECT_THROW(array_permute_rows(a, [](int) { return 0; }, b),
                 ContractError);
    EXPECT_THROW(array_permute_rows(a, [](int row) { return row + 1; }, b),
                 ContractError);
    EXPECT_THROW(array_permute_rows(a, [](int row) { return -row; }, b),
                 ContractError);
  });
}

TEST(PermuteRows, RejectsOneDimensionalArrays) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 1, Size{8}, [](Index) { return 0; });
    auto b = array_create<int>(proc, 1, Size{8}, [](Index) { return 0; });
    EXPECT_THROW(array_permute_rows(a, [](int r) { return r; }, b),
                 ContractError);
  });
}

TEST(PermuteRows, RejectsAliasedArrays) {
  RunConfig config{2, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<int>(proc, 2, Size{4, 2}, [](Index) { return 0; });
    EXPECT_THROW(array_permute_rows(a, [](int r) { return r; }, a),
                 ContractError);
  });
}

TEST(PermuteRows, RandomPermutationsRoundTrip) {
  // Applying a permutation and then its inverse restores the array.
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    const int n = 16;
    // A fixed "random" bijection built from modular arithmetic.
    auto perm = [n](int row) { return (row * 5 + 3) % n; };  // gcd(5,16)=1
    std::vector<int> inverse(n);
    for (int r = 0; r < n; ++r) inverse[perm(r)] = r;
    auto inv = [inverse](int row) { return inverse[row]; };

    auto a = array_create<int>(proc, 2, Size{n, 4},
                               [](Index ix) { return ix[0] * 11 + ix[1]; });
    auto b = array_create<int>(proc, 2, Size{n, 4}, [](Index) { return 0; });
    auto c = array_create<int>(proc, 2, Size{n, 4}, [](Index) { return 0; });
    array_permute_rows(a, perm, b);
    array_permute_rows(b, inv, c);
    EXPECT_EQ(array_gather_all(a), array_gather_all(c));
  });
}

}  // namespace
