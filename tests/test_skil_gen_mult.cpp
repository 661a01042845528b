// Tests for array_gen_mult: correctness over arbitrary semirings
// (min-plus saturation checked for DPFL's taped gen_mult too),
// preservation of the operand arrays, and the paper's preconditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dpfl/dpfl.h"
#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/error.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace {

using namespace skil;
using parix::CostModel;
using parix::Distr;
using parix::Proc;
using parix::RunConfig;
using skil::support::ContractError;

class GenMult : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GenMult, ClassicalProductMatchesOracle) {
  const auto [p, n] = GetParam();
  RunConfig config{p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto init_a = [](Index ix) {
      return support::dense_entry(1, ix[0], ix[1]);
    };
    auto init_b = [](Index ix) {
      return support::dense_entry(2, ix[0], ix[1]);
    };
    auto a = array_create<double>(proc, 2, Size{n, n}, init_a,
                                  Distr::kTorus2D);
    auto b = array_create<double>(proc, 2, Size{n, n}, init_b,
                                  Distr::kTorus2D);
    auto c = array_create<double>(proc, 2, Size{n, n},
                                  [](Index) { return 0.0; }, Distr::kTorus2D);
    array_gen_mult(a, b, fn::plus, fn::times, c);

    const auto got = array_gather_matrix(c);
    const auto ma = array_gather_matrix(a);
    const auto mb = array_gather_matrix(b);
    const auto expected = support::seq_matmul(ma, mb);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        EXPECT_NEAR(got(i, j), expected(i, j), 1e-9) << i << "," << j;
  });
}

TEST_P(GenMult, MinPlusSemiring) {
  const auto [p, n] = GetParam();
  RunConfig config{p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto init = [n = n](Index ix) {
      return support::distance_entry(n, 77, ix[0], ix[1]);
    };
    auto a = array_create<std::uint32_t>(proc, 2, Size{n, n}, init,
                                         Distr::kTorus2D);
    auto b = array_create<std::uint32_t>(proc, 2, Size{n, n}, init,
                                         Distr::kTorus2D);
    auto c = array_create<std::uint32_t>(
        proc, 2, Size{n, n}, [](Index) { return support::kDistInf; },
        Distr::kTorus2D);
    array_gen_mult(
        a, b, fn::min,
        [](std::uint32_t x, std::uint32_t y) { return support::dist_add(x, y); },
        c);

    const auto got = array_gather_matrix(c);
    const auto expected = support::seq_minplus(
        support::random_distance_matrix(n, 77),
        support::random_distance_matrix(n, 77));
    EXPECT_EQ(got, expected);
  });
}

/// Min-plus operand of the saturation case: zero diagonal, an eighth of
/// the entries infinite, the rest finite in [2^31, kDistInf).  Every
/// off-diagonal sum of two finite entries overflows 32 bits, so only
/// the diagonal terms stay finite and a wrapped sum would win the min.
std::uint32_t huge_entry(std::uint64_t seed, int i, int j) {
  if (i == j) return 0;
  const std::uint64_t h = support::hash_mix(
      seed, static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(j));
  if (h % 8 == 0) return support::kDistInf;
  return 0x80000000u + static_cast<std::uint32_t>((h >> 3) % 0x7fffffffu);
}

TEST_P(GenMult, MinPlusSaturatesLikeAWideSum) {
  // Skil's skeleton and DPFL's taped one against a reference that
  // sums in 64 bits and caps at infinity, sharing no code with
  // support::dist_add.
  const auto [p, n] = GetParam();
  support::Matrix<std::uint32_t> expected(n, n, support::kDistInf);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k) {
        const std::uint64_t sum =
            std::uint64_t{huge_entry(1, i, k)} + huge_entry(2, k, j);
        expected(i, j) = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(expected(i, j), sum));
      }
  const auto add = [](std::uint32_t x, std::uint32_t y) {
    return std::min(x, y);
  };
  const auto mult = [](std::uint32_t x, std::uint32_t y) {
    return support::dist_add(x, y);
  };
  RunConfig config{p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<std::uint32_t>(
        proc, 2, Size{n, n},
        [](Index ix) { return huge_entry(1, ix[0], ix[1]); }, Distr::kTorus2D);
    auto b = array_create<std::uint32_t>(
        proc, 2, Size{n, n},
        [](Index ix) { return huge_entry(2, ix[0], ix[1]); }, Distr::kTorus2D);
    auto c = array_create<std::uint32_t>(
        proc, 2, Size{n, n}, [](Index) { return support::kDistInf; },
        Distr::kTorus2D);
    array_gen_mult(a, b, add, mult, c);
    EXPECT_EQ(array_gather_matrix(c), expected);

    const dpfl::Closure<std::uint32_t(Index)> init_a(
        proc, [](Index ix) { return huge_entry(1, ix[0], ix[1]); });
    const dpfl::Closure<std::uint32_t(Index)> init_b(
        proc, [](Index ix) { return huge_entry(2, ix[0], ix[1]); });
    const auto fa = dpfl::fa_create<std::uint32_t>(proc, 2, Size{n, n}, init_a,
                                                   Distr::kTorus2D);
    const auto fb = dpfl::fa_create<std::uint32_t>(proc, 2, Size{n, n}, init_b,
                                                   Distr::kTorus2D);
    const std::vector<std::uint32_t> got =
        dpfl::fa_gather_root(dpfl::fa_gen_mult(fa, fb, add, mult));
    if (proc.id() == 0) {
      EXPECT_EQ(got, expected.storage());
    }
  });
}

TEST_P(GenMult, OperandsAreRestoredAfterTheCall) {
  const auto [p, n] = GetParam();
  RunConfig config{p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto a = array_create<double>(
        proc, 2, Size{n, n},
        [](Index ix) { return ix[0] * 31.0 + ix[1]; }, Distr::kTorus2D);
    auto b = array_create<double>(
        proc, 2, Size{n, n},
        [](Index ix) { return ix[0] * 1.5 - ix[1]; }, Distr::kTorus2D);
    auto c = array_create<double>(proc, 2, Size{n, n},
                                  [](Index) { return 0.0; }, Distr::kTorus2D);
    const auto a_before = array_gather_all(a);
    const auto b_before = array_gather_all(b);
    array_gen_mult(a, b, fn::plus, fn::times, c);
    EXPECT_EQ(array_gather_all(a), a_before);
    EXPECT_EQ(array_gather_all(b), b_before);
  });
}

TEST_P(GenMult, AccumulatesOntoInitialC) {
  // The result is folded together with c's initial contents, so
  // seeding c with the fold identity (0 for +) gives the plain
  // product, and seeding with something else offsets it.
  const auto [p, n] = GetParam();
  RunConfig config{p, CostModel::t800()};
  parix::spmd_run(config, [&](Proc& proc) {
    auto one = [](Index) { return 1.0; };
    auto a = array_create<double>(proc, 2, Size{n, n},
                                  [](Index ix) { return ix[0] == ix[1] ? 1.0 : 0.0; },
                                  Distr::kTorus2D);
    auto b = array_create<double>(proc, 2, Size{n, n},
                                  [](Index ix) { return ix[0] * 2.0 + ix[1]; },
                                  Distr::kTorus2D);
    auto c = array_create<double>(proc, 2, Size{n, n}, one, Distr::kTorus2D);
    array_gen_mult(a, b, fn::plus, fn::times, c);  // identity * b + 1
    const auto got = array_gather_matrix(c);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        EXPECT_NEAR(got(i, j), i * 2.0 + j + 1.0, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(GridsAndSizes, GenMult,
                         ::testing::Values(std::pair{1, 4}, std::pair{1, 6},
                                           std::pair{4, 8}, std::pair{4, 12},
                                           std::pair{9, 9}, std::pair{9, 18},
                                           std::pair{16, 16},
                                           // Block 75: a second column
                                           // tile and a vector remainder.
                                           std::pair{4, 150}));

TEST(GenMultContract, AliasedArgumentsAreRejected) {
  // "calls of the form array_gen_mult(a, a, ...) and
  // array_gen_mult(a, ..., a) are not allowed"
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<double>(proc, 2, Size{4, 4},
                                  [](Index) { return 1.0; }, Distr::kTorus2D);
    auto b = array_create<double>(proc, 2, Size{4, 4},
                                  [](Index) { return 1.0; }, Distr::kTorus2D);
    auto c = array_create<double>(proc, 2, Size{4, 4},
                                  [](Index) { return 0.0; }, Distr::kTorus2D);
    EXPECT_THROW(array_gen_mult(a, a, fn::plus, fn::times, c), ContractError);
    EXPECT_THROW(array_gen_mult(a, b, fn::plus, fn::times, a), ContractError);
    EXPECT_THROW(array_gen_mult(a, b, fn::plus, fn::times, b), ContractError);
  });
}

TEST(GenMultContract, RequiresTorusMapping) {
  RunConfig config{4, CostModel::t800()};
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<double>(proc, 2, Size{4, 4},
                                  [](Index) { return 1.0; }, Distr::kDefault);
    auto b = array_create<double>(proc, 2, Size{4, 4},
                                  [](Index) { return 1.0; }, Distr::kDefault);
    auto c = array_create<double>(proc, 2, Size{4, 4},
                                  [](Index) { return 0.0; }, Distr::kDefault);
    EXPECT_THROW(array_gen_mult(a, b, fn::plus, fn::times, c), ContractError);
  });
}

TEST(GenMultContract, RequiresSquareGridAndDivisibleSize) {
  RunConfig config{8, CostModel::t800()};  // 2x4 grid: not square
  parix::spmd_run(config, [](Proc& proc) {
    auto a = array_create<double>(proc, 2, Size{8, 8},
                                  [](Index) { return 1.0; }, Distr::kTorus2D);
    auto b = array_create<double>(proc, 2, Size{8, 8},
                                  [](Index) { return 1.0; }, Distr::kTorus2D);
    auto c = array_create<double>(proc, 2, Size{8, 8},
                                  [](Index) { return 0.0; }, Distr::kTorus2D);
    EXPECT_THROW(array_gen_mult(a, b, fn::plus, fn::times, c), ContractError);
  });
}

}  // namespace
