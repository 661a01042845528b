// Integration tests: all three shortest-paths implementations must
// agree with the sequential oracle and with each other.
#include <gtest/gtest.h>

#include "apps/shortest_paths.h"
#include "support/matrix.h"

namespace {

using namespace skil;
using apps::shpaths_c;
using apps::shpaths_dpfl;
using apps::shpaths_round_up;
using apps::shpaths_skil;

support::Matrix<std::uint32_t> oracle(int n_padded, int n_orig,
                                      std::uint64_t seed) {
  support::Matrix<std::uint32_t> dist(n_padded, n_padded);
  for (int i = 0; i < n_padded; ++i)
    for (int j = 0; j < n_padded; ++j) {
      if (i >= n_orig || j >= n_orig)
        dist(i, j) = i == j ? 0 : support::kDistInf;
      else
        dist(i, j) = support::distance_entry(n_orig, seed, i, j);
    }
  return support::seq_shortest_paths(std::move(dist));
}

TEST(RoundUp, MatchesThePapersRule) {
  EXPECT_EQ(shpaths_round_up(200, 4), 200);
  EXPECT_EQ(shpaths_round_up(200, 9), 201);  // the paper's example
  EXPECT_EQ(shpaths_round_up(200, 36), 204);
  EXPECT_EQ(shpaths_round_up(200, 49), 203);
  EXPECT_EQ(shpaths_round_up(1, 16), 4);
}

struct SpCase {
  int p;
  int n;
};

class ShortestPaths : public ::testing::TestWithParam<SpCase> {};

TEST_P(ShortestPaths, SkilMatchesOracle) {
  const auto [p, n] = GetParam();
  const auto result = shpaths_skil(p, n, 42);
  EXPECT_EQ(result.distances, oracle(shpaths_round_up(n, p), n, 42));
  EXPECT_GT(result.run.vtime_us, 0.0);
}

TEST_P(ShortestPaths, DpflMatchesOracle) {
  const auto [p, n] = GetParam();
  const auto result = shpaths_dpfl(p, n, 42);
  EXPECT_EQ(result.distances, oracle(shpaths_round_up(n, p), n, 42));
}

TEST_P(ShortestPaths, HandWrittenCMatchesOracleBothVariants) {
  const auto [p, n] = GetParam();
  const auto expected = oracle(shpaths_round_up(n, p), n, 42);
  EXPECT_EQ(shpaths_c(p, n, 42, /*optimized=*/true).distances, expected);
  EXPECT_EQ(shpaths_c(p, n, 42, /*optimized=*/false).distances, expected);
}

INSTANTIATE_TEST_SUITE_P(Grids, ShortestPaths,
                         ::testing::Values(SpCase{1, 12}, SpCase{4, 16},
                                           SpCase{4, 15}, SpCase{9, 21},
                                           SpCase{16, 24},
                                           // Block 75: a second gen_mult
                                           // column tile and a vector
                                           // remainder.
                                           SpCase{4, 150}),
                         [](const auto& info) {
                           std::string name = "p";
                           name += std::to_string(info.param.p);
                           name += "_n";
                           name += std::to_string(info.param.n);
                           return name;
                         });

TEST(ShortestPathsCost, SkilBeatsOldCButNotOptimizedC) {
  // Table 1's headline shape: Skil < old C (no virtual topologies,
  // synchronous sends); optimized C < Skil.
  const int p = 16, n = 64;
  const double skil = shpaths_skil(p, n, 7).run.vtime_us;
  const double old_c = shpaths_c(p, n, 7, /*optimized=*/false).run.vtime_us;
  const double opt_c = shpaths_c(p, n, 7, /*optimized=*/true).run.vtime_us;
  EXPECT_LT(skil, old_c);
  EXPECT_LT(opt_c, skil);
}

TEST(ShortestPathsCost, DpflIsSeveralTimesSlowerThanSkil) {
  const int p = 4, n = 32;
  const double skil = shpaths_skil(p, n, 7).run.vtime_us;
  const double dpfl = shpaths_dpfl(p, n, 7).run.vtime_us;
  EXPECT_GT(dpfl / skil, 2.0);
  EXPECT_LT(dpfl / skil, 20.0);
}

TEST(ShortestPathsCost, VirtualTimeIsDeterministic) {
  const auto a = shpaths_skil(9, 18, 3).run.vtime_us;
  const auto b = shpaths_skil(9, 18, 3).run.vtime_us;
  EXPECT_EQ(a, b);
}

}  // namespace
