// Unit and property tests for the sequential matrices and oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

#include "support/matrix.h"

namespace {

using namespace skil::support;

TEST(Matrix, StoresAndRetrieves) {
  Matrix<int> m(3, 4, 7);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m(2, 3), 7);
  m(1, 2) = 42;
  EXPECT_EQ(m(1, 2), 42);
}

TEST(Matrix, EqualityComparesShapeAndData) {
  Matrix<int> a(2, 2, 1), b(2, 2, 1), c(2, 2, 2), d(2, 3, 1);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(DistAdd, SaturatesAtInfinity) {
  EXPECT_EQ(dist_add(kDistInf, 5), kDistInf);
  EXPECT_EQ(dist_add(5, kDistInf), kDistInf);
  EXPECT_EQ(dist_add(kDistInf, kDistInf), kDistInf);
  EXPECT_EQ(dist_add(3, 4), 7u);
  EXPECT_EQ(dist_add(kDistInf - 1, 1), kDistInf);  // saturation, no wrap
}

/// Independent reference: the sum in 64 bits, capped at infinity.
std::uint32_t dist_add_wide(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(a) + b, kDistInf));
}

TEST(DistAdd, MatchesWideReferenceOnBoundaryPairs) {
  const std::uint32_t edges[] = {0u,          1u,           0x7fffffffu,
                                 0x80000000u, kDistInf - 1, kDistInf};
  for (std::uint32_t a : edges)
    for (std::uint32_t b : edges)
      EXPECT_EQ(dist_add(a, b), dist_add_wide(a, b)) << a << " + " << b;
}

TEST(DistAdd, MatchesWideReferenceOnRandomPairs) {
  std::mt19937_64 rng(20261017);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t bits = rng();
    const auto a = static_cast<std::uint32_t>(bits);
    const auto b = static_cast<std::uint32_t>(bits >> 32);
    ASSERT_EQ(dist_add(a, b), dist_add_wide(a, b)) << a << " + " << b;
  }
}

TEST(DistanceMatrix, DiagonalIsZeroAndDeterministic) {
  const auto m1 = random_distance_matrix(20, 99);
  const auto m2 = random_distance_matrix(20, 99);
  EXPECT_EQ(m1, m2);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(m1(i, i), 0u);
}

TEST(DistanceMatrix, EntryFunctionMatchesMatrix) {
  const auto m = random_distance_matrix(15, 5);
  for (int i = 0; i < 15; ++i)
    for (int j = 0; j < 15; ++j)
      EXPECT_EQ(m(i, j), distance_entry(15, 5, i, j));
}

TEST(DistanceMatrix, DensityControlsEdges) {
  const auto dense = random_distance_matrix(40, 3, 0.9);
  const auto sparse = random_distance_matrix(40, 3, 0.05);
  int dense_edges = 0, sparse_edges = 0;
  for (int i = 0; i < 40; ++i)
    for (int j = 0; j < 40; ++j) {
      if (i == j) continue;
      if (dense(i, j) != kDistInf) ++dense_edges;
      if (sparse(i, j) != kDistInf) ++sparse_edges;
    }
  EXPECT_GT(dense_edges, sparse_edges * 4);
}

TEST(LinearSystem, IsDiagonallyDominant) {
  const auto ab = random_linear_system(30, 11);
  for (int i = 0; i < 30; ++i) {
    double off = 0.0;
    for (int j = 0; j < 30; ++j)
      if (j != i) off += std::abs(ab(i, j));
    EXPECT_GT(std::abs(ab(i, i)), off);
  }
}

TEST(LinearSystem, EntryFunctionMatchesMatrix) {
  const auto ab = random_linear_system(12, 21);
  for (int i = 0; i < 12; ++i)
    for (int j = 0; j <= 12; ++j)
      EXPECT_EQ(ab(i, j), linear_system_entry(12, 21, i, j));
}

TEST(PivotingSystem, IsRowRotationOfDominantSystem) {
  const int n = 14;
  const auto piv = random_pivoting_system(n, 33);
  const auto dom = random_linear_system(n, 33);
  // Every pivoting-system row must equal some dominant-system row, and
  // all rows must be used exactly once (bijectivity).
  std::vector<bool> used(n, false);
  for (int i = 0; i < n; ++i) {
    int match = -1;
    for (int r = 0; r < n; ++r) {
      bool equal = true;
      for (int j = 0; j <= n; ++j)
        if (piv(i, j) != dom(r, j)) {
          equal = false;
          break;
        }
      if (equal) {
        match = r;
        break;
      }
    }
    ASSERT_GE(match, 0) << "row " << i << " not found";
    EXPECT_FALSE(used[match]);
    used[match] = true;
  }
}

TEST(SeqMatmul, MatchesHandComputedProduct) {
  Matrix<double> a(2, 3);
  Matrix<double> b(3, 2);
  int v = 1;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) a(i, j) = v++;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j) b(i, j) = v++;
  const auto c = seq_matmul(a, b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(SeqMinplus, IdentityOfTrivialGraph) {
  // Two nodes joined by weight 5: the min-plus square equals the input.
  Matrix<std::uint32_t> a(2, 2, kDistInf);
  a(0, 0) = a(1, 1) = 0;
  a(0, 1) = a(1, 0) = 5;
  const auto sq = seq_minplus(a, a);
  EXPECT_EQ(sq, a);
}

TEST(SeqShortestPaths, FindsMultiHopPath) {
  // Path graph 0-1-2-3 with weights 1, 2, 3: d(0,3) = 6.
  Matrix<std::uint32_t> a(4, 4, kDistInf);
  for (int i = 0; i < 4; ++i) a(i, i) = 0;
  a(0, 1) = a(1, 0) = 1;
  a(1, 2) = a(2, 1) = 2;
  a(2, 3) = a(3, 2) = 3;
  const auto d = seq_shortest_paths(a);
  EXPECT_EQ(d(0, 3), 6u);
  EXPECT_EQ(d(3, 0), 6u);
  EXPECT_EQ(d(0, 2), 3u);
}

TEST(SeqShortestPaths, DisconnectedStaysInfinite) {
  Matrix<std::uint32_t> a(4, 4, kDistInf);
  for (int i = 0; i < 4; ++i) a(i, i) = 0;
  a(0, 1) = a(1, 0) = 1;  // component {0,1}; {2,3} isolated
  const auto d = seq_shortest_paths(a);
  EXPECT_EQ(d(0, 2), kDistInf);
  EXPECT_EQ(d(2, 3), kDistInf);
}

TEST(SeqGauss, SolvesDominantSystem) {
  const auto ab = random_linear_system(25, 7);
  const auto x = seq_gauss_nopivot(ab);
  EXPECT_LT(residual_inf(ab, x), 1e-9);
}

TEST(SeqGauss, PivotVariantAgreesOnDominantSystem) {
  const auto ab = random_linear_system(20, 8);
  const auto x1 = seq_gauss_nopivot(ab);
  const auto x2 = seq_gauss_pivot(ab);
  EXPECT_LT(max_abs_diff(x1, x2), 1e-9);
}

TEST(SeqGauss, PivotVariantSolvesRotatedSystem) {
  const auto ab = random_pivoting_system(18, 9);
  const auto x = seq_gauss_pivot(ab);
  EXPECT_LT(residual_inf(ab, x), 1e-9);
}

TEST(SeqGauss, SingularMatrixRaisesThePapersError) {
  Matrix<double> ab(2, 3, 0.0);
  ab(0, 0) = 1.0;  // second row entirely zero
  try {
    seq_gauss_nopivot(ab);
    FAIL() << "expected AppError";
  } catch (const AppError& e) {
    EXPECT_STREQ(e.what(), "Matrix is singular");
  }
  EXPECT_THROW(seq_gauss_pivot(ab), AppError);
}

class GaussRandomSizes : public ::testing::TestWithParam<int> {};

TEST_P(GaussRandomSizes, ResidualSmallForBothVariants) {
  const int n = GetParam();
  const auto ab = random_linear_system(n, 1000 + n);
  EXPECT_LT(residual_inf(ab, seq_gauss_nopivot(ab)), 1e-8);
  const auto piv = random_pivoting_system(n, 2000 + n);
  EXPECT_LT(residual_inf(piv, seq_gauss_pivot(piv)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GaussRandomSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

}  // namespace
