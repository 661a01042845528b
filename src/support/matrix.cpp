#include "support/matrix.h"

#include <algorithm>
#include <cmath>

#include "support/rng.h"

namespace skil::support {

std::uint32_t distance_entry(int n, std::uint64_t seed, int i, int j,
                             double density, int max_weight) {
  (void)n;
  if (i == j) return 0;
  const std::uint64_t h = hash_mix(seed, static_cast<std::uint64_t>(i),
                                   static_cast<std::uint64_t>(j));
  const double coin = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (coin >= density) return kDistInf;
  const std::uint64_t h2 = hash_mix(h, 0x77aa55cc33ee1100ULL, seed);
  return 1 + static_cast<std::uint32_t>(h2 % static_cast<std::uint64_t>(
                                                 max_weight));
}

Matrix<std::uint32_t> random_distance_matrix(int n, std::uint64_t seed,
                                             double density, int max_weight) {
  Matrix<std::uint32_t> m(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      m(i, j) = distance_entry(n, seed, i, j, density, max_weight);
  return m;
}

double linear_system_entry(int n, std::uint64_t seed, int i, int j) {
  const std::uint64_t h = hash_mix(seed, static_cast<std::uint64_t>(i),
                                   static_cast<std::uint64_t>(j));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
  if (j == i) {
    // Diagonal dominance: strictly larger than the sum of n off-diagonal
    // magnitudes (each below 1) plus the right-hand side contribution.
    return static_cast<double>(n) + 1.0 + u;
  }
  return 2.0 * u - 1.0;  // off-diagonal and right-hand side in [-1, 1)
}

Matrix<double> random_linear_system(int n, std::uint64_t seed) {
  Matrix<double> m(n, n + 1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= n; ++j) m(i, j) = linear_system_entry(n, seed, i, j);
  return m;
}

double pivoting_system_entry(int n, std::uint64_t seed, int i, int j) {
  // Apply a deterministic row rotation to the dominant system: the
  // rotated system is still nonsingular (rotation is a bijection for
  // every n) but the element on the naive pivot position is usually
  // tiny, forcing partial pivoting to engage.
  const int shift = n > 2 ? n / 2 + 1 : 1;
  const int rotated = (i + shift) % n;
  return linear_system_entry(n, seed, rotated, j);
}

Matrix<double> random_pivoting_system(int n, std::uint64_t seed) {
  Matrix<double> m(n, n + 1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= n; ++j) m(i, j) = pivoting_system_entry(n, seed, i, j);
  return m;
}

double dense_entry(std::uint64_t seed, int i, int j) {
  const std::uint64_t h = hash_mix(seed, static_cast<std::uint64_t>(i),
                                   static_cast<std::uint64_t>(j) + 0x51ULL);
  return 2.0 * (static_cast<double>(h >> 11) * 0x1.0p-53) - 1.0;
}

Matrix<double> random_dense(int rows, int cols, std::uint64_t seed) {
  Matrix<double> m(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) m(i, j) = dense_entry(seed, i, j);
  return m;
}

Matrix<double> seq_matmul(const Matrix<double>& a, const Matrix<double>& b) {
  SKIL_REQUIRE(a.cols() == b.rows(), "seq_matmul: inner dimensions differ");
  Matrix<double> c(a.rows(), b.cols(), 0.0);
  for (int i = 0; i < a.rows(); ++i)
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  return c;
}

Matrix<std::uint32_t> seq_minplus(const Matrix<std::uint32_t>& a,
                                  const Matrix<std::uint32_t>& b) {
  SKIL_REQUIRE(a.cols() == b.rows(), "seq_minplus: inner dimensions differ");
  Matrix<std::uint32_t> c(a.rows(), b.cols(), kDistInf);
  for (int i = 0; i < a.rows(); ++i)
    for (int k = 0; k < a.cols(); ++k) {
      const std::uint32_t aik = a(i, k);
      if (aik == kDistInf) continue;
      for (int j = 0; j < b.cols(); ++j)
        c(i, j) = std::min(c(i, j), dist_add(aik, b(k, j)));
    }
  return c;
}

Matrix<std::uint32_t> seq_shortest_paths(Matrix<std::uint32_t> dist) {
  const int n = dist.rows();
  int iterations = 0;
  for (int span = 1; span < n; span *= 2) ++iterations;
  for (int it = 0; it < iterations; ++it) dist = seq_minplus(dist, dist);
  return dist;
}

namespace {
std::vector<double> back_substitute_free(const Matrix<double>& ab) {
  // The paper's elimination zeroes the full column (rows above and
  // below the pivot), so after n steps the matrix is diagonal and the
  // solution is simply the normalised last column.
  const int n = ab.rows();
  std::vector<double> x(n);
  for (int i = 0; i < n; ++i) x[i] = ab(i, n) / ab(i, i);
  return x;
}
}  // namespace

std::vector<double> seq_gauss_nopivot(Matrix<double> ab) {
  const int n = ab.rows();
  SKIL_REQUIRE(ab.cols() == n + 1, "seq_gauss: matrix must be n x (n+1)");
  for (int k = 0; k < n; ++k) {
    if (ab(k, k) == 0.0) throw AppError("Matrix is singular");
    for (int i = 0; i < n; ++i) {
      if (i == k) continue;
      const double factor = ab(i, k) / ab(k, k);
      // Innermost loop runs downward, exactly like the paper's
      // pseudo-code, so the pivot column element is consumed last.
      for (int j = n; j >= k; --j) ab(i, j) -= factor * ab(k, j);
    }
  }
  return back_substitute_free(ab);
}

std::vector<double> seq_gauss_pivot(Matrix<double> ab) {
  const int n = ab.rows();
  SKIL_REQUIRE(ab.cols() == n + 1, "seq_gauss: matrix must be n x (n+1)");
  for (int k = 0; k < n; ++k) {
    int pivot_row = k;
    double best = std::abs(ab(k, k));
    for (int r = 0; r < n; ++r) {
      // The paper's fold searches the whole column (it later skips rows
      // already used as pivots via the elimination mask); searching rows
      // >= k is the standard equivalent for the masked variant.
      if (r < k) continue;
      if (std::abs(ab(r, k)) > best) {
        best = std::abs(ab(r, k));
        pivot_row = r;
      }
    }
    if (best == 0.0) throw AppError("Matrix is singular");
    if (pivot_row != k)
      for (int j = 0; j <= n; ++j) std::swap(ab(k, j), ab(pivot_row, j));
    for (int i = 0; i < n; ++i) {
      if (i == k) continue;
      const double factor = ab(i, k) / ab(k, k);
      for (int j = n; j >= k; --j) ab(i, j) -= factor * ab(k, j);
    }
  }
  return back_substitute_free(ab);
}

double residual_inf(const Matrix<double>& ab, const std::vector<double>& x) {
  const int n = ab.rows();
  double worst = 0.0;
  for (int i = 0; i < n; ++i) {
    double acc = -ab(i, n);
    for (int j = 0; j < n; ++j) acc += ab(i, j) * x[j];
    worst = std::max(worst, std::abs(acc));
  }
  return worst;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  SKIL_REQUIRE(a.size() == b.size(), "max_abs_diff: length mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

}  // namespace skil::support
