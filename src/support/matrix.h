// Sequential dense matrices and reference oracles.
//
// Every distributed application in this repository (shortest paths,
// Gaussian elimination, generic matrix multiplication) is validated
// against the straightforward sequential implementations in this file.
// The workload generators here are shared by all three language
// baselines so that Skil, DPFL and Parix-C runs operate on identical
// inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/error.h"

namespace skil::support {

/// Minimal row-major dense matrix.
template <class T>
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, T fill = T{})
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, fill) {
    SKIL_REQUIRE(rows >= 0 && cols >= 0, "matrix dimensions must be >= 0");
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  T& operator()(int r, int c) {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  const T& operator()(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }

  T* row_ptr(int r) { return data_.data() + static_cast<std::size_t>(r) * cols_; }
  const T* row_ptr(int r) const {
    return data_.data() + static_cast<std::size_t>(r) * cols_;
  }

  std::vector<T>& storage() { return data_; }
  const std::vector<T>& storage() const { return data_; }

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  int rows_;
  int cols_;
  std::vector<T> data_;
};

/// "Infinity" used by the shortest-paths application.  The paper uses
/// the maximal unsigned integer value so that min() treats it as +inf;
/// additions saturate instead of wrapping.
inline constexpr std::uint32_t kDistInf = 0xffffffffu;

/// Saturating addition over path lengths: inf + x == inf, and a sum
/// that overflows saturates to inf instead of wrapping.  Defined here,
/// in carry form, so the (min,+) loops inline it and vectorize: a
/// wrapped sum is smaller than either addend.
inline std::uint32_t dist_add(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t sum = a + b;
  return sum < a ? kDistInf : sum;
}

// ---------------------------------------------------------------------------
// Workload generators (deterministic in `seed`).
// ---------------------------------------------------------------------------

/// Distance matrix of a random directed graph with n nodes: zero
/// diagonal, edge weights in [1, max_weight] with density `density`,
/// kDistInf for absent edges.
Matrix<std::uint32_t> random_distance_matrix(int n, std::uint64_t seed,
                                             double density = 0.25,
                                             int max_weight = 1000);

/// Deterministic per-index distance-matrix entry; equals
/// random_distance_matrix(n, seed)(i, j).  Exposed so distributed
/// initialiser functions can build partitions without materialising the
/// global matrix on every processor.
std::uint32_t distance_entry(int n, std::uint64_t seed, int i, int j,
                             double density = 0.25, int max_weight = 1000);

/// Random diagonally-dominant n x n system [A | b] stored as an
/// n x (n+1) matrix; diagonal dominance guarantees no pivoting is
/// required, matching the paper's first (pivot-free) gauss variant.
Matrix<double> random_linear_system(int n, std::uint64_t seed);

/// Deterministic per-index entry of random_linear_system(n, seed).
double linear_system_entry(int n, std::uint64_t seed, int i, int j);

/// Random system that *does* need partial pivoting: rows are scrambled
/// so that the naive (pivot-free) elimination hits small or zero pivots.
Matrix<double> random_pivoting_system(int n, std::uint64_t seed);

/// Deterministic per-index entry of random_pivoting_system(n, seed).
double pivoting_system_entry(int n, std::uint64_t seed, int i, int j);

/// Random dense matrix with entries in [-1, 1].
Matrix<double> random_dense(int rows, int cols, std::uint64_t seed);

/// Deterministic per-index entry of random_dense(rows, cols, seed).
double dense_entry(std::uint64_t seed, int i, int j);

// ---------------------------------------------------------------------------
// Sequential oracles.
// ---------------------------------------------------------------------------

/// Classical matrix product c = a * b.
Matrix<double> seq_matmul(const Matrix<double>& a, const Matrix<double>& b);

/// One min-plus "multiplication" step c(i,j) = min_k a(i,k) + b(k,j).
Matrix<std::uint32_t> seq_minplus(const Matrix<std::uint32_t>& a,
                                  const Matrix<std::uint32_t>& b);

/// All-pairs shortest paths by repeated squaring of the distance matrix
/// (the algorithm of paper section 4.1): ceil(log2 n) min-plus squarings.
Matrix<std::uint32_t> seq_shortest_paths(Matrix<std::uint32_t> dist);

/// Gaussian elimination without pivot search (paper's first variant).
/// `ab` is the n x (n+1) extended matrix; returns the solution vector x.
/// Throws AppError("Matrix is singular") when a zero pivot appears.
std::vector<double> seq_gauss_nopivot(Matrix<double> ab);

/// Gaussian elimination with partial pivoting (paper's complete variant).
std::vector<double> seq_gauss_pivot(Matrix<double> ab);

/// Max-norm residual ||A x - b||_inf for an n x (n+1) system.
double residual_inf(const Matrix<double>& ab, const std::vector<double>& x);

/// Max-norm distance between two vectors of equal length.
double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace skil::support
