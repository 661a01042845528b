// Classical dense matrix multiplication.
//
// The paper's section 5.1 notes: "We have done the comparison between
// equally optimized C and Skil versions of the matrix multiplication
// algorithm, and obtained Skil times around 20% slower than direct C
// times [3]."  This module provides those two versions (the Skil one
// is a one-line use of array_gen_mult with (+) and (*)), plus the DPFL
// variant for completeness; bench_s1_matmul_opt reproduces the claim.
#pragma once

#include <cstdint>

#include "parix/runtime.h"
#include "support/matrix.h"

namespace skil::apps {

struct MatmulResult {
  support::Matrix<double> product;
  parix::RunResult run;
};

/// Rounds n up to a multiple of the processor-grid side.
int matmul_round_up(int n, int nprocs);

MatmulResult matmul_skil(int nprocs, int n, std::uint64_t seed,
                         parix::CostModel cost = parix::CostModel::t800());

MatmulResult matmul_dpfl(int nprocs, int n, std::uint64_t seed,
                         parix::CostModel cost = parix::CostModel::t800());

/// Equally optimized hand-written C (torus + asynchronous rotations).
MatmulResult matmul_c(int nprocs, int n, std::uint64_t seed,
                      parix::CostModel cost = parix::CostModel::t800());

/// SUMMA (Scalable Universal Matrix Multiplication): per-step panel
/// broadcasts along split row/column communicators instead of Cannon
/// rotations.  Exercises Topology::split_rows/split_cols and the
/// size-adaptive broadcast zoo (under SKIL_COLL=auto the large panels
/// of small grids ride the chunk-pipelined ring, the 8 KB panels of an
/// 8x8 grid stay on the tree).  The fixed k order makes the product
/// bit-identical across every SKIL_COLL mode (broadcasts only move
/// bits); it matches matmul_c up to FP summation order, since Cannon
/// visits the k panels in a per-processor rotated order.
MatmulResult matmul_summa(int nprocs, int n, std::uint64_t seed,
                          parix::CostModel cost = parix::CostModel::t800());

}  // namespace skil::apps
