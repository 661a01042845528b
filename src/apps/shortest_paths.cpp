#include "apps/shortest_paths.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "dpfl/dpfl.h"
#include "parix/collectives.h"
#include "skil/skil.h"

namespace skil::apps {

namespace {

using support::dist_add;
using support::distance_entry;
using support::kDistInf;

/// Number of squarings: A^(2^iters) with 2^iters >= n.
int squaring_iterations(int n) {
  int iterations = 0;
  for (int span = 1; span < n; span *= 2) ++iterations;
  return iterations;
}

/// Distance-matrix initialiser including the paper's padding: indices
/// beyond the original n behave as isolated nodes.
std::uint32_t padded_entry(int n_orig, std::uint64_t seed, int i, int j) {
  if (i >= n_orig || j >= n_orig) return i == j ? 0u : kDistInf;
  return distance_entry(n_orig, seed, i, j);
}

}  // namespace

int shpaths_round_up(int n, int nprocs) {
  const parix::MeshShape mesh = parix::near_square_mesh(nprocs);
  SKIL_REQUIRE(mesh.rows == mesh.cols,
               "shortest paths needs a square processor grid");
  const int q = mesh.rows;
  return ((n + q - 1) / q) * q;
}

ShpathsResult shpaths_skil(int nprocs, int n, std::uint64_t seed,
                           parix::CostModel cost) {
  const int size = shpaths_round_up(n, nprocs);
  ShpathsResult result;
  parix::RunConfig config{nprocs, cost};

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    // The paper's shpaths procedure, verbatim in library form.
    auto init_f = [&](Index ix) { return padded_entry(n, seed, ix[0], ix[1]); };
    auto zero = [](Index) { return std::uint32_t{0}; };
    auto int_max = [](Index) { return kDistInf; };

    DistArray<std::uint32_t> a = array_create<std::uint32_t>(
        proc, 2, Size{size, size}, Size{0, 0}, Index{-1, -1}, init_f,
        parix::Distr::kTorus2D);
    DistArray<std::uint32_t> b = array_create<std::uint32_t>(
        proc, 2, Size{size, size}, Size{0, 0}, Index{-1, -1}, zero,
        parix::Distr::kTorus2D);
    DistArray<std::uint32_t> c = array_create<std::uint32_t>(
        proc, 2, Size{size, size}, Size{0, 0}, Index{-1, -1}, int_max,
        parix::Distr::kTorus2D);

    // Each squaring is the fusible composition copy|gen_mult|copy:
    // under SKIL_FUSE=on both full-matrix copies are elided (the
    // operand blocks are built straight from `a`, the result copy
    // becomes a handle swap) and the restoring unskew disappears.
    // The stale previous iterate left in `c` folds away under min
    // exactly like kDistInf -- distances only shrink -- so the
    // distance matrix is bit-identical (DESIGN.md section 13).
    const int iterations = squaring_iterations(size);
    for (int i = 0; i < iterations; ++i) {
      const parix::TraceSpan step(proc, "shpaths squaring", i);
      if (array_gen_mult_squared(
              a, fn::min,
              [](std::uint32_t x, std::uint32_t y) { return dist_add(x, y); },
              c, b))
        std::swap(a, c);
    }

    // Unfused, the loop's trailing copy leaves `a == c` bitwise; fused,
    // the final swap leaves the newest iterate in `a`.  Gathering `a`
    // is charge-identical to gathering `c` (the gather walks the
    // distribution, not the values).  A degenerate 1x1 instance runs
    // zero iterations and keeps the paper's behaviour of returning `c`.
    std::vector<std::uint32_t> flat =
        array_gather_root(iterations > 0 ? a : c);
    if (proc.id() == 0) {
      result.distances = support::Matrix<std::uint32_t>(size, size);
      result.distances.storage() = std::move(flat);
    }

    array_destroy(a);
    array_destroy(b);
    array_destroy(c);
  });
  return result;
}

ShpathsResult shpaths_dpfl(int nprocs, int n, std::uint64_t seed,
                           parix::CostModel cost) {
  const int size = shpaths_round_up(n, nprocs);
  ShpathsResult result;
  parix::RunConfig config{nprocs, cost};

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    using dpfl::Closure;
    using dpfl::FArray;
    const Closure<std::uint32_t(Index)> init_f(
        proc, [&](Index ix) { return padded_entry(n, seed, ix[0], ix[1]); });
    const Closure<std::uint32_t(std::uint32_t, std::uint32_t)> gen_add(
        proc,
        [](std::uint32_t x, std::uint32_t y) { return std::min(x, y); });
    const Closure<std::uint32_t(std::uint32_t, std::uint32_t)> gen_mult(
        proc, [](std::uint32_t x, std::uint32_t y) { return dist_add(x, y); });

    FArray<std::uint32_t> a = dpfl::fa_create<std::uint32_t>(
        proc, 2, Size{size, size}, init_f, parix::Distr::kTorus2D);

    const int iterations = squaring_iterations(size);
    for (int i = 0; i < iterations; ++i) {
      const parix::TraceSpan step(proc, "shpaths squaring", i);
      // Immutability: the functional version squares a directly into a
      // fresh array (no copy-to-b dance, but every round allocates).
      // The combines inline into the multiply loop; the gen_add and
      // gen_mult Closures above charge the program's closure records,
      // and the skeleton books its bulk per-round charges.
      a = dpfl::fa_gen_mult(
          a, a,
          [](std::uint32_t x, std::uint32_t y) { return std::min(x, y); },
          [](std::uint32_t x, std::uint32_t y) { return dist_add(x, y); });
    }

    std::vector<std::uint32_t> flat = dpfl::fa_gather_root(a);
    if (proc.id() == 0) {
      result.distances = support::Matrix<std::uint32_t>(size, size);
      result.distances.storage() = std::move(flat);
    }
  });
  return result;
}

ShpathsResult shpaths_c(int nprocs, int n, std::uint64_t seed, bool optimized,
                        parix::CostModel cost) {
  // Paper section 5.1: the "older version" lacks virtual topologies and
  // asynchronous communication (its generated compute code is
  // comparable to Skil's); the equally optimized version has all three
  // improvements.
  CImplOptions options;
  options.virtual_topology = optimized;
  options.async_overlap = optimized;
  options.tuned_loop = optimized;
  return shpaths_c_custom(nprocs, n, seed, options, cost);
}

ShpathsResult shpaths_c_custom(int nprocs, int n, std::uint64_t seed,
                               CImplOptions options, parix::CostModel cost) {
  const int size = shpaths_round_up(n, nprocs);
  const bool optimized = options.async_overlap;
  cost.default_send_mode =
      optimized ? parix::SendMode::kAsync : parix::SendMode::kSync;
  ShpathsResult result;
  parix::RunConfig config{nprocs, cost};

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    // Hand-written message-passing C: raw blocks, explicit Cannon
    // rotations, pointer swaps instead of copies, fused (min,+) inner
    // loop with no per-element call overhead.
    const parix::Topology topo(proc.machine(),
                               options.virtual_topology
                                   ? parix::Distr::kTorus2D
                                   : parix::Distr::kDefault);
    const int q = topo.grid_rows();
    SKIL_REQUIRE(q == topo.grid_cols(), "square grid required");
    const int block = size / q;
    const int my_row = topo.grid_row(proc.id());
    const int my_col = topo.grid_col(proc.id());

    auto rotate = [&](std::vector<std::uint32_t> payload, int drow,
                      int dcol) {
      const long tag = proc.fresh_tag();
      const int dst = topo.at_grid(my_row + drow, my_col + dcol);
      const int src = topo.at_grid(my_row - drow, my_col - dcol);
      if (dst == proc.id()) return payload;
      proc.send<std::vector<std::uint32_t>>(dst, tag, std::move(payload));
      return proc.recv<std::vector<std::uint32_t>>(src, tag);
    };

    // Local block of the distance matrix.
    const std::size_t cells = static_cast<std::size_t>(block) * block;
    std::vector<std::uint32_t> dist(cells);
    for (int i = 0; i < block; ++i)
      for (int j = 0; j < block; ++j)
        dist[static_cast<std::size_t>(i) * block + j] = padded_entry(
            n, seed, my_row * block + i, my_col * block + j);
    proc.charge(parix::Op::kIntOp, cells);

    const int iterations = squaring_iterations(size);
    for (int it = 0; it < iterations; ++it) {
      const parix::TraceSpan step(proc, "shpaths squaring", it);
      // Square `dist` into `next` with Cannon's algorithm.  Both
      // operand buffers start as copies of the current matrix.
      std::vector<std::uint32_t> a_block = dist;
      std::vector<std::uint32_t> b_block = dist;
      proc.charge(parix::Op::kCopyWord, 2 * (cells / 2 + 1));
      a_block = rotate(std::move(a_block), 0, -my_row);
      b_block = rotate(std::move(b_block), -my_col, 0);

      std::vector<std::uint32_t> next(cells, kDistInf);
      const int a_dst = topo.at_grid(my_row, my_col - 1);
      const int a_src = topo.at_grid(my_row, my_col + 1);
      const int b_dst = topo.at_grid(my_row - 1, my_col);
      const int b_src = topo.at_grid(my_row + 1, my_col);
      for (int round = 0; round < q; ++round) {
        const bool last = round + 1 == q;
        const long tag = proc.fresh_tag();
        if (optimized && !last && q > 1) {
          // The optimized version posts the rotations first and
          // overlaps the transfers with the block multiplication.
          proc.send_mode<std::vector<std::uint32_t>>(
              a_dst, tag, a_block, parix::SendMode::kAsync);
          proc.send_mode<std::vector<std::uint32_t>>(
              b_dst, tag + 1, b_block, parix::SendMode::kAsync);
          proc.charge(parix::Op::kCopyWord, cells + 2);
        }
        for (int i = 0; i < block; ++i)
          for (int k = 0; k < block; ++k) {
            const std::uint32_t aik =
                a_block[static_cast<std::size_t>(i) * block + k];
            if (aik == kDistInf) continue;
            const std::uint32_t* brow =
                &b_block[static_cast<std::size_t>(k) * block];
            std::uint32_t* nrow = &next[static_cast<std::size_t>(i) * block];
            // Unconditional store: GCC vectorizes a min, not a
            // conditional store.
            for (int j = 0; j < block; ++j)
              nrow[j] = std::min(nrow[j], dist_add(aik, brow[j]));
          }
        // A hand-tuned inner loop charges bare element operations.  The
        // "older version" of section 5.1 predates that tuning: its
        // compute code carries roughly twice the per-element residual
        // of Skil's instantiated skeletons (Table 1 shows it ~10%
        // slower than Skil even on the 2x2 network, where communication
        // is a negligible share -- so part of its deficit had to be
        // compute).
        proc.charge(parix::Op::kIntOp,
                    2 * static_cast<std::uint64_t>(cells) * block);
        if (!options.tuned_loop)
          proc.charge(parix::Op::kCall,
                      4 * static_cast<std::uint64_t>(cells) * block);
        if (!last && q > 1) {
          if (optimized) {
            a_block = proc.recv<std::vector<std::uint32_t>>(a_src, tag);
            b_block = proc.recv<std::vector<std::uint32_t>>(b_src, tag + 1);
          } else {
            // The old version communicates synchronously after the
            // multiplication, with no overlap.
            a_block = rotate(std::move(a_block), 0, -1);
            b_block = rotate(std::move(b_block), -1, 0);
          }
        }
      }
      // (Two integer operations per fused multiply-add were charged per
      // round; no call residual -- this is the hand-inlined loop.)
      dist = std::move(next);  // pointer swap, no copy
    }

    // Gather the result on processor 0.
    const parix::Topology gather_topo(proc.machine(), parix::Distr::kDefault);
    std::vector<std::vector<std::uint32_t>> parts =
        parix::gather(proc, gather_topo, 0, std::move(dist));
    if (proc.id() == 0) {
      result.distances = support::Matrix<std::uint32_t>(size, size);
      for (int p = 0; p < nprocs; ++p) {
        const int pr = topo.grid_row(p);
        const int pc = topo.grid_col(p);
        for (int i = 0; i < block; ++i)
          for (int j = 0; j < block; ++j)
            result.distances(pr * block + i, pc * block + j) =
                parts[p][static_cast<std::size_t>(i) * block + j];
      }
    }
  });
  return result;
}

}  // namespace skil::apps
