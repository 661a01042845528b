// array_gen_mult (paper section 3): generic matrix multiplication.
//
//   void array_gen_mult(array <$t> a, array <$t> b,
//                       $t gen_add($t, $t), $t gen_mult($t, $t),
//                       array <$t> c);
//
// Composes two 2-dimensional arrays "using the pattern of matrix
// multiplication": c(i,j) = fold_{gen_add} over k of
// gen_mult(a(i,k), b(k,j)), additionally folded with c's initial
// element (so the caller creates c with the fold's identity -- the
// paper's shortest-paths program initialises c with the maximal
// integer, the identity of min).
//
// The implementation is Gentleman's distributed algorithm, exactly as
// the paper describes: the arrays live block-wise on a 2-D torus of
// q x q processors; after an initial skew (block row i of `a` rotates
// i positions left, block column j of `b` rotates j positions up),
// q rounds alternate a local generalized block multiplication with a
// one-step horizontal rotation of `a` and vertical rotation of `b`.
// After q rounds the blocks are back at their skewed position and an
// unskew restores the original placement, leaving `a` and `b` intact.
//
// "We impose the condition that the matrices a, b and c are distinct"
// -- aliased arguments raise ContractError.
#pragma once

#include <algorithm>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "parix/buffer_pool.h"
#include "parix/charge_tape.h"
#include "parix/collectives.h"
#include "parix/proc.h"
#include "skil/dist_array.h"

namespace skil {

namespace detail {

/// Rotates `payload` by `steps` positions towards lower column indices
/// (dcol = -1) or lower row indices (drow = -1) on the torus in one
/// direct message (the skew/unskew step).
template <class T>
std::vector<T> torus_rotate_by(parix::Proc& proc, const parix::Topology& topo,
                               std::vector<T> payload, int drow, int dcol) {
  const long tag = proc.fresh_tag();
  const int row = topo.grid_row(proc.id());
  const int col = topo.grid_col(proc.id());
  const int dst = topo.at_grid(row + drow, col + dcol);
  const int src = topo.at_grid(row - drow, col - dcol);
  if (dst == proc.id()) return payload;
  proc.send<std::vector<T>>(dst, tag, std::move(payload));
  return proc.recv<std::vector<T>>(src, tag);
}

/// Validates the geometry shared by array_gen_mult and its fused
/// variants, returning the block side.  `a` and `b` may alias in the
/// squaring composition; `c` must always be distinct.
template <class T>
int gen_mult_geometry(const DistArray<T>& a, const DistArray<T>& b,
                      const DistArray<T>& c) {
  SKIL_REQUIRE(a.valid() && b.valid() && c.valid(),
               "array_gen_mult: invalid array");
  SKIL_REQUIRE(&a.local() != &c.local() && &b.local() != &c.local(),
               "array_gen_mult: the result array must be distinct");
  const Distribution& dist = a.dist();
  SKIL_REQUIRE(dist.dims() == 2 && dist.layout() == Layout::kBlock,
               "array_gen_mult needs 2-D block-distributed arrays");
  SKIL_REQUIRE(dist.same_placement(b.dist()) && dist.same_placement(c.dist()),
               "array_gen_mult: arrays must share one distribution");
  const parix::Topology& topo = a.topology();
  SKIL_REQUIRE(topo.kind() == parix::Distr::kTorus2D,
               "array_gen_mult: arrays must be mapped onto DISTR_TORUS2D");
  const int q_rows = topo.grid_rows();
  const int q_cols = topo.grid_cols();
  SKIL_REQUIRE(q_rows == q_cols,
               "array_gen_mult needs a square processor grid (run with a "
               "square processor count)");
  SKIL_REQUIRE(dist.block_grid_matches(topo),
               "array_gen_mult: block grid must match the processor grid");
  const int n = dist.global_rows();
  SKIL_REQUIRE(n == dist.global_cols(),
               "array_gen_mult: arrays must be square");
  SKIL_REQUIRE(n % q_rows == 0,
               "array_gen_mult: the matrix size must be divisible by the "
               "processor grid side (the paper rounds n up accordingly)");
  return n / q_rows;
}

/// Skew plus the q compute/rotate rounds of Gentleman's algorithm over
/// already-built working blocks, accumulating into `c_block`.  On
/// return the operand blocks sit at their skewed start position (the q
/// single-step rotations wrap around); the caller either unskews and
/// writes them back (array_gen_mult, which leaves `a` and `b` intact)
/// or drops them (the fused variants -- the restoring movement is
/// value-free, so eliding it cannot change any array).  The charge
/// sequence from the first skew message onward is byte-identical
/// between all callers.
template <class T, class Add, class Mult>
std::pair<std::vector<T>, std::vector<T>> gen_mult_rounds(
    parix::Proc& proc, const parix::Topology& topo, int block,
    std::vector<T> a_block, std::vector<T> b_block, std::vector<T>& c_block,
    Add& gen_add, Mult& gen_mult) {
  const int q = topo.grid_rows();
  const int my_row = topo.grid_row(proc.id());
  const int my_col = topo.grid_col(proc.id());
  const std::uint64_t block_words =
      (a_block.size() * sizeof(T)) / sizeof(long) + 1;

  // Skew: block row i of A moves i positions left; block column j of B
  // moves j positions up (single direct messages).
  a_block = detail::torus_rotate_by(proc, topo, std::move(a_block), 0, -my_row);
  b_block = detail::torus_rotate_by(proc, topo, std::move(b_block), -my_col, 0);

  // The rotation payloads travel as shared zero-copy buffers: each
  // round's send references the tiles the multiply loop reads, so the
  // host copies nothing per round.  The *modeled* T800 still paid a
  // send-buffer copy per rotation, so the kCopyWord charge below
  // stays -- eliminating the host copy must not move the virtual
  // clock.  The process-wide pool recycles vector nodes drained by
  // the receiver, and keeps them warm across sweep cells.
  parix::BufferPool<T>& pool = parix::process_buffer_pool<T>();
  std::shared_ptr<const std::vector<T>> a_buf = pool.share(std::move(a_block));
  std::shared_ptr<const std::vector<T>> b_buf = pool.share(std::move(b_block));

  const int a_dst = topo.torus_neighbor(proc.id(), 0, -1);
  const int a_src = topo.torus_neighbor(proc.id(), 0, +1);
  const int b_dst = topo.torus_neighbor(proc.id(), -1, 0);
  const int b_src = topo.torus_neighbor(proc.id(), +1, 0);
  const bool rotating = a_dst != proc.id() || b_dst != proc.id();

  // Column tile sized to keep the c and b rows walked by the k loop
  // resident in cache.  Per (i, j) cell the k order is untouched, so
  // each gen_add fold happens in exactly the original order and the
  // result (FP rounding included) is bit-identical to the naive loop.
  constexpr int kTileCols = 64;

  // Every round books the same three bulk charges; the tape path
  // records them once and replays the tape per round.  No virtual-time
  // event separates the interp path's pre-compute kCopyWord charge
  // from its post-compute charges (the compute loop charges nothing),
  // so replaying all three after the compute walks the identical
  // dependent FP-add chain (DESIGN.md section 8).  Recorded once
  // before the round loop, the tape also keeps one identity across
  // all q replays, so rounds past the first settle off the memoized
  // period delta instead of re-probing (DESIGN.md section 12).
  const std::uint64_t fused = static_cast<std::uint64_t>(block) * block * block;
  const bool taped = parix::default_charge_path() == parix::ChargePath::kTape;
  parix::ChargeTape round_tape;
  if (taped) {
    if (rotating)
      round_tape.charge_elems(parix::Op::kCopyWord, block_words, 2);
    round_tape.charge_elems(parix::Op::kCall, fused, 2);
    round_tape.charge_elems(op_kind<T>(), fused, 2);
  }

  for (int round = 0; round < q; ++round) {
    const parix::TraceSpan round_span(proc, "gen_mult round", round);
    // Asynchronous overlap (the optimization Table 1's footnote
    // credits the skeleton implementation with): post this round's
    // rotations *before* the local multiplication, so the transfers
    // proceed while the processor computes.
    const long tag = proc.fresh_tag();
    if (rotating) {
      proc.send_buffer(a_dst, tag, a_buf, parix::SendMode::kAsync);
      proc.send_buffer(b_dst, tag + 1, b_buf, parix::SendMode::kAsync);
      if (!taped) proc.charge_elems(parix::Op::kCopyWord, block_words, 2);
    }

    // Local generalized multiply-accumulate of the (block x block)
    // tiles currently resident: c += A_tile (*) B_tile under
    // (gen_add, gen_mult).  The accumulation includes c's previous
    // content, so round 0 folds in c's initial elements.
    const std::vector<T>& a_tile = *a_buf;
    const std::vector<T>& b_tile = *b_buf;
    for (int j0 = 0; j0 < block; j0 += kTileCols) {
      const int j1 = std::min(j0 + kTileCols, block);
      for (int i = 0; i < block; ++i) {
        T* crow = &c_block[static_cast<std::size_t>(i) * block];
        for (int k = 0; k < block; ++k) {
          const T& aik = a_tile[static_cast<std::size_t>(i) * block + k];
          const T* brow = &b_tile[static_cast<std::size_t>(k) * block];
          for (int j = j0; j < j1; ++j)
            crow[j] = gen_add(crow[j], gen_mult(aik, brow[j]));
        }
      }
    }
    // Charge the round's arithmetic before receiving, so the virtual
    // receive time reflects the computation that overlapped it: two
    // functional-argument calls and two element operations per fused
    // multiply-add, as the instantiated Skil code would execute.
    if (taped) {
      proc.replay(round_tape, 1);
    } else {
      proc.charge_elems(parix::Op::kCall, fused, 2);
      proc.charge_elems(op_kind<T>(), fused, 2);
    }

    // Complete the rotation (also after the last round: q single-step
    // rotations return the blocks to their skewed start, which the
    // unskew below undoes).
    if (rotating) {
      a_buf = pool.share(proc.recv<std::vector<T>>(a_src, tag));
      b_buf = pool.share(proc.recv<std::vector<T>>(b_src, tag + 1));
    }
  }

  return {parix::take_buffer(std::move(a_buf)),
          parix::take_buffer(std::move(b_buf))};
}

}  // namespace detail

/// Generic Gentleman matrix multiplication; see the header comment.
template <class T, class Add, class Mult>
void array_gen_mult(DistArray<T>& a, DistArray<T>& b, Add gen_add,
                    Mult gen_mult, DistArray<T>& c) {
  SKIL_REQUIRE(&a.local() != &b.local(),
               "array_gen_mult: the arrays a, b and c must be distinct");
  const int block = detail::gen_mult_geometry(a, b, c);
  const parix::Topology& topo = a.topology();
  parix::Proc& proc = a.proc();
  const parix::TraceSpan span(proc, "array_gen_mult");
  const int my_row = topo.grid_row(proc.id());
  const int my_col = topo.grid_col(proc.id());

  // Working copies keep `a` and `b` intact even if a functional
  // argument throws mid-round.
  std::vector<T> a_block = a.local();
  std::vector<T> b_block = b.local();
  const std::uint64_t block_words =
      (a_block.size() * sizeof(T)) / sizeof(long) + 1;
  proc.charge(parix::Op::kCopyWord, 2 * block_words);

  auto [a_done, b_done] =
      detail::gen_mult_rounds(proc, topo, block, std::move(a_block),
                              std::move(b_block), c.local(), gen_add,
                              gen_mult);

  if (proc.fusing()) {
    // The unskew only restores the operands' physical placement: the
    // returned blocks hold bitwise the values `a` and `b` already
    // hold (the rounds wrapped them back to the skewed start, and the
    // caller's arrays were never modified).  Under fusion the
    // restoring rotation is elided -- one communication round fewer,
    // with no observable difference in any array.
    proc.fusion().note_fused(/*barriers=*/1, /*tapes=*/0);
    return;
  }
  if (proc.fuse_mode() == parix::FuseMode::kOn)
    proc.fusion().note_rejected(parix::FusionReject::kPath);

  // Unskew (restores the caller's a and b placements).
  a_done = detail::torus_rotate_by(proc, topo, std::move(a_done), 0, my_row);
  b_done = detail::torus_rotate_by(proc, topo, std::move(b_done), my_col, 0);
  a.local() = std::move(a_done);
  b.local() = std::move(b_done);
}

/// Fused matrix squaring (DESIGN.md section 13): the composition
///
///   array_copy(a, scratch);
///   array_gen_mult(a, scratch, gen_add, gen_mult, c);
///   array_copy(c, a);
///
/// collapsed into one skeleton call.  Under Proc::fusing() the operand
/// copy is elided (both working blocks are built straight from `a`),
/// the restoring unskew rotation is elided (the blocks it would move
/// carry no information -- `a` was never modified), and the trailing
/// result copy becomes a handle swap performed by the caller.
///
/// Contract (customizing-function requirement, in the spirit of
/// array_fold's commutativity clause): `gen_add` must be an exact
/// idempotent selection (integral min/max style) and `c`'s incoming
/// elements must be dominated by -- fold to the same result as -- the
/// identity the unfused composition would have left there.  Shortest
/// paths qualifies: distances only shrink, so a previous iterate in
/// `c` folds away under min exactly like kDistInf.  Non-integral
/// element types are rejected (kOrder): floating-point selection can
/// move bits through signed zeros and NaN payloads.
///
/// After the call `c` holds the product and `a` is untouched; the
/// caller swaps the handles to complete the composition.  Returns
/// true when the fused path ran (false: the unfused sequence ran and
/// `a` already holds the result).
template <class T, class Add, class Mult>
bool array_gen_mult_squared(DistArray<T>& a, Add gen_add, Mult gen_mult,
                            DistArray<T>& c, DistArray<T>& scratch) {
  parix::Proc& proc = a.proc();
  const bool fuse_on = proc.fuse_mode() == parix::FuseMode::kOn;
  if (!proc.fusing() || !std::is_integral_v<T>) {
    if (fuse_on) {
      if (proc.fusing())
        proc.fusion().note_rejected(parix::FusionReject::kOrder);
      else
        proc.fusion().note_rejected(parix::FusionReject::kPath);
    }
    array_copy(a, scratch);
    array_gen_mult(a, scratch, gen_add, gen_mult, c);
    array_copy(c, a);
    return false;
  }
  const int block = detail::gen_mult_geometry(a, a, c);
  const parix::Topology& topo = a.topology();
  const parix::TraceSpan span(proc, "fused gen_mult squared");

  // Both working blocks read straight from `a`; the modeled machine
  // still builds two operand buffers, so the two working-copy charges
  // stay.  What disappears is the full-array copy skeleton that fed
  // `scratch` and the result copy back into `a`.
  std::vector<T> a_block = a.local();
  std::vector<T> b_block = a.local();
  const std::uint64_t block_words =
      (a_block.size() * sizeof(T)) / sizeof(long) + 1;
  proc.charge(parix::Op::kCopyWord, 2 * block_words);

  detail::gen_mult_rounds(proc, topo, block, std::move(a_block),
                          std::move(b_block), c.local(), gen_add, gen_mult);
  proc.fusion().note_fused(/*barriers=*/1, /*tapes=*/2);
  return true;
}

}  // namespace skil
