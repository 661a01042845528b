// The DPFL baseline: an immutable distributed array with functional
// skeletons.
//
// This module reproduces the comparison target of the paper's
// section 5: the same skeleton set hosted in a data-parallel
// *functional* language (DPFL [7, 8], implemented by lazy graph
// reduction on the same hardware).  Mechanism differences to Skil,
// all of which the paper names:
//
//  * skeleton arguments are closures (indirect calls), not
//    instantiated/inlined functions  -> Closure<> (src/dpfl/fn.h);
//  * values live boxed in a reduction graph: every application builds
//    thunk and box nodes and every access forces/unboxes  -> charged
//    per element;
//  * arrays are immutable: "mechanisms for local accessing and
//    manipulating data ... have to be simulated in functional
//    languages", so every map/copy/permute allocates a fresh array
//    instead of filling an existing one (fa_map *returns* its result,
//    the allocation the paper's array_map deliberately avoids).
//
// The communication structure (torus rotations, tree folds and
// broadcasts) is identical to the Skil skeletons, as it was in DPFL.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "dpfl/fn.h"
#include "parix/charge_tape.h"
#include "parix/collectives.h"
#include "parix/proc.h"
#include "skil/distribution.h"
#include "skil/index.h"

namespace skil::dpfl {

using skil::Bounds;
using skil::Distribution;
using skil::Index;
using skil::RowRun;
using skil::Size;

/// Per-element price of one lazy map application beyond the closure
/// apply itself: the fresh array cell, the suspended thunk stored in
/// it, and the force that evaluates it.  Templated over the charge
/// sink (Proc or ChargeTape) -- see fn.h.
template <class Sink>
inline void charge_map_cell(Sink& sink, std::uint64_t count = 1) {
  sink.charge(parix::Op::kAlloc, 2 * count);     // array cell box + thunk
  sink.charge(parix::Op::kIndirectCall, count);  // thunk force
}

/// Boxed arithmetic: every scalar operation on boxed values is a
/// primitive application in the reduction graph -- an indirect
/// dispatch plus a result box on top of the arithmetic itself.
/// Application kernels charge their flops through this.
template <class Sink>
inline void charge_boxed_arith(Sink& sink, std::uint64_t flops,
                               bool floating = true) {
  sink.charge(floating ? parix::Op::kFloatOp : parix::Op::kIntOp, flops);
  sink.charge(parix::Op::kIndirectCall, flops);
  sink.charge(parix::Op::kAlloc, 2 * flops);  // argument box + result box
}

/// Cost-model op kind for T (mirrors skil::op_kind).
template <class T>
constexpr parix::Op op_kind() {
  return std::is_floating_point_v<T> ? parix::Op::kFloatOp
                                     : parix::Op::kIntOp;
}

/// Immutable distributed array; copying an FArray shares the
/// partition (functional values are persistent).
template <class T>
class FArray {
 public:
  FArray() = default;
  FArray(parix::Proc& proc, std::shared_ptr<const Distribution> dist,
         std::vector<T> local)
      : proc_(&proc), dist_(std::move(dist)),
        local_(std::make_shared<const std::vector<T>>(std::move(local))) {
    // Same partition-geometry cache as skil::DistArray: locality and
    // offsets of block layouts resolve from these fields instead of
    // calling into the Distribution per element.
    my_vrank_ = dist_->topology().vrank_of(proc.id());
    dims_ = dist_->dims();
    data_ = local_->data();
    block_ = dist_->layout() == skil::Layout::kBlock;
    if (block_) {
      bounds_ = dist_->partition_bounds(my_vrank_);
      row0_ = bounds_.lower[0];
      col0_ = dims_ >= 2 ? bounds_.lower[1] : 0;
      width_ = dims_ >= 2 ? bounds_.extent(1) : 1;
    }
  }

  bool valid() const { return dist_ != nullptr; }
  parix::Proc& proc() const { return *proc_; }
  const Distribution& dist() const { return *dist_; }
  std::shared_ptr<const Distribution> dist_ptr() const { return dist_; }
  const parix::Topology& topology() const { return dist_->topology(); }
  int my_vrank() const { return my_vrank_; }
  Bounds part_bounds() const {
    if (block_) return bounds_;
    return dist_->partition_bounds(my_vrank_);
  }
  const std::vector<T>& local() const { return *local_; }
  const std::vector<RowRun>& my_runs() const {
    return dist_->local_runs(my_vrank_);
  }

  /// Boxed local element access: a selector application that forces
  /// the graph node and allocates the returned box.
  T get_elem(const Index& ix) const {
    if (block_ && bounds_.contains(ix, dims_)) [[likely]] {
      charge_get_elem();
      const int col = dims_ >= 2 ? ix[1] : 0;
      return data_[static_cast<std::size_t>(
          static_cast<long>(ix[0] - row0_) * width_ + (col - col0_))];
    }
    SKIL_REQUIRE(dist_->owner_vrank(ix) == my_vrank_,
                 "fa_get_elem: element is not local");
    charge_get_elem();
    return (*local_)[dist_->local_offset(my_vrank_, ix)];
  }

  /// Appends the exact charge sequence of one get_elem to `sink`
  /// (the single source of truth: get_elem charges through this with
  /// sink = Proc, and the taped maps' tapes are recorded with it).
  template <class Sink>
  static void append_get_elem_charges(Sink& sink) {
    sink.charge(op_kind<T>());
    sink.charge(parix::Op::kIndirectCall);
    sink.charge(parix::Op::kAlloc);
    charge_unbox(sink);
  }

  /// Mutable access to the partition storage when this FArray is its
  /// *sole* owner -- nullptr whenever the partition is shared.  The
  /// fused update paths (DESIGN.md section 13) and fa_map_taped use
  /// this to implement the persistent-update optimisation: a region
  /// map over a uniquely owned array may overwrite the region in place,
  /// because no other functional value can ever observe the old cells.
  /// The vector was created mutable (the constructor's make_shared)
  /// and only typed const for sharing, so the const_cast does not
  /// touch an object defined const.
  std::vector<T>* mutable_local_if_unique() {
    if (local_ == nullptr || local_.use_count() != 1) return nullptr;
    return const_cast<std::vector<T>*>(local_.get());
  }

 private:
  void charge_get_elem() const { append_get_elem_charges(*proc_); }

  parix::Proc* proc_ = nullptr;
  std::shared_ptr<const Distribution> dist_;
  std::shared_ptr<const std::vector<T>> local_;
  // Cached partition geometry (see the constructor).  data_ aliases
  // local_->data(): the vector is immutable for the FArray's lifetime,
  // and the raw pointer spares get_elem two dependent loads.
  const T* data_ = nullptr;
  Bounds bounds_;
  int my_vrank_ = 0;
  int dims_ = 1;
  int row0_ = 0;
  int col0_ = 0;
  int width_ = 1;
  bool block_ = false;
};

/// Creates a block-distributed functional array.  `blocksize`
/// components of zero request the topology-derived default.
template <class T>
FArray<T> fa_create(parix::Proc& proc, int dim, Size size,
                    const Closure<T(Index)>& init_elem,
                    parix::Distr distr = parix::Distr::kDefault,
                    Size blocksize = Size{0, 0}) {
  auto topo = std::make_shared<const parix::Topology>(proc.machine(), distr);
  auto dist = std::make_shared<const Distribution>(
      Distribution::block(std::move(topo), dim, size, blocksize));
  const parix::TraceSpan span(proc, "fa_create");
  const int vrank = dist->topology().vrank_of(proc.id());
  std::vector<T> local(static_cast<std::size_t>(dist->local_count(vrank)));
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : dist->local_runs(vrank))
    for (int c = 0; c < run.col_count; ++c) {
      local[offset++] =
          init_elem.apply_uncharged(Index{run.row, run.col_begin + c});
      ++elems;
    }
  charge_apply(proc, elems);
  charge_map_cell(proc, elems);
  proc.charge(op_kind<T>(), elems);
  return FArray<T>(proc, std::move(dist), std::move(local));
}

/// Functional map: *returns a fresh array* (immutability forbids the
/// in-place fill Skil's array_map performs).
template <class T2, class T1>
FArray<T2> fa_map(const Closure<T2(T1, Index)>& map_f, const FArray<T1>& a) {
  SKIL_REQUIRE(a.valid(), "fa_map: invalid array");
  parix::Proc& proc = a.proc();
  const parix::TraceSpan span(proc, "fa_map");
  const auto& src = a.local();
  // reserve + push_back: every element is written exactly once, so the
  // value-initialising vector(n) constructor would zero megabytes per
  // step for nothing.
  std::vector<T2> fresh;
  fresh.reserve(src.size());
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : a.my_runs())
    for (int c = 0; c < run.col_count; ++c) {
      fresh.push_back(map_f.apply_uncharged(
          src[offset], Index{run.row, run.col_begin + c}));
      ++offset;
      ++elems;
    }
  charge_apply(proc, elems);
  charge_map_cell(proc, elems);
  proc.charge(op_kind<T2>(), elems);
  return FArray<T2>(proc, a.dist_ptr(), std::move(fresh));
}

/// Tape-specialized fa_map over a row kernel, with the contract of
/// array_map_taped (skeleton_map.h): `row_f(row, col_begin, src, dst,
/// count)` maps one row run from `a`'s partition into the fresh one and
/// returns its tapped count; the loop replays the tape once for the
/// sum before booking fa_map's bulk tail charges.  Chain-identical to
/// fa_map with a closure whose active elements all charge `tape`'s
/// sequence (DESIGN.md section 8).  T2 is the element type of the
/// result: `fa_map_taped<double>(row_f, tape, a)`.
///
/// As with array_map_taped, hoist the tape out of repeated-map loops:
/// its stable identity keys the cross-replay settlement memo
/// (DESIGN.md section 12), turning every replay after the first into
/// a cached closed-form walk.  gauss_dpfl's elimination tapes are the
/// canonical example -- built once, replayed every step.
///
/// Handed the last handle to its partition (`std::move(a)`), a
/// same-typed map runs the kernel in place (src == dst, which the
/// row-run contract allows) and returns `a`: no other functional value
/// can observe the old cells, the same reasoning as the fused paths'
/// mutable_local_if_unique.  Both branches book the same charges.
template <class T2, class T1, class RowF>
FArray<T2> fa_map_taped(RowF&& row_f, const parix::ChargeTape& tape,
                        FArray<T1> a) {
  SKIL_REQUIRE(a.valid(), "fa_map: invalid array");
  parix::Proc& proc = a.proc();
  const parix::TraceSpan span(proc, "fa_map");
  std::vector<T2>* mine = nullptr;
  if constexpr (std::is_same_v<T1, T2>) mine = a.mutable_local_if_unique();
  std::vector<T2> fresh;
  if (mine == nullptr) fresh.resize(a.local().size());
  const T1* src = a.local().data();
  T2* dst = mine != nullptr ? mine->data() : fresh.data();
  std::uint64_t elems = 0;
  std::uint64_t tapped = 0;
  for (const RowRun& run : a.my_runs()) {
    tapped += row_f(run.row, run.col_begin, src + elems, dst + elems,
                    run.col_count);
    elems += static_cast<std::uint64_t>(run.col_count);
  }
  proc.replay(tape, tapped);
  // Tail charges ride the deferred ledger too: booking them eagerly
  // would settle the just-deferred replay on the spot and collapse the
  // deferral window to nothing.
  parix::DeferredCharges deferred(proc);
  charge_apply(deferred, elems);
  charge_map_cell(deferred, elems);
  deferred.charge(op_kind<T2>(), elems);
  if constexpr (std::is_same_v<T1, T2>) {
    if (mine != nullptr) return a;
  }
  return FArray<T2>(proc, a.dist_ptr(), std::move(fresh));
}

/// Functional fold: conversion + local fold + tree fold + broadcast.
template <class T2, class T1>
T2 fa_fold(const Closure<T2(T1, Index)>& conv_f,
           const Closure<T2(T2, T2)>& fold_f, const FArray<T1>& a) {
  SKIL_REQUIRE(a.valid(), "fa_fold: invalid array");
  parix::Proc& proc = a.proc();
  const parix::TraceSpan span(proc, "fa_fold");
  const auto& src = a.local();
  std::optional<T2> acc;
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : a.my_runs())
    for (int c = 0; c < run.col_count; ++c) {
      T2 converted = conv_f.apply_uncharged(
          src[offset], Index{run.row, run.col_begin + c});
      acc = acc.has_value()
                ? fold_f.apply_uncharged(std::move(*acc), std::move(converted))
                : std::move(converted);
      ++offset;
      ++elems;
    }
  charge_apply(proc, 2 * elems);
  charge_map_cell(proc, elems);
  proc.charge(op_kind<T1>(), elems);

  auto merge = [&](std::optional<T2> lhs,
                   std::optional<T2> rhs) -> std::optional<T2> {
    if (!lhs.has_value()) return rhs;
    if (!rhs.has_value()) return lhs;
    charge_apply(proc);
    return fold_f.apply_uncharged(std::move(*lhs), std::move(*rhs));
  };
  std::optional<T2> result =
      parix::allreduce(proc, a.topology(), std::move(acc), merge);
  SKIL_REQUIRE(result.has_value(), "fa_fold: array has no elements");
  return *result;
}

/// Functional broadcast-partition: a fresh array whose every partition
/// is the one containing `ix`.
template <class T>
FArray<T> fa_broadcast_part(const FArray<T>& a, Index ix) {
  SKIL_REQUIRE(a.valid(), "fa_broadcast_part: invalid array");
  SKIL_REQUIRE(a.dist().uniform_partitions(),
               "fa_broadcast_part: partitions must have equal size");
  parix::Proc& proc = a.proc();
  const parix::TraceSpan span(proc, "fa_broadcast_part");
  const int root_hw = a.dist().owner_hw(ix);
  std::vector<T> part;
  if (proc.id() == root_hw) part = a.local();
  parix::broadcast(proc, a.topology(), root_hw, part);
  const std::uint64_t cells = part.size();
  proc.charge(parix::Op::kAlloc, cells);  // fresh boxed cells
  proc.charge(parix::Op::kCopyWord,
              cells * sizeof(T) / sizeof(long) + 1);
  return FArray<T>(proc, a.dist_ptr(), std::move(part));
}

/// Functional row permutation: returns the permuted array.  Same
/// message pattern as the Skil skeleton.
template <class T>
FArray<T> fa_permute_rows(const FArray<T>& a,
                          const Closure<int(int)>& perm_f) {
  SKIL_REQUIRE(a.valid(), "fa_permute_rows: invalid array");
  SKIL_REQUIRE(a.dist().dims() == 2 &&
                   a.dist().layout() == skil::Layout::kBlock,
               "fa_permute_rows needs a 2-D block-distributed array");
  parix::Proc& proc = a.proc();
  const parix::TraceSpan span(proc, "fa_permute_rows");
  const Distribution& dist = a.dist();
  const parix::Topology& topo = a.topology();
  const int n = dist.global_rows();
  const int p = topo.nprocs();
  const int my_vrank = a.my_vrank();

  std::vector<int> inverse(n, -1);
  for (int row = 0; row < n; ++row) {
    const int target = perm_f.apply_uncharged(row);
    SKIL_REQUIRE(target >= 0 && target < n && inverse[target] < 0,
                 "fa_permute_rows: perm_f is not a bijection");
    inverse[target] = row;
  }
  charge_apply(proc, static_cast<std::uint64_t>(n));

  const long tag = proc.fresh_tag();
  const auto& src = a.local();
  std::vector<T> fresh(src.size());

  struct Batch {
    std::vector<int> rows;
    std::vector<T> data;
  };
  std::vector<Batch> outgoing(p);
  std::size_t offset = 0;
  for (const RowRun& run : a.my_runs()) {
    const int target = perm_f.apply_uncharged(run.row);
    const int dest = dist.owner_vrank(Index{target, run.col_begin});
    outgoing[dest].rows.push_back(target);
    outgoing[dest].data.insert(outgoing[dest].data.end(),
                               src.begin() + offset,
                               src.begin() + offset + run.col_count);
    offset += run.col_count;
  }
  charge_apply(proc, a.my_runs().size());

  const Bounds bounds = a.part_bounds();
  const int width = bounds.extent(1);
  auto deposit = [&](const Batch& batch) {
    std::size_t data_offset = 0;
    for (int row : batch.rows) {
      const long at = dist.local_offset(my_vrank, Index{row, bounds.lower[1]});
      std::copy(batch.data.begin() + data_offset,
                batch.data.begin() + data_offset + width, fresh.begin() + at);
      data_offset += width;
    }
  };

  for (int dest = 0; dest < p; ++dest) {
    if (dest == my_vrank || outgoing[dest].rows.empty()) continue;
    proc.send<std::vector<int>>(topo.hw_of(dest), tag, outgoing[dest].rows);
    proc.send<std::vector<T>>(topo.hw_of(dest), tag + 1,
                              std::move(outgoing[dest].data));
  }
  deposit(outgoing[my_vrank]);
  std::vector<bool> expecting(p, false);
  for (int row = bounds.lower[0]; row < bounds.upper[0]; ++row) {
    const int source =
        dist.owner_vrank(Index{inverse[row], bounds.lower[1]});
    if (source != my_vrank) expecting[source] = true;
  }
  for (int source = 0; source < p; ++source) {
    if (!expecting[source]) continue;
    Batch batch;
    batch.rows = proc.recv<std::vector<int>>(topo.hw_of(source), tag);
    batch.data = proc.recv<std::vector<T>>(topo.hw_of(source), tag + 1);
    deposit(batch);
  }
  proc.charge(parix::Op::kAlloc, fresh.size());
  proc.charge(parix::Op::kCopyWord, fresh.size() * sizeof(T) / sizeof(long));
  return FArray<T>(proc, a.dist_ptr(), std::move(fresh));
}

namespace detail {

/// Shared core of fa_gen_mult and fa_gen_mult_taped, templated over
/// the combine functors.  The charges are already bulk (per round, not
/// per element), so both paths book the identical sequence; the taped
/// entry point only swaps the per-element closure dispatch for fully
/// inlined functors.
template <class T, class AddF, class MultF>
FArray<T> fa_gen_mult_impl(const FArray<T>& a, const FArray<T>& b,
                           AddF&& gen_add, MultF&& gen_mult) {
  SKIL_REQUIRE(a.valid() && b.valid(), "fa_gen_mult: invalid array");
  const Distribution& dist = a.dist();
  const parix::Topology& topo = a.topology();
  SKIL_REQUIRE(topo.kind() == parix::Distr::kTorus2D &&
                   topo.grid_rows() == topo.grid_cols(),
               "fa_gen_mult needs a square DISTR_TORUS2D grid");
  const int n = dist.global_rows();
  const int q = topo.grid_rows();
  SKIL_REQUIRE(n % q == 0, "fa_gen_mult: q must divide n");
  const int block = n / q;
  parix::Proc& proc = a.proc();
  const parix::TraceSpan span(proc, "fa_gen_mult");
  const int my_row = topo.grid_row(proc.id());
  const int my_col = topo.grid_col(proc.id());

  auto rotate = [&](std::vector<T> payload, int drow, int dcol) {
    const long tag = proc.fresh_tag();
    const int dst = topo.at_grid(topo.grid_row(proc.id()) + drow,
                                 topo.grid_col(proc.id()) + dcol);
    const int src = topo.at_grid(topo.grid_row(proc.id()) - drow,
                                 topo.grid_col(proc.id()) - dcol);
    if (dst == proc.id()) return payload;
    proc.send<std::vector<T>>(dst, tag, std::move(payload));
    return proc.recv<std::vector<T>>(src, tag);
  };

  // The skewed blocks are wrapped once and then circulate the torus as
  // shared immutable buffers: a round sends the block the multiply loop
  // reads and keeps the one it receives, so the host copies and
  // allocates nothing per round; the last reader frees a buffer.
  std::shared_ptr<const std::vector<T>> a_buf =
      std::make_shared<const std::vector<T>>(rotate(a.local(), 0, -my_row));
  std::shared_ptr<const std::vector<T>> b_buf =
      std::make_shared<const std::vector<T>>(rotate(b.local(), -my_col, 0));

  const int a_dst = topo.torus_neighbor(proc.id(), 0, -1);
  const int a_src = topo.torus_neighbor(proc.id(), 0, +1);
  const int b_dst = topo.torus_neighbor(proc.id(), -1, 0);
  const int b_src = topo.torus_neighbor(proc.id(), +1, 0);
  const bool rotating = a_dst != proc.id() || b_dst != proc.id();

  // Column tile sized to keep the walked c/b rows resident in cache
  // across the k loop.  Per (i, j) cell the k order is unchanged, so
  // every boxed combine sequence -- and thus every FP rounding -- is
  // identical to the untiled loop.
  constexpr int kTileCols = 64;

  std::vector<T> c_block(static_cast<std::size_t>(block) * block);
  for (int round = 0; round < q; ++round) {
    const parix::TraceSpan round_span(proc, "gen_mult round", round);
    // The DPFL skeleton uses the same asynchronous overlap as Skil's
    // (both run on the same Parix communication layer).
    const long tag = proc.fresh_tag();
    if (rotating) {
      proc.send_buffer(a_dst, tag, a_buf, parix::SendMode::kAsync);
      proc.send_buffer(b_dst, tag + 1, b_buf, parix::SendMode::kAsync);
    }
    const std::vector<T>& a_block = *a_buf;
    const std::vector<T>& b_block = *b_buf;
    for (int j0 = 0; j0 < block; j0 += kTileCols) {
      const int j1 = std::min(j0 + kTileCols, block);
      for (int i = 0; i < block; ++i) {
        T* crow = &c_block[static_cast<std::size_t>(i) * block];
        for (int k = 0; k < block; ++k) {
          const T& aik = a_block[static_cast<std::size_t>(i) * block + k];
          const T* brow = &b_block[static_cast<std::size_t>(k) * block];
          if (round == 0 && k == 0) {
            for (int j = j0; j < j1; ++j) crow[j] = gen_mult(aik, brow[j]);
          } else {
            for (int j = j0; j < j1; ++j)
              crow[j] = gen_add(crow[j], gen_mult(aik, brow[j]));
          }
        }
      }
    }
    const std::uint64_t fused = static_cast<std::uint64_t>(block) * block *
                                block;
    charge_apply(proc, 2 * fused);
    proc.charge(op_kind<T>(), 2 * fused);
    // Persistent accumulation: the round's result array is a fresh
    // structure in the reduction graph.  Under fusion the q-round
    // chain deforests -- every intermediate round result provably has
    // no other observer, so only the first round's structure is built
    // (which is what the host loop above does anyway) and the q-1
    // rebuild allocations disappear from the chain (DESIGN.md
    // section 13).
    if (round == 0 || !proc.fusing())
      proc.charge(parix::Op::kAlloc, c_block.size());
    if (rotating) {
      a_buf = proc.recv_buffer<std::vector<T>>(a_src, tag);
      b_buf = proc.recv_buffer<std::vector<T>>(b_src, tag + 1);
    }
  }

  if (proc.fusing())
    proc.fusion().note_fused(/*barriers=*/0,
                             /*tapes=*/static_cast<std::uint64_t>(q - 1));

  return FArray<T>(proc, a.dist_ptr(), std::move(c_block));
}

}  // namespace detail

/// Functional Gentleman multiplication: same torus rotations as the
/// Skil skeleton, but every round combines through closures on boxed
/// values and the accumulator array is rebuilt persistently per round.
template <class T>
FArray<T> fa_gen_mult(const FArray<T>& a, const FArray<T>& b,
                      const Closure<T(T, T)>& gen_add,
                      const Closure<T(T, T)>& gen_mult) {
  return detail::fa_gen_mult_impl(
      a, b,
      [&](T x, T y) { return gen_add.apply_uncharged(x, y); },
      [&](T x, T y) { return gen_mult.apply_uncharged(x, y); });
}

/// Tape-path fa_gen_mult: the same rounds and the same bulk charges,
/// with the combines supplied as plain functors that inline into the
/// block-multiply loop (callers still construct their Closures so the
/// closure-record allocations charge identically).
template <class T, class AddF, class MultF>
FArray<T> fa_gen_mult_taped(const FArray<T>& a, const FArray<T>& b,
                            AddF&& gen_add, MultF&& gen_mult) {
  return detail::fa_gen_mult_impl(a, b, std::forward<AddF>(gen_add),
                                  std::forward<MultF>(gen_mult));
}

namespace detail {

template <class T>
std::vector<T> fa_assemble(const Distribution& dist,
                           const std::vector<std::vector<T>>& parts) {
  std::vector<T> global(static_cast<std::size_t>(dist.global_rows()) *
                        dist.global_cols());
  for (int vrank = 0; vrank < dist.nprocs(); ++vrank) {
    std::size_t offset = 0;
    for (const RowRun& run : dist.local_runs(vrank)) {
      const std::size_t base =
          static_cast<std::size_t>(run.row) * dist.global_cols() +
          run.col_begin;
      for (int c = 0; c < run.col_count; ++c)
        global[base + c] = parts[vrank][offset++];
    }
  }
  return global;
}

}  // namespace detail

/// Gathers the global contents on processor 0 (result extraction).
template <class T>
std::vector<T> fa_gather_root(const FArray<T>& a) {
  SKIL_REQUIRE(a.valid(), "fa_gather_root: invalid array");
  parix::Proc& proc = a.proc();
  const parix::TraceSpan span(proc, "fa_gather_root");
  std::vector<std::vector<T>> parts =
      parix::gather(proc, a.topology(), /*root_hw=*/0, a.local());
  if (proc.id() != 0) return {};
  return detail::fa_assemble(a.dist(), parts);
}

/// Gathers the global contents on every processor.
template <class T>
std::vector<T> fa_gather_all(const FArray<T>& a) {
  SKIL_REQUIRE(a.valid(), "fa_gather_all: invalid array");
  parix::Proc& proc = a.proc();
  const parix::TraceSpan span(proc, "fa_gather_all");
  std::vector<std::vector<T>> parts =
      parix::allgather(proc, a.topology(), a.local());
  return detail::fa_assemble(a.dist(), parts);
}

}  // namespace skil::dpfl
