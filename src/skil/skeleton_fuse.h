// Lazy skeleton composition and fused execution (DESIGN.md section 13).
//
// A skeleton call chain like "map f, then map g over the result" pays
// two passes over the partition, two charge tails, and -- for folds
// and scans -- two collective rounds, even though the composition is
// one loop.  This header makes the composition *lazy*: stage objects
// (fuse::map, fuse::fold, fuse::scan) combine with operator| into a
// lightweight expression, and force() decides at the last moment how
// to run it:
//
//  * Proc::fusing() false (SKIL_FUSE=off, the default, or the
//    interpretive charge path): the expression executes literally as
//    today's back-to-back skeleton calls -- bit-identical virtual
//    times AND results to writing the calls out by hand.
//  * Proc::fusing() true: one fused pass with one charge tail; for
//    scan|fold the trailing allreduce disappears entirely (the scan's
//    allgathered partials already determine the total).  Array results
//    stay bit-identical -- the per-element composition and every fold
//    combine happen in the same order as unfused -- while virtual
//    times drop, which is the paper's cost model rewarding fewer
//    passes and synchronizations.
//
// Fusibility rules (after Kannan & Hamilton's list-skeleton
// transformations):
//   map f | map g        = map (g . f)           -- always safe
//   map f | fold(c, op)  = fold(c . f, op)       -- always safe
//   scan(c, op) | total  = scan + local fold of the allgathered
//                          partials               -- safe iff op is
//                          order-exact (integral domain): the unfused
//                          fold merges along the allreduce tree, and
//                          only exact arithmetic makes every merge
//                          order produce the same bits.  FP domains
//                          are rejected (FusionReject::kOrder) and run
//                          unfused.
#pragma once

#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "parix/charge_tape.h"
#include "parix/collectives.h"
#include "parix/proc.h"
#include "skil/dist_array.h"
#include "skil/scan.h"
#include "skil/skeleton_fold.h"
#include "skil/skeleton_map.h"

namespace skil::fuse {

// --- stages ----------------------------------------------------------------

template <class F>
struct MapStage {
  F f;
};
template <class F>
MapStage<std::decay_t<F>> map(F&& f) {
  return {std::forward<F>(f)};
}

template <class Conv, class Fold>
struct FoldStage {
  Conv conv;
  Fold fold;
};
template <class Conv, class Fold>
FoldStage<std::decay_t<Conv>, std::decay_t<Fold>> fold(Conv&& conv,
                                                       Fold&& fold_f) {
  return {std::forward<Conv>(conv), std::forward<Fold>(fold_f)};
}

template <class Conv, class Scan>
struct ScanStage {
  Conv conv;
  Scan scan;
};
template <class Conv, class Scan>
ScanStage<std::decay_t<Conv>, std::decay_t<Scan>> scan(Conv&& conv,
                                                       Scan&& scan_f) {
  return {std::forward<Conv>(conv), std::forward<Scan>(scan_f)};
}

/// Terminal stage asking a scan pipeline for the grand total (the
/// fold of all elements under the scan's combine).
struct TotalStage {};
inline TotalStage total() { return {}; }

// --- pipelines -------------------------------------------------------------

template <class F, class G>
struct MapMapExpr {
  F f;
  G g;
};
template <class F, class G>
MapMapExpr<F, G> operator|(MapStage<F> a, MapStage<G> b) {
  return {std::move(a.f), std::move(b.f)};
}

/// map | map | map chains re-associate left: ((f|g)|h) fuses into one
/// pass too.
template <class F, class G, class H>
MapMapExpr<MapMapExpr<F, G>, H> operator|(MapMapExpr<F, G> a, MapStage<H> b) {
  return {std::move(a), std::move(b.f)};
}

template <class F, class Conv, class Fold>
struct MapFoldExpr {
  F f;
  Conv conv;
  Fold fold;
};
template <class F, class Conv, class Fold>
MapFoldExpr<F, Conv, Fold> operator|(MapStage<F> a, FoldStage<Conv, Fold> b) {
  return {std::move(a.f), std::move(b.conv), std::move(b.fold)};
}

template <class Conv, class Scan>
struct ScanFoldExpr {
  Conv conv;
  Scan scan;
};
template <class Conv, class Scan>
ScanFoldExpr<Conv, Scan> operator|(ScanStage<Conv, Scan> a, TotalStage) {
  return {std::move(a.conv), std::move(a.scan)};
}

// --- forcing ---------------------------------------------------------------

namespace detail {

/// Applies a map stage, recursing through nested MapMapExpr so a
/// fused chain is one composed call per element.  A class-template
/// specialization (not an overload set) so the recursion resolves for
/// arbitrarily deep chains.
template <class F>
struct StageApplier {
  template <class T>
  static decltype(auto) apply(F& f, const T& elem, const Index& ix) {
    return skil::detail::apply_map_f(f, elem, ix);
  }
};
template <class F, class G>
struct StageApplier<MapMapExpr<F, G>> {
  template <class T>
  static decltype(auto) apply(MapMapExpr<F, G>& e, const T& elem,
                              const Index& ix) {
    return StageApplier<G>::apply(e.g, StageApplier<F>::apply(e.f, elem, ix),
                                  ix);
  }
};
template <class F, class T>
decltype(auto) apply_stage(F& f, const T& elem, const Index& ix) {
  return StageApplier<F>::apply(f, elem, ix);
}

/// Unfused execution of a (possibly nested) map chain: literally the
/// back-to-back array_map calls a hand-written program performs, with
/// the intermediate landing in `to` (in-situ for the later stages).
template <class F, class T1, class T2>
void run_unfused_maps(F& f, const DistArray<T1>& from, DistArray<T2>& to) {
  array_map(f, from, to);
}
template <class F, class G, class T1, class T2>
void run_unfused_maps(MapMapExpr<F, G>& e, const DistArray<T1>& from,
                      DistArray<T2>& to) {
  run_unfused_maps(e.f, from, to);
  array_map(e.g, to, to);
}

}  // namespace detail

/// Counts map stages in a chain type (1 for a plain functor).
template <class E>
struct MapStages {
  static constexpr std::uint64_t value = 1;
};
template <class F, class G>
struct MapStages<MapMapExpr<F, G>> {
  static constexpr std::uint64_t value =
      MapStages<F>::value + MapStages<G>::value;
};

/// Forces a map|map chain into `to`.  Unfused: the literal call
/// sequence (first map from->to, later maps in-situ on `to`).  Fused:
/// one pass applying the composed stages, one charge tail.
template <class F, class G, class T1, class T2>
void force(MapMapExpr<F, G> expr, const DistArray<T1>& from,
           DistArray<T2>& to) {
  parix::Proc& proc = from.proc();
  if (!proc.fusing()) {
    if (proc.fuse_mode() == parix::FuseMode::kOn)
      proc.fusion().note_rejected(parix::FusionReject::kPath);
    detail::run_unfused_maps(expr, from, to);
    return;
  }
  SKIL_REQUIRE(from.valid() && to.valid(), "fuse::force: invalid array");
  SKIL_REQUIRE(from.dist().same_placement(to.dist()),
               "fuse::force: source and target must share one distribution");
  const parix::TraceSpan span(proc, "fused_map");
  const auto& src = from.local();
  auto& dst = to.local();
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : from.my_runs())
    for (int c = 0; c < run.col_count; ++c) {
      dst[offset] = detail::apply_stage(expr, src[offset],
                                        Index{run.row, run.col_begin + c});
      ++offset;
      ++elems;
    }
  // One composed customizing function, so one call + one element op
  // per element -- the whole point of fusing (the eliminated stages'
  // tails are the vtime reduction).
  skil::detail::array_map_charge_tail<T2>(proc, elems);
  proc.fusion().note_fused(/*barriers=*/0,
                           /*tapes=*/MapStages<MapMapExpr<F, G>>::value - 1);
}

/// Forces a map|fold pipeline.  Unfused: map into `scratch`, then
/// fold scratch -- the literal call sequence, scratch holding the
/// materialized intermediate.  Fused: one fold pass with the
/// conversion composed over the map stage; `scratch` is untouched.
/// Either way every fold combine happens in the same order, so the
/// result is bit-identical across modes.
template <class F, class Conv, class Fold, class T1, class T2>
auto force(MapFoldExpr<F, Conv, Fold> expr, const DistArray<T1>& from,
           DistArray<T2>& scratch) {
  parix::Proc& proc = from.proc();
  if (!proc.fusing()) {
    if (proc.fuse_mode() == parix::FuseMode::kOn)
      proc.fusion().note_rejected(parix::FusionReject::kPath);
    detail::run_unfused_maps(expr.f, from, scratch);
    return array_fold(expr.conv, expr.fold, scratch);
  }
  auto fused_conv = [&expr](const T1& elem, const Index& ix) {
    return skil::detail::apply_conv_f(
        expr.conv, detail::apply_stage(expr.f, elem, ix), ix);
  };
  auto result = array_fold(fused_conv, expr.fold, from);
  proc.fusion().note_fused(/*barriers=*/0, /*tapes=*/MapStages<F>::value);
  return result;
}

/// Forces a scan|total pipeline: writes the inclusive prefix into
/// `to` and returns the grand total.  Unfused: array_scan then a full
/// array_fold (its own pass + allreduce).  Fused: the scan's
/// allgathered partition totals already determine the total, so the
/// fold pass and its allreduce vanish -- one genuine collective round
/// eliminated.  Requires an order-exact combine domain (integral):
/// the unfused fold merges along the allreduce tree in a different
/// order than rank order, and only exact arithmetic guarantees the
/// same bits either way.  FP domains are rejected and run unfused.
template <class Conv, class Scan, class T1, class T2>
T2 force(ScanFoldExpr<Conv, Scan> expr, const DistArray<T1>& from,
         DistArray<T2>& to) {
  parix::Proc& proc = from.proc();
  const bool order_exact = std::is_integral_v<T2>;
  if (!proc.fusing() || !order_exact) {
    if (proc.fuse_mode() == parix::FuseMode::kOn) {
      if (proc.fusing())
        proc.fusion().note_rejected(parix::FusionReject::kOrder);
      else
        proc.fusion().note_rejected(parix::FusionReject::kPath);
    }
    array_scan(expr.conv, expr.scan, from, to);
    return array_fold(expr.conv, expr.scan, from);
  }

  // Fused: the scan below is array_scan's exact loop and charge
  // sequence (scan.h), with one addition -- the allgathered partition
  // totals are folded once more, in virtual-rank order, to the grand
  // total.  For an integral (exact, associative, commutative) combine
  // this equals the unfused allreduce fold bit-for-bit.
  SKIL_REQUIRE(from.valid() && to.valid(), "fuse::force: invalid array");
  const Distribution& dist = from.dist();
  SKIL_REQUIRE(dist.layout() == Layout::kBlock && dist.block_grid_cols() == 1,
               "array_scan requires a row-block distribution (local "
               "elements must be contiguous in the global order)");
  SKIL_REQUIRE(dist.same_placement(to.dist()),
               "fuse::force: arrays must share one distribution");
  const parix::TraceSpan span(proc, "fused_scan_total");
  const auto& src = from.local();
  auto& dst = to.local();
  std::optional<T2> acc;
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : from.my_runs())
    for (int c = 0; c < run.col_count; ++c) {
      T2 converted = skil::detail::apply_conv_f(
          expr.conv, src[offset], Index{run.row, run.col_begin + c});
      acc = acc.has_value() ? expr.scan(std::move(*acc), std::move(converted))
                            : std::move(converted);
      dst[offset] = *acc;
      ++offset;
      ++elems;
    }
  proc.charge(parix::Op::kCall, 2 * elems);
  proc.charge(op_kind<T2>(), elems);

  const parix::Topology& topo = from.topology();
  std::vector<std::optional<T2>> totals = parix::allgather(proc, topo, acc);
  std::optional<T2> exclusive;
  for (int v = 0; v < from.my_vrank(); ++v) {
    if (!totals[v].has_value()) continue;
    exclusive = exclusive.has_value()
                    ? expr.scan(std::move(*exclusive), *totals[v])
                    : *totals[v];
    proc.charge(parix::Op::kCall);
  }
  if (exclusive.has_value()) {
    for (std::size_t i = 0; i < dst.size(); ++i)
      dst[i] = expr.scan(*exclusive, std::move(dst[i]));
    proc.charge(parix::Op::kCall, dst.size());
    proc.charge(op_kind<T2>(), dst.size());
  }

  // Grand total from the same allgathered partials, folded in rank
  // order (charged like the eliminated allreduce's combines, minus
  // its messages).
  std::optional<T2> grand;
  for (const std::optional<T2>& t : totals) {
    if (!t.has_value()) continue;
    if (grand.has_value()) {
      grand = expr.scan(std::move(*grand), *t);
      proc.charge(parix::Op::kCall);
    } else {
      grand = *t;
    }
  }
  SKIL_REQUIRE(grand.has_value(), "fuse::force: array has no elements");
  proc.fusion().note_fused(/*barriers=*/1, /*tapes=*/1);
  return *grand;
}

}  // namespace skil::fuse
