// Lazy skeleton composition for the DPFL baseline (DESIGN.md
// section 13).
//
// The functional flavour of skil/skeleton_fuse.h: single-argument
// overloads of fa_map / fa_fold return *stage* objects instead of
// running, operator| chains them, and fa_force decides at the last
// moment:
//
//   fa_force(fa_map(f) | fa_map(g), a)        -- map composition
//   fa_force(fa_map(f) | fa_fold(conv, op), a) -- fold of a mapped array
//
// Under Proc::fusing() false (SKIL_FUSE=off or the interpretive
// charge path) the pipeline executes literally as today's nested
// calls -- each stage allocates its fresh array and books its own
// charges, bit-identical to hand-written composition.  Under fusing()
// the pipeline runs as one pass with one charge tail and no
// intermediate array: in DPFL terms, deforestation -- the intermediate
// functional value provably has no other observer, so it is never
// built.  Results are bit-identical (same per-element composition,
// same fold order); virtual times are lower because the eliminated
// stage's boxing, closure dispatch and allocation charges are the
// very costs the paper's DPFL comparison laments.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "dpfl/farray.h"
#include "dpfl/fn.h"
#include "parix/charge_tape.h"
#include "parix/collectives.h"
#include "parix/proc.h"

namespace skil::dpfl {

// --- stages ----------------------------------------------------------------

template <class T2, class T1>
struct FaMapStage {
  Closure<T2(T1, Index)> f;
};

/// Single-argument fa_map: a lazy stage (the two-argument overload in
/// farray.h runs eagerly, as always).
template <class T2, class T1>
FaMapStage<T2, T1> fa_map(Closure<T2(T1, Index)> f) {
  return {std::move(f)};
}

template <class R, class T>
struct FaFoldStage {
  Closure<R(T, Index)> conv;
  Closure<R(R, R)> fold;
};

/// Two-argument fa_fold: a lazy stage (the three-argument overload in
/// farray.h runs eagerly).
template <class R, class T>
FaFoldStage<R, T> fa_fold(Closure<R(T, Index)> conv, Closure<R(R, R)> fold) {
  return {std::move(conv), std::move(fold)};
}

// --- pipelines -------------------------------------------------------------

template <class T3, class T2, class T1>
struct FaMapMapExpr {
  Closure<T2(T1, Index)> f;
  Closure<T3(T2, Index)> g;
};
template <class T3, class T2, class T1>
FaMapMapExpr<T3, T2, T1> operator|(FaMapStage<T2, T1> a,
                                   FaMapStage<T3, T2> b) {
  return {std::move(a.f), std::move(b.f)};
}

template <class R, class T2, class T1>
struct FaMapFoldExpr {
  Closure<T2(T1, Index)> f;
  Closure<R(T2, Index)> conv;
  Closure<R(R, R)> fold;
};
template <class R, class T2, class T1>
FaMapFoldExpr<R, T2, T1> operator|(FaMapStage<T2, T1> a,
                                   FaFoldStage<R, T2> b) {
  return {std::move(a.f), std::move(b.conv), std::move(b.fold)};
}

// --- forcing ---------------------------------------------------------------

/// Forces a map|map pipeline.  Unfused: two fa_map passes with the
/// intermediate array materialized.  Fused: one pass, one charge
/// tail, no intermediate -- g(f(x)) per element in the same order.
template <class T3, class T2, class T1>
FArray<T3> fa_force(const FaMapMapExpr<T3, T2, T1>& expr,
                    const FArray<T1>& a) {
  SKIL_REQUIRE(a.valid(), "fa_force: invalid array");
  parix::Proc& proc = a.proc();
  if (!proc.fusing()) {
    if (proc.fuse_mode() == parix::FuseMode::kOn)
      proc.fusion().note_rejected(parix::FusionReject::kPath);
    return fa_map(expr.g, fa_map(expr.f, a));
  }
  const parix::TraceSpan span(proc, "fused_fa_map");
  const auto& src = a.local();
  std::vector<T3> fresh;
  fresh.reserve(src.size());
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : a.my_runs())
    for (int c = 0; c < run.col_count; ++c) {
      const Index ix{run.row, run.col_begin + c};
      fresh.push_back(
          expr.g.apply_uncharged(expr.f.apply_uncharged(src[offset], ix), ix));
      ++offset;
      ++elems;
    }
  charge_apply(proc, elems);
  charge_map_cell(proc, elems);
  proc.charge(op_kind<T3>(), elems);
  proc.fusion().note_fused(/*barriers=*/0, /*tapes=*/1);
  return FArray<T3>(proc, a.dist_ptr(), std::move(fresh));
}

/// Forces a map|fold pipeline.  Unfused: fa_map materializes the
/// intermediate, fa_fold folds it.  Fused: one fold pass converting
/// through the composed stage -- same combine order, bit-identical
/// result, and the map stage's whole charge tail plus its fresh-array
/// allocation disappear.
template <class R, class T2, class T1>
R fa_force(const FaMapFoldExpr<R, T2, T1>& expr, const FArray<T1>& a) {
  SKIL_REQUIRE(a.valid(), "fa_force: invalid array");
  parix::Proc& proc = a.proc();
  if (!proc.fusing()) {
    if (proc.fuse_mode() == parix::FuseMode::kOn)
      proc.fusion().note_rejected(parix::FusionReject::kPath);
    return fa_fold(expr.conv, expr.fold, fa_map(expr.f, a));
  }
  const parix::TraceSpan span(proc, "fused_fa_fold");
  const auto& src = a.local();
  std::optional<R> acc;
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : a.my_runs())
    for (int c = 0; c < run.col_count; ++c) {
      const Index ix{run.row, run.col_begin + c};
      R converted = expr.conv.apply_uncharged(
          expr.f.apply_uncharged(src[offset], ix), ix);
      acc = acc.has_value()
                ? expr.fold.apply_uncharged(std::move(*acc),
                                            std::move(converted))
                : std::move(converted);
      ++offset;
      ++elems;
    }
  charge_apply(proc, 2 * elems);
  charge_map_cell(proc, elems);
  proc.charge(op_kind<T1>(), elems);

  auto merge = [&](std::optional<R> lhs,
                   std::optional<R> rhs) -> std::optional<R> {
    if (!lhs.has_value()) return rhs;
    if (!rhs.has_value()) return lhs;
    charge_apply(proc);
    return expr.fold.apply_uncharged(std::move(*lhs), std::move(*rhs));
  };
  std::optional<R> result =
      parix::allreduce(proc, a.topology(), std::move(acc), merge);
  SKIL_REQUIRE(result.has_value(), "fa_force: array has no elements");
  proc.fusion().note_fused(/*barriers=*/0, /*tapes=*/1);
  return *result;
}

}  // namespace skil::dpfl
