// array_create / array_destroy (paper section 3).
//
//   array <$t> array_create(int dim, Size size, Size blocksize,
//                           Index lowerbd, $t init_elem(Index), int distr);
//   void array_destroy(array <$t> a);
//
// array_create allocates a block-wise distributed array, initialises
// every element from its global index with the functional argument
// `init_elem`, and maps the array onto the requested virtual topology
// (DISTR_DEFAULT / DISTR_RING / DISTR_TORUS2D, plus our hypercube
// extension).  Zero `blocksize` components and negative `lowerbd`
// components request the defaults, exactly as in the paper.
//
// The cyclic and block-cyclic creators implement the distributions the
// paper names as future work (section 6).
#pragma once

#include <algorithm>
#include <memory>
#include <utility>

#include "parix/charge_tape.h"
#include "parix/proc.h"
#include "parix/topology.h"
#include "skil/dist_array.h"

namespace skil {

namespace detail {

/// Fills a freshly created array from its initialiser function.
/// Cost model: one first-order call (the instantiated functional
/// argument) plus one element store per element.
template <class T, class InitFn>
void fill_from_init(DistArray<T>& a, InitFn&& init_elem) {
  const parix::TraceSpan span(a.proc(), "array_create");
  auto& local = a.local();
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : a.my_runs())
    for (int c = 0; c < run.col_count; ++c) {
      local[offset++] = init_elem(Index{run.row, run.col_begin + c});
      ++elems;
    }
  a.proc().charge(parix::Op::kCall, elems);
  a.proc().charge(op_kind<T>(), elems);
}

}  // namespace detail

/// Creates a block-distributed array (the paper's array_create).
template <class T, class InitFn>
DistArray<T> array_create(parix::Proc& proc, int dim, Size size,
                          Size blocksize, Index lowerbd, InitFn&& init_elem,
                          parix::Distr distr = parix::Distr::kDefault) {
  auto topo = std::make_shared<const parix::Topology>(proc.machine(), distr);
  auto dist = std::make_shared<const Distribution>(Distribution::block(
      std::move(topo), dim, size, blocksize, lowerbd));
  DistArray<T> a(proc, std::move(dist));
  detail::fill_from_init(a, std::forward<InitFn>(init_elem));
  return a;
}

/// Convenience overload with default block sizes and bounds.
template <class T, class InitFn>
DistArray<T> array_create(parix::Proc& proc, int dim, Size size,
                          InitFn&& init_elem,
                          parix::Distr distr = parix::Distr::kDefault) {
  return array_create<T>(proc, dim, size, Size{0, 0}, Index{-1, -1},
                         std::forward<InitFn>(init_elem), distr);
}

/// Constant-initialised creator, fusible with its consumer (DESIGN.md
/// section 13).  Unfused this is exactly array_create with a constant
/// functional argument: a fill pass charging one call and one element
/// store per element.  Under Proc::fusing() the per-element closure
/// calls are elided (a constant needs no call), and when the constant
/// is the value-initialised T{} the stores vanish too -- the freshly
/// allocated partition already holds those bits.  The consumer (e.g.
/// array_gen_mult folding c's initial elements) observes an identical
/// array either way.
template <class T>
DistArray<T> array_create_const(parix::Proc& proc, int dim, Size size,
                                T value,
                                parix::Distr distr = parix::Distr::kDefault) {
  if (!proc.fusing()) {
    if (proc.fuse_mode() == parix::FuseMode::kOn)
      proc.fusion().note_rejected(parix::FusionReject::kPath);
    return array_create<T>(proc, dim, size,
                           [value](Index) { return value; }, distr);
  }
  auto topo = std::make_shared<const parix::Topology>(proc.machine(), distr);
  auto dist = std::make_shared<const Distribution>(Distribution::block(
      std::move(topo), dim, size, Size{0, 0}, Index{-1, -1}));
  DistArray<T> a(proc, std::move(dist));
  if (!(value == T{})) {
    const parix::TraceSpan span(proc, "array_create");
    auto& local = a.local();
    std::fill(local.begin(), local.end(), value);
    proc.charge(op_kind<T>(), static_cast<std::uint64_t>(local.size()));
  }
  proc.fusion().note_fused(/*barriers=*/0, /*tapes=*/1);
  return a;
}

/// Row-cyclic creator (paper section 6 future work).
template <class T, class InitFn>
DistArray<T> array_create_cyclic(parix::Proc& proc, int dim, Size size,
                                 InitFn&& init_elem,
                                 parix::Distr distr = parix::Distr::kRing) {
  auto topo = std::make_shared<const parix::Topology>(proc.machine(), distr);
  auto dist = std::make_shared<const Distribution>(
      Distribution::cyclic(std::move(topo), dim, size));
  DistArray<T> a(proc, std::move(dist));
  detail::fill_from_init(a, std::forward<InitFn>(init_elem));
  return a;
}

/// Row-block-cyclic creator (paper section 6 future work).
template <class T, class InitFn>
DistArray<T> array_create_block_cyclic(
    parix::Proc& proc, int dim, Size size, int block_rows, InitFn&& init_elem,
    parix::Distr distr = parix::Distr::kRing) {
  auto topo = std::make_shared<const parix::Topology>(proc.machine(), distr);
  auto dist = std::make_shared<const Distribution>(
      Distribution::block_cyclic(std::move(topo), dim, size, block_rows));
  DistArray<T> a(proc, std::move(dist));
  detail::fill_from_init(a, std::forward<InitFn>(init_elem));
  return a;
}

/// Deallocates an array (the paper's array_destroy).  The handle
/// becomes invalid; RAII reclaims arrays that are never destroyed.
template <class T>
void array_destroy(DistArray<T>& a) {
  a.destroy();
}

}  // namespace skil
