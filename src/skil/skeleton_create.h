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
#include <cmath>
#include <memory>
#include <type_traits>
#include <utility>

#include "parix/charge_tape.h"
#include "parix/proc.h"
#include "parix/topology.h"
#include "skil/dist_array.h"

namespace skil {

namespace detail {

/// array_create's pass over `elems` elements: `fill` (the host's
/// stores) inside its span, then one first-order call plus one element
/// store per element.  An empty `fill` books a creation the host
/// elides (DESIGN.md section 8).
template <class T, class Fill>
void create_pass(parix::Proc& proc, std::size_t elems, Fill&& fill) {
  const parix::TraceSpan span(proc, "array_create");
  fill();
  proc.charge(parix::Op::kCall, elems);
  proc.charge(op_kind<T>(), elems);
}

/// Fills a freshly created array from its initialiser function.
template <class T, class InitFn>
void fill_from_init(DistArray<T>& a, InitFn&& init_elem) {
  auto& local = a.local();
  create_pass<T>(a.proc(), local.size(), [&] {
    std::size_t offset = 0;
    for (const RowRun& run : a.my_runs())
      for (int c = 0; c < run.col_count; ++c)
        local[offset++] = init_elem(Index{run.row, run.col_begin + c});
  });
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
/// section 13).  One host body: allocate, then store the constant
/// unless the fresh partition already holds its bits.  Proc::fusing()
/// picks only the charges: unfused, array_create's with a constant
/// functional argument; fused, no closure calls (a constant needs
/// none) and no charge for the stores the host skips.
template <class T>
DistArray<T> array_create_const(parix::Proc& proc, int dim, Size size,
                                T value,
                                parix::Distr distr = parix::Distr::kDefault) {
  auto topo = std::make_shared<const parix::Topology>(proc.machine(), distr);
  auto dist = std::make_shared<const Distribution>(Distribution::block(
      std::move(topo), dim, size, Size{0, 0}, Index{-1, -1}));
  DistArray<T> a(proc, std::move(dist));
  auto& local = a.local();
  // The fresh partition holds T{}'s bits; -0.0 == 0.0 but not its bits.
  bool store = !(value == T{});
  if constexpr (std::is_floating_point_v<T>) store |= std::signbit(value);
  if (store) std::fill(local.begin(), local.end(), value);
  if (!proc.fusing()) {
    if (proc.fuse_mode() == parix::FuseMode::kOn)
      proc.fusion().note_rejected(parix::FusionReject::kPath);
    detail::create_pass<T>(proc, local.size(), [] {});
    return a;
  }
  if (store) {
    const parix::TraceSpan span(proc, "array_create");
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
