// array_map, array_zip and array_copy (paper section 3).
//
//   void array_map($t2 map_f($t1, Index), array <$t1> from, array <$t2> to);
//   void array_copy(array <$t> from, array <$t> to);
//
// array_map applies the functional argument to every element of `from`
// and writes the results into `to`; "the two arrays can be identical;
// in this case the skeleton does an in-situ replacement".  The target
// array must already exist -- the paper deliberately fills an existing
// array instead of returning a new one to avoid temporary allocations,
// an optimisation "not possible in functional host languages".
//
// array_copy exploits the contiguous partition representation and
// copies wholesale instead of mapping the identity function, exactly
// as motivated in the paper.
//
// array_zip is our natural n-ary extension (a two-source map), needed
// by several examples and by the stencil machinery.
#pragma once

#include <cstring>
#include <type_traits>

#include "parix/charge_tape.h"
#include "parix/proc.h"
#include "skil/dist_array.h"

namespace skil {

namespace detail {

/// Invokes a map functional argument with or without the Index
/// parameter, whichever the callable accepts (the paper's map_f always
/// takes the index; the index-free form is a convenience).
template <class F, class T>
decltype(auto) apply_map_f(F& map_f, const T& elem, const Index& ix) {
  if constexpr (std::is_invocable_v<F&, const T&, Index>) {
    return map_f(elem, ix);
  } else {
    return map_f(elem);
  }
}

/// The bulk tail charges shared by array_map and array_map_taped (one
/// first-order call plus one element operation per element).  Sink-
/// templated: array_map books them eagerly on the Proc, the taped
/// variant through a parix::DeferredCharges sink so the skeleton's
/// whole charge sequence stays in the deferred ledger until the next
/// observation point (same entries, same order -- settlement cannot
/// tell the difference).
template <class T2, class Sink>
inline void array_map_charge_tail(Sink& sink, std::uint64_t elems) {
  sink.charge_elems(parix::Op::kCall, elems);
  sink.charge_elems(op_kind<T2>(), elems);
}

/// array_copy's pass over `elems` elements: `copy` (the host's copy)
/// inside its span, then the copy's words.  An empty `copy` books a
/// copy the host elides (DESIGN.md section 8).
template <class T, class Copy>
void copy_pass(parix::Proc& proc, std::size_t elems, Copy&& copy) {
  const parix::TraceSpan span(proc, "array_copy");
  copy();
  proc.charge(parix::Op::kCopyWord, copy_words<T>(elems));
}

}  // namespace detail

/// Applies `map_f` to all elements of `from`, writing into `to`.
/// The arrays may be the same object (in-situ replacement).
///
/// Cost model (per element): one first-order call to the instantiated
/// functional argument plus one element operation.
template <class F, class T1, class T2>
void array_map(F map_f, const DistArray<T1>& from, DistArray<T2>& to) {
  SKIL_REQUIRE(from.valid() && to.valid(), "array_map: invalid array");
  SKIL_REQUIRE(from.dist().same_placement(to.dist()),
               "array_map: source and target must share one distribution");
  const parix::TraceSpan span(from.proc(), "array_map");
  const auto& src = from.local();
  auto& dst = to.local();
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : from.my_runs())
    for (int c = 0; c < run.col_count; ++c) {
      dst[offset] = detail::apply_map_f(map_f, src[offset],
                                        Index{run.row, run.col_begin + c});
      ++offset;
      ++elems;
    }
  detail::array_map_charge_tail<T2>(from.proc(), elems);
}

/// Tape-specialized array_map: the paper's first-order loop over the
/// partition (array_map_1, DESIGN.md section 2).  `row_f` is a row
/// kernel `std::uint64_t(int row, int col_begin, const T1* src,
/// T2* dst, int count)`, called once per row run: it maps the run's
/// elements src[0..count) into dst[0..count) with raw reads and
/// returns how many of them its interpretive body would have charged
/// `tape`'s sequence for.  src may equal dst (in-situ map), so kernels
/// work elementwise.  The loop replays the tape for the summed count,
/// then books the same bulk tail charges as array_map.  Chain-
/// identical to array_map with a functor whose active elements all
/// charge `tape`'s sequence (DESIGN.md section 8).
///
/// Callers should hoist the tape out of any loop that maps repeatedly
/// with the same charge sequence: a tape's identity (ChargeTape::id)
/// keys the settlement memo (DESIGN.md section 12), so reusing one
/// tape lets every replay after the first settle as a cached
/// closed-form walk, while rebuilding it per call is memo-cold
/// (bit-identical either way).
template <class F, class T1, class T2>
void array_map_taped(F row_f, const parix::ChargeTape& tape,
                     const DistArray<T1>& from, DistArray<T2>& to) {
  SKIL_REQUIRE(from.valid() && to.valid(), "array_map: invalid array");
  SKIL_REQUIRE(from.dist().same_placement(to.dist()),
               "array_map: source and target must share one distribution");
  const parix::TraceSpan span(from.proc(), "array_map");
  const T1* src = from.local().data();
  T2* dst = to.local().data();
  std::uint64_t elems = 0;
  std::uint64_t tapped = 0;
  for (const RowRun& run : from.my_runs()) {
    tapped += row_f(run.row, run.col_begin, src + elems, dst + elems,
                    run.col_count);
    elems += static_cast<std::uint64_t>(run.col_count);
  }
  from.proc().replay(tape, tapped);
  parix::DeferredCharges deferred(from.proc());
  detail::array_map_charge_tail<T2>(deferred, elems);
}

/// Two-source map: to[i] = zip_f(a[i], b[i], i).  Extension skeleton.
template <class F, class T1, class T2, class T3>
void array_zip(F zip_f, const DistArray<T1>& a, const DistArray<T2>& b,
               DistArray<T3>& to) {
  SKIL_REQUIRE(a.valid() && b.valid() && to.valid(),
               "array_zip: invalid array");
  SKIL_REQUIRE(a.dist().same_placement(b.dist()) &&
                   a.dist().same_placement(to.dist()),
               "array_zip: all arrays must share one distribution");
  const parix::TraceSpan span(a.proc(), "array_zip");
  const auto& sa = a.local();
  const auto& sb = b.local();
  auto& dst = to.local();
  std::size_t offset = 0;
  std::uint64_t elems = 0;
  for (const RowRun& run : a.my_runs())
    for (int c = 0; c < run.col_count; ++c) {
      const Index ix{run.row, run.col_begin + c};
      if constexpr (std::is_invocable_v<F&, const T1&, const T2&, Index>) {
        dst[offset] = zip_f(sa[offset], sb[offset], ix);
      } else {
        dst[offset] = zip_f(sa[offset], sb[offset]);
      }
      ++offset;
      ++elems;
    }
  a.proc().charge_elems(parix::Op::kCall, elems);
  a.proc().charge_elems(op_kind<T3>(), elems);
}

/// Copies `from` into the previously created `to`.  "As array
/// partitions are internally represented as contiguous memory areas,
/// copying can be done very efficiently" -- the cost is pure memory
/// traffic, with no per-element function calls.
template <class T>
void array_copy(const DistArray<T>& from, DistArray<T>& to) {
  SKIL_REQUIRE(from.valid() && to.valid(), "array_copy: invalid array");
  if (&from.local() == &to.local()) return;  // self-copy is a no-op
  SKIL_REQUIRE(from.dist().same_placement(to.dist()),
               "array_copy: source and target must share one distribution");
  detail::copy_pass<T>(from.proc(), from.local().size(),
                       [&] { to.local() = from.local(); });
}

}  // namespace skil
