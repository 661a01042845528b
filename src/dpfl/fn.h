// Closure-based functional values for the DPFL baseline.
//
// DPFL (Kuchen, Plasmeijer, Stoltze: "Efficient Distributed Memory
// Implementation of a Data Parallel Functional Language", PARLE '94)
// is the functional skeleton language the paper compares against.  Its
// implementation executes skeletons by lazy graph reduction: functional
// arguments are closures, every application builds graph nodes, and
// values are boxed on the heap.  This module models those mechanisms:
// Closure<R(Args...)> really dispatches through std::function (an
// indirect call on the host), and its invocation charges the cost-model
// prices of a graph-reduction application -- thunk construction, boxed
// result allocation and the indirect jump -- which the Skil compiler's
// instantiation procedure eliminates (paper section 2.4).
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

#include "parix/charge_tape.h"
#include "parix/proc.h"

namespace skil::dpfl {

// The charge helpers are templated over a charge Sink -- parix::Proc
// (a closure application charges the clock directly) or
// parix::ChargeTape (a taped map records the identical sequence once
// and replays it).  One definition serves both, so the sequences
// cannot drift apart.

/// Virtual-time prices of one closure application in a lazy
/// graph-reduction runtime: the indirect call itself plus the thunk
/// node and the boxed result cell it allocates.
template <class Sink>
inline void charge_apply(Sink& sink, std::uint64_t count = 1) {
  sink.charge(parix::Op::kIndirectCall, count);
  sink.charge(parix::Op::kAlloc, count);  // application node in the graph
}

/// Price of reading a boxed value out of the graph (pointer chase).
template <class Sink>
inline void charge_unbox(Sink& sink, std::uint64_t count = 1) {
  sink.charge(parix::Op::kCopyWord, 2 * count);
}

/// A first-class function value.  Building one allocates a closure
/// record (charged); calling it is an indirect, boxing application.
template <class Sig>
class Closure;

template <class R, class... Args>
class Closure<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Closure>)
  Closure(parix::Proc& proc, F&& f) : proc_(&proc) {
    // Hand-rolled type erasure instead of std::function: skeleton
    // inner loops call apply_uncharged once per element, and this
    // keeps each application a single indirect call through a plain
    // function pointer (the *modeled* dispatch cost is charged
    // separately; the host-side dispatch should cost as little as
    // possible).
    using Fn = std::remove_cvref_t<F>;
    auto owned = std::make_shared<Fn>(std::forward<F>(f));
    target_ = owned.get();
    owner_ = std::move(owned);
    // Arguments cross the erasure boundary by value, not by reference:
    // the skeletons apply closures to scalars and small Index tuples,
    // which then travel in registers instead of being spilled to the
    // stack for an rvalue-reference to point at.
    invoke_ = [](const void* target, Args... args) -> R {
      return (*static_cast<const Fn*>(target))(std::move(args)...);
    };
    proc.charge(parix::Op::kAlloc);  // closure record
  }

  R operator()(Args... args) const {
    charge_apply(*proc_);
    return invoke_(target_, std::forward<Args>(args)...);
  }

  /// Invokes without the per-call charge (callers that bulk-charge a
  /// whole loop use this to keep host overhead low).
  R apply_uncharged(Args... args) const {
    return invoke_(target_, std::forward<Args>(args)...);
  }

  parix::Proc& proc() const { return *proc_; }

 private:
  parix::Proc* proc_;
  std::shared_ptr<const void> owner_;
  const void* target_ = nullptr;
  R (*invoke_)(const void*, Args...) = nullptr;
};

}  // namespace skil::dpfl
