// SPMD launcher: runs one program body on every virtual processor.
//
// The body executes real computation and real message exchange on the
// host; timing comes from the deterministic virtual clocks (see
// cost_model.h).  Two host execution engines are available:
//
//  * kPooled (default): a persistent worker pool (capped at the host's
//    hardware concurrency) multiplexes the virtual processors as
//    run-to-completion fibers that park on mailbox waits -- no thread
//    spawn/join per run, no kernel wakeups per message
//    (parix/executor.h).
//  * kThreads (legacy): one OS thread per virtual processor, kept as a
//    differential-testing oracle for the pooled engine.
//
// Virtual time is schedule-independent -- it derives from charged
// operation counts and exact (src, tag)-matched message timestamps --
// so both engines produce bit-identical results
// (tests/test_parix_engines.cpp enforces this).  If any processor's
// body throws, all mailboxes are poisoned so blocked peers terminate,
// and the first exception is rethrown to the caller.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "parix/cost_model.h"
#include "parix/proc.h"
#include "parix/prof.h"
#include "parix/trace.h"

namespace skil::parix {

/// How spmd_run executes the virtual processors on the host.
enum class ExecutionEngine {
  kThreads,  ///< legacy: one OS thread per virtual processor
  kPooled,   ///< persistent worker pool, processors as parked fibers
};

/// Process-wide default engine: kPooled, overridable with the
/// SKIL_ENGINE environment variable ("threads" / "pooled") or
/// set_default_execution_engine.  Sanitizer builds default to
/// kThreads because fiber context switches confuse thread/address
/// sanitizers unless specially annotated.  Unknown SKIL_ENGINE values
/// fail loudly (ContractError) instead of silently running the
/// default configuration.
ExecutionEngine default_execution_engine();
void set_default_execution_engine(ExecutionEngine engine);

/// Strict engine-name parser shared by the environment reader and the
/// unit tests: raises ContractError listing the accepted values on
/// anything but "threads" / "pooled".
ExecutionEngine parse_execution_engine(std::string_view name);

/// Configuration of one SPMD run.
struct RunConfig {
  int nprocs = 4;
  CostModel cost = CostModel::t800();
  ExecutionEngine engine = default_execution_engine();
  /// Event tracing (parix/trace.h).  kOff allocates nothing and leaves
  /// a single untaken branch per communication/span site, so virtual
  /// times are bit-identical across all modes.
  TraceMode trace = default_trace_mode();
  /// Skeleton-composition fusion (charge_tape.h, SKIL_FUSE).  Unlike
  /// the knobs above this one legitimately moves virtual time: kOn
  /// runs recognised compositions as one fused pass (same array
  /// results, fewer charges and collective rounds -> lower vtimes).
  FuseMode fuse = default_fuse_mode();
  /// Host scheduler counters (parix/prof.h, SKIL_PROF).  kOff costs
  /// one untaken branch per scheduler site; kCounters reads host
  /// clocks/counters only and never feeds virtual time, so vtimes are
  /// bit-identical across modes.
  ProfMode prof = default_prof_mode();
  /// Collective-algorithm family (parix/coll.h, SKIL_COLL).  Like
  /// fusion this knob legitimately moves virtual time: array results
  /// stay bit-identical across modes, but the non-tree algorithms
  /// change the communication schedule (fewer/cheaper rounds), so
  /// each mode has its own pinned vtime goldens.
  CollMode coll = default_coll_mode();
};

/// Timing and accounting of a completed run.
struct RunResult {
  /// Modeled program runtime: the maximum final virtual time (us).
  double vtime_us = 0.0;
  /// Final virtual time of every processor.
  std::vector<double> proc_vtimes;
  /// Operation/message statistics per processor and aggregated.
  std::vector<Stats> proc_stats;
  Stats total;
  /// Host wall-clock seconds (informational only; the host is not the
  /// modeled machine).
  double wall_seconds = 0.0;
  /// Event trace (null unless RunConfig::trace != kOff).  Hand it to
  /// the exporters in parix/metrics.h.
  std::shared_ptr<const Trace> trace;
  /// Settlement counters summed over this run's processors
  /// (charge_tape.h): how the dependent chain adds were retired.
  SettleCounters settle;
  /// Fusion counters summed over this run's processors.  All zero under
  /// FuseMode::kOff (the off path never consults the fused variants).
  FusionCounters fusion;
  /// Collective counters summed over this run's processors
  /// (parix/coll.h): which algorithm every collective call resolved
  /// to, plus bytes, hop distances and rounds per op.
  CollectiveCounters coll;
  /// Host scheduler report (parix/prof.h).  mode == kOff when the run
  /// was unprofiled (then everything else in it is zero); carriers ==
  /// 0 under the threads engine, where the memo totals still apply.
  SchedulerReport scheduler;

  double vtime_seconds() const { return vtime_us * 1e-6; }
};

namespace detail {

/// Non-owning type-erased reference to the SPMD body: one indirect
/// call per processor instead of a std::function dispatch per call
/// level, and no copy of the body's captures.
struct BodyRef {
  void* obj = nullptr;
  void (*invoke)(void*, Proc&) = nullptr;

  void operator()(Proc& proc) const { invoke(obj, proc); }
};

}  // namespace detail

/// Runs `body` on `config.nprocs` virtual processors and returns the
/// accounting.  Rethrows the first exception raised by any processor.
/// `body` must outlive the call (it does: the call is synchronous).
RunResult spmd_run_ref(const RunConfig& config, const detail::BodyRef& body);

/// Type-erased entry point, kept as ABI surface for existing callers.
inline RunResult spmd_run(const RunConfig& config,
                          const std::function<void(Proc&)>& body) {
  detail::BodyRef ref;
  ref.obj = const_cast<void*>(static_cast<const void*>(&body));
  ref.invoke = [](void* obj, Proc& proc) {
    (*static_cast<const std::function<void(Proc&)>*>(obj))(proc);
  };
  return spmd_run_ref(config, ref);
}

/// Direct entry point for lambdas and other callables: invokes the
/// body through one flat function pointer without materialising a
/// std::function.
template <class Body>
  requires std::is_invocable_v<Body&, Proc&>
RunResult spmd_run(const RunConfig& config, Body&& body) {
  using Obj = std::remove_reference_t<Body>;
  detail::BodyRef ref;
  ref.obj = const_cast<void*>(
      static_cast<const void*>(std::addressof(body)));
  ref.invoke = [](void* obj, Proc& proc) {
    (*static_cast<Obj*>(obj))(proc);
  };
  return spmd_run_ref(config, ref);
}

}  // namespace skil::parix
