// Trace exporters and post-run analysis (parix/trace.h consumers).
//
// Everything here runs after spmd_run returns, on the caller's thread,
// reading the completed per-proc event buffers.  Nothing feeds back
// into virtual time.
//
// Three consumers:
//
//  * write_chrome_trace: Chrome trace_event JSON ("JSON Array Format"
//    wrapped in an object), loadable in Perfetto / chrome://tracing.
//    One lane (tid) per virtual processor, timestamps in *virtual*
//    microseconds, span begin/end pairs as B/E events, compute /
//    send / recv slices as X events and (full mode) one flow arrow
//    per message from the send slice to its matching receive.
//
//  * write_metrics_json: compact machine-readable summary -- per-proc
//    virtual-time breakdown (compute_us / comm_us exactly equal to
//    Proc::Stats, printed with %.17g so they round-trip bit-exact),
//    per-skeleton span call counts and virtual durations, the message
//    histogram by tag and bytes by (src, dst) link, and (full mode)
//    the critical-path summary.
//
//  * analyze_critical_path: walks message-arrival dependencies
//    backwards from the processor that finished last.  The returned
//    segments tile [0, max vtime] with no gaps, so total_us equals
//    the run's final vtime exactly (tests pin this identity); the
//    per-proc slack vector (max vtime - own final vtime) quantifies
//    load imbalance.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "parix/runtime.h"
#include "parix/trace.h"

namespace skil::parix {

/// Aggregate of all invocations of one span label (skeleton or app
/// phase).  Durations are inclusive: nested spans also accrue to their
/// parents, like any hierarchical profile.
struct SpanTotal {
  const char* name = nullptr;
  std::uint64_t count = 0;   ///< begin events across all processors
  double vtime_us = 0.0;     ///< summed virtual duration across all procs
};

/// Pairs span begin/end events per processor and aggregates by label.
/// Raises ContractError if any processor's span events do not nest
/// (an end without a begin, or an unclosed begin) -- the RAII
/// TraceSpan guarantees nesting, so a violation is a recorder bug.
std::vector<SpanTotal> span_summary(const Trace& trace);

/// One hop of the critical path, on some processor's timeline (or on
/// the wire between two processors for kWire).
struct CriticalSegment {
  enum class Kind : std::uint8_t {
    kCompute,  ///< charged computation
    kSend,     ///< sender-side send interval
    kRecv,     ///< receiver-side recv interval (local/channel bound)
    kWire,     ///< message in flight (arrival-bound recv edge)
  };
  Kind kind = Kind::kCompute;
  int proc = -1;   ///< timeline owner; receiver for kWire
  int peer = -1;   ///< kWire: the sending processor
  double vt0 = 0.0;
  double vt1 = 0.0;

  double duration_us() const { return vt1 - vt0; }
};

/// Critical path of one traced run (requires TraceMode::kFull).
struct CriticalPath {
  /// Telescoped path length; equals the run's final max vtime.
  double total_us = 0.0;
  double compute_us = 0.0;  ///< path time in charged computation
  double send_us = 0.0;     ///< path time in sender-side intervals
  double recv_us = 0.0;     ///< path time in receiver-side intervals
  double wire_us = 0.0;     ///< path time with the bound message in flight
  /// Segments in forward virtual-time order; consecutive segments abut
  /// exactly (next.vt0 == prev.vt1), tiling [0, total_us].
  std::vector<CriticalSegment> segments;
  /// Per processor: virtual time spent on the critical path.
  std::vector<double> proc_path_us;
  /// Per processor: max final vtime minus own final vtime (imbalance).
  std::vector<double> proc_slack_us;
};

/// Walks arrival dependencies backwards from the last-finishing
/// processor.  Requires trace.mode == TraceMode::kFull (the walk needs
/// compute gap slices and per-message sequence links).
CriticalPath analyze_critical_path(const Trace& trace);

/// Writes the Chrome trace_event JSON for `trace` to `out`.
void write_chrome_trace(const Trace& trace, std::ostream& out);

/// Writes the compact metrics JSON for a completed run to `out`.
/// `result.trace` may be null (stats-only metrics) or in any mode;
/// span / message / critical-path sections appear when the trace
/// carries them.
void write_metrics_json(const RunResult& result, std::ostream& out);

}  // namespace skil::parix
