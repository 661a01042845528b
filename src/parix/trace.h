// Two-timeline event tracing of the simulated machine.
//
// The runtime's accounting (Proc::Stats) reports end-of-run totals
// only; this layer records *where* virtual time accumulates.  Every
// virtual processor owns one ProcTrace buffer and appends events to it
// from its own fiber/thread -- no locks, no atomics, no sharing on the
// hot path.  Each event carries both timelines:
//
//  * virtual microseconds (from Proc's deterministic clock) -- the
//    scientific artefact, bit-identical across engines, carrier counts
//    and trace modes;
//  * host wall nanoseconds since the run's epoch -- informational
//    (where the *host* spends its time), never fed back into any
//    virtual quantity.
//
// A trace reads at three altitudes: app-level phases (e.g. "gauss
// step" k) and skeleton invocations are span begin/end points;
// individual sends/receives are slices priced by the message layer;
// and the virtual time that accumulates between two recorded points is
// flushed as one "compute" slice when the next event arrives, so the
// trace stays compact no matter how many charges a skeleton books
// between two of them.  charge()/charge_elems/replay themselves are
// NEVER instrumented: the clock-advancing hot loops run exactly the
// code they run untraced.
//
// Invariant (DESIGN.md section 9): tracing must not perturb virtual
// time.  The recorder only *reads* vtime; with SKIL_TRACE=off the only
// residual cost is one untaken pointer test per send/receive/span
// site, so golden virtual times stay bit-identical in every mode
// (tests/test_parix_trace.cpp pins this).
//
// Modes (SKIL_TRACE=off|spans|full, strict parsing like SKIL_ENGINE):
//   off    no recorder allocated; RunResult::trace is null.
//   spans  span begin/end points only (skeleton call counts + per-call
//          virtual durations; cheap enough for big sweeps).
//   full   spans + send/recv slices + compute gap slices + the
//          per-message sequence links the critical-path analyzer and
//          the Chrome exporter's flow arrows need.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace skil::parix {

/// How much the per-proc recorders capture (see the header comment).
enum class TraceMode { kOff, kSpans, kFull };

/// Process-wide default trace mode: kOff, overridable with the
/// SKIL_TRACE environment variable ("off" / "spans" / "full") or
/// set_default_trace_mode.  Unknown SKIL_TRACE values fail loudly
/// (ContractError), like SKIL_ENGINE and SKIL_FUSE.
TraceMode default_trace_mode();
void set_default_trace_mode(TraceMode mode);

/// Strict mode-name parser shared by the environment reader and the
/// unit tests: raises ContractError listing the accepted values on
/// anything but "off" / "spans" / "full".
TraceMode parse_trace_mode(std::string_view name);

/// Canonical name of a mode ("off" / "spans" / "full").
std::string_view trace_mode_name(TraceMode mode);

enum class TraceEventKind : std::uint8_t {
  kCompute,    ///< charged virtual time between two recorded points
  kSend,       ///< one Proc::send (startup / sync-delivery interval)
  kRecv,       ///< one Proc::recv (posting to ready interval)
  kSpanBegin,  ///< skeleton / app phase opens (point event)
  kSpanEnd,    ///< matching close (point event)
};

/// Which constraint determined a receive's ready time -- the edge the
/// critical-path analyzer walks.
enum class RecvBound : std::uint8_t {
  kLocal,    ///< local clock + receive overhead (message was waiting)
  kArrival,  ///< the message's arrival timestamp (sender-bound edge)
  kChannel,  ///< incoming-link serialisation (a previous delivery)
};

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kCompute;
  RecvBound bound = RecvBound::kLocal;  ///< kRecv only
  int peer = -1;                        ///< kSend: dst, kRecv: src
  long tag = 0;                         ///< kSend / kRecv
  double vt0 = 0.0;                     ///< virtual begin (us)
  double vt1 = 0.0;                     ///< virtual end (us); == vt0 for points
  std::int64_t wall_ns = 0;             ///< host ns since run epoch, at record
  std::uint64_t bytes = 0;              ///< kSend / kRecv wire bytes
  std::uint32_t seq = 0;        ///< kSend: per-proc send sequence number
  std::uint32_t peer_seq = 0;   ///< kRecv: matching send's seq on `peer`
  const char* name = nullptr;   ///< kSpanBegin/End: static-storage label
  std::int64_t arg = -1;        ///< span argument (e.g. round k), -1 = none
};

/// One virtual processor's event buffer.  Appended to only by the
/// owning processor's fiber/thread; read after the run completes.
class ProcTrace {
 public:
  void configure(int proc_id, bool full,
                 std::chrono::steady_clock::time_point epoch) {
    proc_id_ = proc_id;
    full_ = full;
    epoch_ = epoch;
    events_.reserve(full ? 4096 : 256);
  }

  bool full() const { return full_; }
  int proc_id() const { return proc_id_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Next send sequence number (stamped into the message so the
  /// receiver's event can name its exact causal predecessor).
  std::uint32_t alloc_send_seq() { return next_send_seq_++; }

  void record_send(double vt0, double vt1, int dst, long tag,
                   std::uint64_t bytes, std::uint32_t seq) {
    flush_compute(vt0);
    TraceEvent e;
    e.kind = TraceEventKind::kSend;
    e.peer = dst;
    e.tag = tag;
    e.vt0 = vt0;
    e.vt1 = vt1;
    e.wall_ns = wall_now();
    e.bytes = bytes;
    e.seq = seq;
    events_.push_back(e);
    last_vtime_ = vt1;
  }

  void record_recv(double vt0, double vt1, int src, long tag,
                   std::uint64_t bytes, std::uint32_t peer_seq,
                   RecvBound bound) {
    flush_compute(vt0);
    TraceEvent e;
    e.kind = TraceEventKind::kRecv;
    e.bound = bound;
    e.peer = src;
    e.tag = tag;
    e.vt0 = vt0;
    e.vt1 = vt1;
    e.wall_ns = wall_now();
    e.bytes = bytes;
    e.peer_seq = peer_seq;
    events_.push_back(e);
    last_vtime_ = vt1;
  }

  void span_begin(double vtime, const char* name, std::int64_t arg) {
    flush_compute(vtime);
    TraceEvent e;
    e.kind = TraceEventKind::kSpanBegin;
    e.vt0 = vtime;
    e.vt1 = vtime;
    e.wall_ns = wall_now();
    e.name = name;
    e.arg = arg;
    events_.push_back(e);
  }

  void span_end(double vtime) {
    flush_compute(vtime);
    TraceEvent e;
    e.kind = TraceEventKind::kSpanEnd;
    e.vt0 = vtime;
    e.vt1 = vtime;
    e.wall_ns = wall_now();
    events_.push_back(e);
  }

  /// Flushes the final compute slice up to the processor's final
  /// virtual time.  Called once per run, after the body returns, so
  /// the per-proc timeline covers [0, final vtime] completely (the
  /// critical-path walk relies on that coverage).
  void finalize(double vtime) { flush_compute(vtime); }

 private:
  /// Emits one compute slice covering the virtual time charged since
  /// the last recorded point (full mode only: in spans mode the gaps
  /// are implied by consecutive span timestamps).
  void flush_compute(double vtime) {
    if (!full_ || vtime <= last_vtime_) return;
    TraceEvent e;
    e.kind = TraceEventKind::kCompute;
    e.vt0 = last_vtime_;
    e.vt1 = vtime;
    e.wall_ns = wall_now();
    events_.push_back(e);
    last_vtime_ = vtime;
  }

  std::int64_t wall_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_{};
  double last_vtime_ = 0.0;
  std::uint32_t next_send_seq_ = 0;
  int proc_id_ = -1;
  bool full_ = false;
};

/// A completed run's trace: one ProcTrace lane per virtual processor.
/// Owned by RunResult (shared_ptr) so callers can hand it to the
/// exporters (parix/metrics.h) after the run.
struct Trace {
  TraceMode mode = TraceMode::kOff;
  int nprocs = 0;
  std::chrono::steady_clock::time_point wall_epoch{};
  std::vector<ProcTrace> procs;
};

}  // namespace skil::parix
