// Per-processor SPMD execution context.
//
// Every virtual processor runs the SPMD program body on its own thread
// with a Proc& handle giving it its identity, its virtual clock, the
// cost-charging interface and point-to-point messaging.  All virtual
// time is deterministic: it derives from charged operation counts and
// from message timestamps, never from host scheduling.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "parix/charge_tape.h"
#include "parix/coll.h"
#include "parix/machine.h"
#include "parix/trace.h"
#include "support/error.h"

namespace skil::parix {

class Proc {
 public:
  Proc(Machine& machine, int id)
      : machine_(&machine), id_(id), nprocs_(machine.nprocs()) {
    // Unit costs are immutable per run; the flat table turns the
    // per-charge cost lookup into one indexed load (charge sits on
    // the per-element hot path of every skeleton).
    for (int k = 0; k < kOpKinds; ++k)
      unit_[k] = machine.cost().unit(static_cast<Op>(k));
  }

  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  int id() const { return id_; }
  int nprocs() const { return nprocs_; }
  Machine& machine() { return *machine_; }
  const CostModel& cost() const { return machine_->cost(); }

  /// Current virtual time in microseconds.  Observing the clock is a
  /// settlement point: any deferred replays fold in first (in append
  /// order, so the value is the one eager accounting would have
  /// produced).
  double vtime() {
    maybe_settle();
    return vtime_;
  }

  /// Charges `count` operations of the given kind to the virtual clock.
  /// Skeleton inner loops call this once per loop with the element
  /// count, keeping host-side overhead negligible.  Eager charges
  /// settle the deferred ledger first so the chain order stays the
  /// program's charge order.
  void charge(Op kind, std::uint64_t count = 1) {
    maybe_settle();
    const double us =
        unit_[static_cast<int>(kind)] * static_cast<double>(count);
    vtime_ += us;
    stats_.compute_us += us;
    stats_.ops[static_cast<int>(kind)] += count;
  }

  /// Bulk charge for skeleton loops: `elems` elements, each costing
  /// `ops_per_elem` operations of `kind`, booked as one clock tick.
  ///
  /// Invariant (DESIGN.md, "Execution engine"): this must be
  /// arithmetic-identical to charge(kind, elems * ops_per_elem) --
  /// both perform exactly one unit * count multiply and one vtime
  /// addition, so replacing a loop's charges with charge_elems never
  /// moves the virtual clock by even an ulp.
  void charge_elems(Op kind, std::uint64_t elems,
                    std::uint64_t ops_per_elem = 1) {
    charge(kind, elems * ops_per_elem);
  }

  /// Replays a recorded charge sequence `times` times, as if charge()
  /// had been called for every tape entry, per repetition, in order.
  ///
  /// Invariant (DESIGN.md sections 8 and 10): the settled result is
  /// arithmetic-identical to
  ///
  ///   for (t = 0; t < times; ++t)
  ///     for (entry : tape) charge(entry.kind, entry.count);
  ///
  /// Since PR 4 the replay is *deferred*: the entries and their
  /// precomputed unit * count addends are appended to the charge
  /// ledger and folded into the clock at the next settlement point
  /// (send, recv, eager charge, stats/vtime read, trace flush).
  /// Deferral cannot move the clock -- settlement walks the records in
  /// append order through the identical dependent FP-add chain -- but
  /// it lets settlement retire a record's repetitions in closed form
  /// instead of executing them (charge_tape.h).
  void replay(const ChargeTape& tape, std::uint64_t times) {
    SKIL_ASSERT(tape.size() <= ChargeTape::kMaxEntries,
                "replay: tape exceeds kMaxEntries");
    ledger_.append_replay(tape, unit_.data(), times);
  }

  /// Defers one charge(kind, count) behind any pending replays.  Taped
  /// skeletons book their bulk tail charges through this (via the
  /// DeferredCharges sink) so the deferral window survives past the
  /// skeleton boundary instead of collapsing at the first tail charge.
  void charge_deferred(Op kind, std::uint64_t count = 1) {
    ledger_.append_charge(
        kind, count,
        unit_[static_cast<int>(kind)] * static_cast<double>(count));
  }

  /// Bulk deferred charge, mirroring charge_elems.
  void charge_elems_deferred(Op kind, std::uint64_t elems,
                             std::uint64_t ops_per_elem = 1) {
    charge_deferred(kind, elems * ops_per_elem);
  }

  /// Folds any deferred replays into the clock.  One untaken branch
  /// when nothing is deferred (the ledger stays empty between a
  /// settlement and the next replay).
  void maybe_settle() {
    if (!ledger_.empty()) [[unlikely]] settle_pending();
  }

  /// Charges raw virtual microseconds of computation (used by tests and
  /// by code modelling costs outside the Op vocabulary).
  void charge_us(double us) {
    maybe_settle();
    vtime_ += us;
    stats_.compute_us += us;
  }

  /// Sends `value` to processor `dst` under `tag`.
  ///
  /// Asynchronous mode (Parix with virtual topologies, the mode Skil's
  /// skeletons use): the sender pays only the software startup cost and
  /// the transfer overlaps its further computation.  Synchronous mode
  /// (the "older C version" of paper section 5.1): the sender's clock
  /// advances to the delivery time.
  template <class T>
  void send(int dst, long tag, T value) {
    send_mode(dst, tag, std::move(value), cost().default_send_mode);
  }

  template <class T>
  void send_mode(int dst, long tag, T value, SendMode mode) {
    SKIL_ASSERT(dst >= 0 && dst < nprocs_, "send: bad destination " +
                                               std::to_string(dst));
    dispatch(make_message<T>(id_, tag, std::move(value), 0.0), dst, mode);
  }

  /// Sends a shared immutable buffer without copying the payload: the
  /// message references the caller's buffer, which the caller keeps
  /// reading while the message is in flight.  The receiver's recv<T>
  /// matches it like any other T message.  Host-side only the copy
  /// disappears; whatever send-buffer copy the modeled 1996 machine
  /// performed must still be charged by the caller (see
  /// skeleton_gen_mult.h).
  template <class T>
  void send_buffer(int dst, long tag, std::shared_ptr<const T> buf,
                   SendMode mode) {
    SKIL_ASSERT(dst >= 0 && dst < nprocs_, "send: bad destination " +
                                               std::to_string(dst));
    dispatch(make_shared_message<T>(id_, tag, std::move(buf), 0.0), dst, mode);
  }

  /// Receives a value of type T from `src` under `tag`.  The virtual
  /// clock advances to the later of (local time + receive overhead) and
  /// the message's delivery time (CostModel::time_recv).
  template <class T>
  T recv(int src, long tag) {
    Message msg = receive(src, tag, typeid(T));
    return take_payload<T>(msg);
  }

  /// The mirror of send_buffer: receives like recv<T>, but hands back
  /// the message's payload itself, shared and immutable, instead of
  /// extracting a copy.  A shared buffer's other owners may be reading
  /// it still, so it must never be written through.
  template <class T>
  std::shared_ptr<const T> recv_buffer(int src, long tag) {
    Message msg = receive(src, tag, typeid(T));
    return std::static_pointer_cast<const T>(std::move(msg.payload));
  }

  /// Allocates a fresh tag from the collective tag space.  SPMD
  /// programs call collectives in identical order on every processor,
  /// so matching calls draw matching tags.  Skeletons draw exactly one
  /// tag per invocation and derive sub-tags from it.
  long fresh_tag() { return fresh_tag(0); }

  /// Fresh tag on communicator `comm`'s tag stream.  Each communicator
  /// (0 = the full machine, >0 = a Topology row/column subgroup) owns a
  /// disjoint kCommTagSpan-wide slice of the collective tag space, so
  /// collectives on different sub-communicators can never match each
  /// other's messages even when they run concurrently.  Stream 0 is
  /// bit-identical to the pre-subgroup formula.
  long fresh_tag(int comm) {
    return kCollectiveTagBase + static_cast<long>(comm) * kCommTagSpan +
           kTagStride * next_collective_seq_++;
  }

  /// Number of sub-tags a skeleton may derive from one fresh_tag().
  static constexpr long kTagStride = 16;

  /// Width of one communicator's tag stream (fresh_tag(comm)).
  static constexpr long kCommTagSpan = 1L << 32;

  /// First tag of the collective tag space (public so the metrics
  /// exporter can classify app vs collective tags in histograms).
  static constexpr long kCollectiveTagBase = 1L << 40;

  /// Reading the stats is a settlement point, like vtime().
  Stats& stats() {
    maybe_settle();
    return stats_;
  }

  /// Attaches a per-proc trace recorder (parix/trace.h); nullptr turns
  /// tracing off.  Set by spmd_run before the body starts; single
  /// threaded at that point.
  void set_trace(ProcTrace* trace) { trace_ = trace; }
  ProcTrace* trace() { return trace_; }

  /// Selects whether skeleton compositions may run fused
  /// (charge_tape.h FuseMode; DESIGN.md section 13).  Set by spmd_run
  /// from RunConfig::fuse before the body starts.  kOff executes every
  /// composition exactly as PR 6 did (vtimes bit-identical to the seed
  /// goldens); kOn lets the apps/combinators take the one-pass fused
  /// taped variants (same array results, lower vtimes).
  void set_fuse_mode(FuseMode mode) { fuse_mode_ = mode; }

  /// Selects which collective-algorithm family this processor's
  /// collectives use (parix/coll.h; DESIGN.md section 15).  Set by
  /// spmd_run from RunConfig::coll before the body starts.  kTree
  /// replays the seed algorithms message for message; the other modes
  /// keep array results bit-identical while changing virtual time.
  void set_coll_mode(CollMode mode) { coll_mode_ = mode; }
  CollMode coll_mode() const { return coll_mode_; }

  /// Per-proc collective statistics (parix/coll.h).  Host-side
  /// diagnostics only; summed into RunResult::coll after the run.
  CollectiveCounters& coll_counters() { return coll_counters_; }
  const CollectiveCounters& coll_counters() const { return coll_counters_; }

  /// Per-proc settlement and fusion counts (charge_tape.h), summed into
  /// RunResult::settle and ::fusion after the run's last settlement.
  /// Settlement counts itself; fused paths note through fusion().
  const SettleCounters& settlement() const { return settle_counters_; }
  FusionCounters& fusion() { return fusion_counters_; }

  /// The memoized SKIL_COLL=auto value for `key` (collectives.h): a
  /// lock-free hit in this processor's memo, else the run's
  /// (Machine::coll_pick), which evaluates `compute()` once for all
  /// members.
  template <class Compute>
  std::uint8_t coll_pick(const CollPickKey& key, Compute&& compute) {
    return coll_picks_.get(key,
                           [&] { return machine_->coll_pick(key, compute); });
  }

  /// True when the fused taped variants may run (FuseMode::kOn).
  bool fusing() const { return fuse_mode_ == FuseMode::kOn; }

  /// Opens an app/skeleton-level trace span (a point event on both
  /// timelines; see TraceSpan for the RAII pairing).  With tracing off
  /// this is one untaken branch -- it must stay cheap enough to sit in
  /// every skeleton entry point.
  void span_begin(const char* name, std::int64_t arg = -1) {
    if (trace_ != nullptr) [[unlikely]] {
      // Span timestamps observe the clock, so tracing settles here;
      // with tracing off the deferral window runs through skeleton
      // boundaries untouched.  Settlement order is the same either
      // way, so vtimes stay bit-identical in every trace mode.
      maybe_settle();
      trace_->span_begin(vtime_, name, arg);
    }
  }
  void span_end() {
    if (trace_ != nullptr) [[unlikely]] {
      maybe_settle();
      trace_->span_end(vtime_);
    }
  }

 private:
  /// Out-of-line slow path of maybe_settle (proc.cpp): settles the
  /// ledger algebraically, inline.
  void settle_pending();

  /// Timestamping (CostModel::time_send) and accounting shared by
  /// every send flavour.
  void dispatch(Message msg, int dst, SendMode mode) {
    // Sending observes the clock (the startup charge): settle.
    maybe_settle();
    const SendTimes t = cost().time_send(links_, vtime_, msg.bytes,
                                         machine_->hops(id_, dst), mode);
    msg.arrival_vtime = t.arrival;
    if (trace_ != nullptr) [[unlikely]] {
      if (trace_->full()) {
        msg.trace_seq = trace_->alloc_send_seq();
        trace_->record_send(vtime_, t.done, dst, msg.tag, msg.bytes,
                            msg.trace_seq);
      }
    }
    stats_.comm_us += t.done - vtime_;
    vtime_ = t.done;
    stats_.messages_sent += 1;
    stats_.bytes_sent += msg.bytes;
    machine_->mailbox(dst).put(std::move(msg));
  }

  /// Takes the matching message and books its receive: the timing
  /// (CostModel::time_recv), trace event and accounting shared by every
  /// receive flavour.
  Message receive(int src, long tag, const std::type_info& type) {
    SKIL_ASSERT(src >= 0 && src < nprocs_,
                "recv: bad source " + std::to_string(src));
    Message msg = machine_->blocking_get(id_, src, tag);
    SKIL_ASSERT(msg.type != nullptr && *msg.type == type,
                std::string("recv: payload type mismatch for tag ") +
                    std::to_string(tag));
    // The receive timing observes the clock.
    maybe_settle();
    const RecvTimes t =
        cost().time_recv(links_, vtime_, msg.bytes, msg.arrival_vtime);
    if (trace_ != nullptr) [[unlikely]] {
      if (trace_->full()) {
        // Which constraint bound `ready` is the causal edge the
        // critical-path analyzer follows; ties prefer the local clock,
        // then the arrival (a tie means both paths are critical --
        // either choice yields a maximal chain).
        const RecvBound bound =
            vtime_ + cost().recv_overhead_us >= t.delivered
                ? RecvBound::kLocal
            : msg.arrival_vtime >= t.queued ? RecvBound::kArrival
                                            : RecvBound::kChannel;
        trace_->record_recv(vtime_, t.ready, src, tag, msg.bytes,
                            msg.trace_seq, bound);
      }
    }
    stats_.comm_us += t.ready - vtime_;
    vtime_ = t.ready;
    stats_.messages_received += 1;
    stats_.bytes_received += msg.bytes;
    return msg;
  }

  Machine* machine_;
  int id_;
  int nprocs_;

  double vtime_ = 0.0;
  std::array<double, kOpKinds> unit_{};
  LinkChannels links_;
  long next_collective_seq_ = 0;
  Stats stats_;
  /// Deferred replays/charges pending settlement (charge_tape.h).
  ChargeLedger ledger_;
  /// Skeleton-composition fusion switch (charge_tape.h).
  FuseMode fuse_mode_ = default_fuse_mode();
  /// Collective-algorithm family switch (parix/coll.h).
  CollMode coll_mode_ = default_coll_mode();
  /// Collective, settlement and fusion statistics; never read by the
  /// cost model, so recording them cannot perturb virtual time.
  CollectiveCounters coll_counters_;
  SettleCounters settle_counters_;
  FusionCounters fusion_counters_;
  /// SKIL_COLL=auto decisions this processor has looked up.
  CollPickMemo coll_picks_;
  /// Per-proc trace recorder; nullptr (the default) keeps every trace
  /// hook down to one untaken branch so vtimes stay bit-identical.
  ProcTrace* trace_ = nullptr;
};

/// Charge sink that defers into the processor's ledger instead of
/// settling.  Same interface as Proc and ChargeTape, so the shared
/// charge helpers (fn.h, farray.h) can book a taped skeleton's bulk
/// tail charges without closing the deferral window -- the sequence
/// settles later in exactly this order.
class DeferredCharges {
 public:
  explicit DeferredCharges(Proc& proc) : proc_(&proc) {}

  void charge(Op kind, std::uint64_t count = 1) {
    proc_->charge_deferred(kind, count);
  }
  void charge_elems(Op kind, std::uint64_t elems,
                    std::uint64_t ops_per_elem = 1) {
    proc_->charge_elems_deferred(kind, elems, ops_per_elem);
  }

 private:
  Proc* proc_;
};

/// RAII pairing for Proc::span_begin/span_end.  Skeletons and apps open
/// one per logical phase; spans nest per processor and the recorder
/// checks the pairing when traces are exported.
class TraceSpan {
 public:
  TraceSpan(Proc& proc, const char* name, std::int64_t arg = -1)
      : proc_(&proc) {
    proc.span_begin(name, arg);
  }
  ~TraceSpan() { proc_->span_end(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Proc* proc_;
};

}  // namespace skil::parix
