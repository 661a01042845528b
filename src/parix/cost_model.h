// Virtual-time cost model for the Parix-like runtime.
//
// The paper's measurements were taken on a Parsytec MC with 64 T800
// transputers (20 MHz, ~10 MIPS integer, on-chip FPU, 1 MB per node)
// connected as a 2-D mesh and running the Parix operating system
// (20 Mbit/s links, high software message startup).  The reproduction
// executes real SPMD code on host threads but *times* it with this
// deterministic model: each processor accumulates virtual microseconds
// from the operations it actually performs, and message timestamps carry
// transfer costs.  Total program time is the maximum virtual time over
// all processors.
//
// Determinism: virtual time depends only on operation counts and on the
// (structurally determined) communication pattern, never on host thread
// scheduling, so every run of a given program reproduces identical
// timings.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace skil::parix {

/// Abstract operation kinds charged by programs and skeletons.
/// The three language baselines differ in *which* operations they
/// perform per element (see DESIGN.md section 2): hand-written C charges
/// plain element ops; Skil's instantiated skeletons add one first-order
/// call per functional-argument application; the DPFL baseline adds
/// closure (indirect) calls, heap allocations for boxing/cons cells and
/// copies for immutable updates.
enum class Op : int {
  kIntOp = 0,      ///< integer load/op/store on an array element
  kFloatOp,        ///< floating-point element operation
  kCall,           ///< first-order function call (instantiated skeleton arg)
  kIndirectCall,   ///< call through a closure / function pointer
  kAlloc,          ///< heap allocation (box, cons cell, array copy header)
  kCopyWord,       ///< copy of one machine word (immutable-update traffic)
  kCount_          ///< number of kinds (internal)
};

inline constexpr int kOpKinds = static_cast<int>(Op::kCount_);

/// How a send interacts with the sender's virtual clock.
enum class SendMode {
  kAsync,  ///< sender pays startup only; transfer overlaps computation
  kSync,   ///< sender blocks until the message is delivered (old Parix-C)
};

/// A processor's link channels, each holding when its latest message
/// finishes streaming: the T800 had four bidirectional links, modelled
/// as four independent channels per direction.
struct LinkChannels {
  std::array<double, 4> out{};
  std::array<double, 4> in{};

  /// The earliest-free channel of `side` (the first of equals).
  static double& earliest(std::array<double, 4>& side) {
    double* best = &side[0];
    for (double& ch : side)
      if (ch < *best) best = &ch;
    return *best;
  }
};

struct SendTimes {
  double arrival;  ///< when the last hop has delivered the message
  double done;     ///< the sender's clock after the send
};

struct RecvTimes {
  double queued;     ///< finish time behind the receiver's earlier arrivals
  double delivered;  ///< max(arrival, queued)
  double ready;      ///< the receiver's clock after the receive
};

/// Calibrated unit costs in microseconds.  See DESIGN.md section 5 for
/// the calibration rationale against the 20 MHz T800 + Parix links.
struct CostModel {
  /// One integer element operation through the array-access macros
  /// (load + op + store + index arithmetic): ~130 cycles of 1996
  /// compiler output on the 20 MHz T800.  This constant anchors the
  /// absolute scale: with it, the model reproduces the paper's
  /// absolute seconds within ~15% (e.g. 237s modeled vs 234.29s
  /// reported for shortest paths on 2x2, Table 1).
  double int_op_us = 6.5;
  double float_op_us = 9.0;
  /// Residual per-application overhead of an *instantiated* (inlined)
  /// functional argument: the paper's translation inlines skeleton
  /// arguments, so what remains versus hand-written C is only extra
  /// index arithmetic and weaker register allocation -- a fraction of
  /// a true call.
  double call_us = 0.9;
  /// One application through the lazy graph reducer's apply machinery
  /// (argument check, node update, indirect jump) -- tens of
  /// instructions on a cache-less 20 MHz machine.
  double indirect_call_us = 34.0;
  /// One reduction-graph node / heap cell: a nursery bump allocation
  /// plus amortised garbage collection.
  double alloc_us = 6.0;
  double copy_word_us = 0.6;

  double msg_startup_us = 400.0;   ///< Parix sender-side software setup
  double msg_per_byte_us = 0.7;    ///< ~1.4 MB/s effective link bandwidth
  /// Software forwarding cost per intermediate hop.  The T800 had no
  /// routing hardware: Parix forwarded messages through intermediate
  /// processors in software, so every extra hop repeats the per-byte
  /// transfer (see transfer_us) plus this handling cost.  This is why
  /// the paper's virtual topologies (which keep neighbours close) pay
  /// off, and what the old C version of Table 1 lost.
  double msg_per_hop_us = 200.0;
  double recv_overhead_us = 200.0; ///< receiver-side software overhead

  SendMode default_send_mode = SendMode::kAsync;

  /// Cost per operation kind.  This sits on the charging hot path (one
  /// call per skeleton loop and per element access), so it must not
  /// materialise a lookup table per call.
  double unit(Op kind) const {
    switch (kind) {
      case Op::kIntOp: return int_op_us;
      case Op::kFloatOp: return float_op_us;
      case Op::kCall: return call_us;
      case Op::kIndirectCall: return indirect_call_us;
      case Op::kAlloc: return alloc_us;
      case Op::kCopyWord: return copy_word_us;
      case Op::kCount_: break;
    }
    return 0.0;
  }

  /// Wire time of one message of `bytes` payload over `hops` mesh
  /// links: store-and-forward, so the byte cost repeats per hop and
  /// each intermediate processor adds software handling time.
  double transfer_us(std::size_t bytes, int hops) const {
    const int eff_hops = hops > 1 ? hops : 1;
    return msg_startup_us +
           msg_per_byte_us * static_cast<double>(bytes) * eff_hops +
           msg_per_hop_us * static_cast<double>(eff_hops - 1);
  }

  // Message timing.  Proc and SKIL_COLL=auto's dry run (collectives.h)
  // time every message here; the operation order is the vtime
  // artefact, so do not reorder it.

  /// A send of `bytes` over `hops` by a processor at clock `vtime`:
  /// software startup on its clock, then the first hop occupies its
  /// earliest-free outgoing channel, so a burst of sends serialises
  /// once all four stream (what makes a flat "send to everyone"
  /// broadcast degrade on large networks, unlike the skeletons'
  /// trees); the remaining hops store and forward.
  SendTimes time_send(LinkChannels& links, double vtime, std::size_t bytes,
                      int hops, SendMode mode) const {
    const double ready = vtime + msg_startup_us;
    const double first_hop_us = msg_per_byte_us * static_cast<double>(bytes);
    double& channel = LinkChannels::earliest(links.out);
    const double link_start = std::max(ready, channel);
    channel = link_start + first_hop_us;
    const double arrival =
        link_start + transfer_us(bytes, hops) - msg_startup_us;
    return {arrival, mode == SendMode::kSync ? arrival : ready};
  }

  /// The receive of a message of `bytes` arriving at `arrival`, by a
  /// processor at clock `vtime`.  Deliveries serialise on its incoming
  /// channels, so back-to-back arrivals queue up (what makes flat
  /// gathers onto one root lose to the paper's tree folds on larger
  /// networks); its clock advances to the later of its own time plus
  /// the receive overhead and the delivery.
  RecvTimes time_recv(LinkChannels& links, double vtime, std::size_t bytes,
                      double arrival) const {
    const double last_hop_us = msg_per_byte_us * static_cast<double>(bytes);
    double& channel = LinkChannels::earliest(links.in);
    const double queued = channel + last_hop_us;
    const double delivered = std::max(arrival, queued);
    channel = delivered;
    return {queued, delivered, std::max(vtime + recv_overhead_us, delivered)};
  }

  /// Default model: the paper's machine with Parix asynchronous links
  /// and virtual topologies available (the configuration Skil uses).
  static CostModel t800();

  /// The "older C version" configuration of paper section 5.1: no
  /// virtual topologies (callers must use Distr::kDefault) and
  /// synchronous communication.
  static CostModel t800_sync();
};

/// Per-processor operation statistics (also aggregated per run).
struct Stats {
  std::array<std::uint64_t, kOpKinds> ops{};
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  double compute_us = 0.0;  ///< virtual time spent in charged computation
  double comm_us = 0.0;     ///< virtual time spent in communication

  Stats& operator+=(const Stats& other);

  /// Bitwise comparison (the differential engine tests assert that the
  /// two execution engines produce identical accounting).
  bool operator==(const Stats&) const = default;
};

}  // namespace skil::parix
