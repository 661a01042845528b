// Collective operations over a virtual topology.
//
// These are the building blocks the paper's skeletons use internally:
// array_fold folds partition results "along the edges of a virtual tree
// topology, with the result finally collected at the root" and then
// broadcast back; array_broadcast_part broadcasts one partition along
// the same tree; array_gen_mult rotates partitions around torus rows
// and columns.
//
// All collectives are SPMD: every processor of the communicator must
// call them in the same order.  Each invocation draws one fresh tag on
// the communicator's tag stream (every member draws the same one) and
// derives per-step sub-tags from it.  Trees are binomial trees over
// *virtual* ranks, so the underlying hop costs honour the topology
// embedding.
//
// Besides the seed binomial tree (the algorithm zoo, parix/coll.h and
// DESIGN.md section 15), allgather can run as a ring or as Bruck's
// recursive-doubling dissemination, broadcast of large buffers can run
// chunk-pipelined around the ring (bandwidth ~beta*n instead of
// beta*n*log p), and elementwise allreduce can run Rabenseifner's
// recursive-halving reduce-scatter + recursive-doubling allgather or a
// ring reduce-scatter + allgather (both halving the bandwidth term).
// Each algorithm's communication is written once, as a plan (see
// "plans" below): the collectives run it on payloads, and kAuto's dry
// run runs it on sizes.  The family is picked per call from
// Proc::coll_mode(); kAuto dry-runs the candidates over the
// embedding's actual hop distances and keeps the tree unless another
// algorithm is no worse on both completion time and per-call gap (see
// "kAuto selection" below).  Array results are bit-identical in every
// mode: scalar allreduce replays the exact binomial-tree combine
// bracketing locally after gathering the raw contributions, and the
// reassociating elementwise algorithms only run when the caller
// declares the operator order-insensitive.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "parix/coll.h"
#include "parix/proc.h"
#include "parix/topology.h"

namespace skil::parix {

namespace coll_detail {

// --- root-relative ranks --------------------------------------------

/// Root-relative rank arithmetic shared by every rooted collective:
/// `rel` is this processor's rank relative to the root and hw(r) maps
/// a root-relative rank back to its hardware processor.
struct TreeWalk {
  int p;
  int vroot;
  int rel;
  const Topology* topo;

  int hw(int r) const { return topo->hw_of((r + vroot) % p); }
};

inline TreeWalk walk_from_root(Proc& proc, const Topology& topo,
                               int root_hw) {
  const int p = topo.nprocs();
  const int vroot = topo.vrank_of(root_hw);
  const int rel = (topo.vrank_of(proc.id()) - vroot + p) % p;
  return TreeWalk{p, vroot, rel, &topo};
}

// --- counter plumbing -----------------------------------------------

inline void note_call(Proc& proc, CollOp op, CollAlgo algo) {
  proc.coll_counters().calls[static_cast<int>(op)][static_cast<int>(algo)] +=
      1;
}

inline void note_steps(Proc& proc, CollOp op, std::uint64_t n = 1) {
  proc.coll_counters().steps[static_cast<int>(op)] += n;
}

/// Books a collective edge's payload wire bytes and physical hop
/// distance under `op`.  Host-side counters only.
inline void note_edge(Proc& proc, const Topology& topo, CollOp op, int dst,
                      std::size_t bytes) {
  CollectiveCounters& c = proc.coll_counters();
  c.bytes[static_cast<int>(op)] += bytes;
  c.hops[static_cast<int>(op)] +=
      static_cast<std::uint64_t>(topo.hops(proc.id(), dst));
}

/// Send wrapper that books the edge before posting the send; the
/// message is priced exactly as a plain proc.send would be.
template <class T>
void coll_send(Proc& proc, const Topology& topo, CollOp op, int dst, long tag,
               T value) {
  note_edge(proc, topo, op, dst, payload_bytes(value));
  proc.send<T>(dst, tag, std::move(value));
}

/// The shared-buffer form posts `buf` itself, uncopied.
template <class T>
void coll_send(Proc& proc, const Topology& topo, CollOp op, int dst, long tag,
               std::shared_ptr<const T> buf) {
  note_edge(proc, topo, op, dst, payload_bytes(*buf));
  proc.send_buffer<T>(dst, tag, std::move(buf), proc.cost().default_send_mode);
}

/// Number of chunks the ring-pipelined broadcast always splits into.
/// Fixed (not size-dependent) so non-root members need no header
/// round to learn the chunk count; empty chunks are legal.  Must not
/// exceed Proc::kTagStride (one sub-tag per chunk).
inline constexpr int kBcastChunks = 16;

/// Wire size of T when it is knowable from the type alone; 0 means
/// "unknown", which keeps kAuto on the seed tree algorithms.
template <class T>
constexpr std::size_t wire_size_hint() {
  if constexpr (std::is_trivially_copyable_v<T>)
    return sizeof(T);
  else
    return 0;
}

inline bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

/// First element of part j when n elements split into p near-equal
/// parts: allreduce_elems' segments and the pipelined broadcast's
/// chunks.
inline std::size_t segment_start(std::size_t n, int p, int j) {
  return n * static_cast<std::size_t>(j) / static_cast<std::size_t>(p);
}

// --- plans: each algorithm's communication, written once -------------
//
// A plan walks one member's part in a call, in program order, and hands
// each step to a callback.  The collectives below run a plan on
// payloads through Proc; schedule_for (coll_pick.cpp) runs the same
// plan into a Schedule sized from a CollPickKey, so kAuto prices the
// very messages the runtime sends.  The callback is a template
// parameter, so on the real path it inlines and a plan allocates
// nothing.

/// One step of a plan.
struct PlanStep {
  enum Dir : std::uint8_t { kSend, kRecv };
  /// What a receive does with the data it brings: keep it, or fold it
  /// into the member's own, as the first or the second operand.
  enum Fold : std::uint8_t { kKeep, kIncomingFirst, kIncomingSecond };

  Dir dir;
  int peer;             ///< the other member's rank in the plan's numbering
  int sub = 0;          ///< sub-tag: offset from the call's fresh tag
  std::size_t lo = 0;   ///< the part carried, [lo, hi), where a plan says
  std::size_t hi = 0;
  Fold fold = kKeep;
};

/// Binomial broadcast from rank 0, ranks relative to the root: receive
/// from the parent, then send to each child, the farthest first.
template <class F>
void tree_bcast_plan(int p, int rel, F&& f) {
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      f(PlanStep{PlanStep::kRecv, rel - mask});
      break;
    }
    mask <<= 1;
  }
  // mask is now the receiver's lowest set bit (or the first power of
  // two >= p at the root); children sit at rel + mask/2^k.
  for (mask >>= 1; mask > 0; mask >>= 1)
    if (rel + mask < p) f(PlanStep{PlanStep::kSend, rel + mask});
}

/// Binomial reduce onto rank 0, ranks relative to the root: fold in
/// each child's value, the nearest first, then send to the parent.
template <class F>
void tree_reduce_plan(int p, int rel, F&& f) {
  for (int mask = 1; mask < p; mask <<= 1) {
    if (rel & mask) {
      f(PlanStep{PlanStep::kSend, rel - mask});
      return;
    }
    if (rel + mask < p)
      f(PlanStep{PlanStep::kRecv, rel + mask, 0, 0, 0,
                 PlanStep::kIncomingSecond});
  }
}

/// Chain from rank 0 along ranks 0 -> 1 -> ... -> p-1, relative to the
/// root, of the root's n elements in `chunks` chunks: every member
/// receives chunk c from its predecessor and forwards it before taking
/// chunk c+1, so all edges carry data at once.  Chunk c travels under
/// sub-tag c and holds elements [lo, hi) (segment_start).
template <class F>
void ring_chain_plan(int p, int rel, int chunks, std::size_t n, F&& f) {
  for (int c = 0; c < chunks; ++c) {
    const std::size_t lo = segment_start(n, chunks, c);
    const std::size_t hi = segment_start(n, chunks, c + 1);
    if (rel > 0) f(PlanStep{PlanStep::kRecv, rel - 1, c, lo, hi});
    if (rel + 1 < p) f(PlanStep{PlanStep::kSend, rel + 1, c, lo, hi});
  }
}

/// Gather onto virtual rank `root`: every other member sends; the root
/// receives in virtual-rank order.
template <class F>
void gather_plan(int p, int me, int root, F&& f) {
  if (me != root) {
    f(PlanStep{PlanStep::kSend, root});
    return;
  }
  for (int v = 0; v < p; ++v)
    if (v != root) f(PlanStep{PlanStep::kRecv, v});
}

/// Ring allgather over virtual ranks: p-1 rounds, each sending the
/// successor one item (the member's own first, then the one it
/// received last) and receiving one from the predecessor.  All rounds
/// share one tag: the mailbox is FIFO per (source, tag) and every
/// round receives from the same neighbour.
template <class F>
void ring_allgather_plan(int p, int me, F&& f) {
  for (int s = 0; s + 1 < p; ++s) {
    f(PlanStep{PlanStep::kSend, (me + 1) % p});
    f(PlanStep{PlanStep::kRecv, (me - 1 + p) % p});
  }
}

/// Bruck's dissemination allgather over virtual ranks, for any p: round
/// k, under sub-tag k, sends the first min(2^k, p - 2^k) items
/// collected so far, [0, cnt), to rank me - 2^k and receives as many
/// from me + 2^k into [2^k, 2^k + cnt); item j is the contribution of
/// rank me + j.
template <class F>
void bruck_plan(int p, int me, F&& f) {
  const auto at = [](int i) { return static_cast<std::size_t>(i); };
  for (int len = 1, round = 0; len < p; ++round) {
    const int cnt = std::min(len, p - len);
    f(PlanStep{PlanStep::kSend, (me - len + p) % p, round, 0, at(cnt)});
    f(PlanStep{PlanStep::kRecv, (me + len) % p, round, at(len),
               at(len + cnt)});
    len += cnt;
  }
}

/// Ring reduce-scatter + ring allgather of n elements cut into p
/// segments (segment_start), over virtual ranks; [lo, hi) are element
/// offsets.  Reduce-scatter, under sub-tag 0: step s sends the running
/// partial of segment me - s to the successor and folds the
/// predecessor's partial of segment me - s - 1 in, incoming first, so
/// after p - 1 steps segment me + 1 is complete, accumulated in ring
/// order.  Allgather, under sub-tag 1: step s passes segment
/// me + 1 - s on and keeps segment me - s.
template <class F>
void ring_elems_plan(int p, int me, std::size_t n, F&& f) {
  const auto step = [&](PlanStep::Dir dir, int k, int sub,
                        PlanStep::Fold fold) {
    const int j = ((k % p) + p) % p;
    return PlanStep{dir, dir == PlanStep::kSend ? (me + 1) % p
                                                : (me - 1 + p) % p,
                    sub, segment_start(n, p, j), segment_start(n, p, j + 1),
                    fold};
  };
  for (int s = 0; s + 1 < p; ++s) {
    f(step(PlanStep::kSend, me - s, 0, PlanStep::kKeep));
    f(step(PlanStep::kRecv, me - s - 1, 0, PlanStep::kIncomingFirst));
  }
  for (int s = 0; s + 1 < p; ++s) {
    f(step(PlanStep::kSend, me + 1 - s, 1, PlanStep::kKeep));
    f(step(PlanStep::kRecv, me - s, 1, PlanStep::kKeep));
  }
}

/// Rabenseifner's allreduce of n elements over p = 2^k virtual ranks;
/// [lo, hi) are element offsets.  Recursive halving reduce-scatter,
/// under sub-tag 0: with partner me ^ mask, the lower rank keeps the
/// lower half of the current segment range and folds the partner's
/// half in as the second operand, the upper rank as the first, so the
/// bracketing is op(lower group, upper group) whatever the rank.
/// Recursive doubling allgather, under sub-tag 1, reverses the walk.
template <class F>
void rabenseifner_plan(int p, int me, std::size_t n, F&& f) {
  const auto step = [&](PlanStep::Dir dir, int partner, int sub, int first,
                        int count, PlanStep::Fold fold) {
    return PlanStep{dir, partner, sub, segment_start(n, p, first),
                    segment_start(n, p, first + count), fold};
  };
  for (int mask = p / 2; mask >= 1; mask >>= 1) {
    const int base = (me / (2 * mask)) * (2 * mask);
    const bool lower = (me & mask) == 0;
    f(step(PlanStep::kSend, me ^ mask, 0, lower ? base + mask : base, mask,
           PlanStep::kKeep));
    f(step(PlanStep::kRecv, me ^ mask, 0, lower ? base : base + mask, mask,
           lower ? PlanStep::kIncomingSecond : PlanStep::kIncomingFirst));
  }
  for (int mask = 1; mask < p; mask <<= 1) {
    const int partner = me ^ mask;
    f(step(PlanStep::kSend, partner, 1, (me / mask) * mask, mask,
           PlanStep::kKeep));
    f(step(PlanStep::kRecv, partner, 1, (partner / mask) * mask, mask,
           PlanStep::kKeep));
  }
}

/// `mine` and `incoming` combined by `op` in the order `fold` names.
template <class T, class BinOp>
T fold_in(PlanStep::Fold fold, BinOp& op, T mine, T incoming) {
  if (fold == PlanStep::kIncomingFirst)
    return op(std::move(incoming), std::move(mine));
  return op(std::move(mine), std::move(incoming));
}

// --- kAuto selection -------------------------------------------------
//
// A non-tree algorithm replaces the tree only when it is no worse on
// both of these terms; among those the lowest completion time wins,
// and ties go to the tree.
//
//  * completion -- one isolated call with every member entering on
//    idle clocks, its plan replayed through the runtime's own message
//    timing (CostModel::time_send/time_recv): startup on the sender's
//    clock, receive overhead on the receiver's, four link channels
//    each way, store-and-forward wire time over the real root-relative
//    edges.  For such a call it is the runtime's vtime bit for bit
//    (tests/test_parix_coll_algos.cpp checks it on every site,
//    algorithm, p, embedding, size and root it prices).
//  * gap -- what every further call costs its busiest member: its own
//    clock's overhead (sends x msg_startup_us + receives x
//    recv_overhead_us) or its busiest link channel (msg_per_byte_us x
//    bytes, its messages dealt in order onto the least loaded of four
//    channels), whichever is larger.
//
// Completion alone ranks one call, but a pivot loop makes n calls and
// pays each member's overhead every time: the 16-chunk ring finishes
// one 5 KB pivot row sooner than the tree, yet costs every forwarder
// 16 x (startup + receive overhead) per call where the tree's busiest
// member pays ceil(log2 p) startups.
//
// Both terms are pure functions of (communicator, cost model, payload
// size[, root]), so every member picks alike with no negotiation
// round, and a run evaluates each key once (Proc::coll_pick): first
// the root-independent gap verdict, then -- only if some algorithm
// survives it -- the per-root completion dry runs.  The model lives
// out of line in coll_pick.cpp.

/// Collective entry points whose algorithm kAuto picks.
enum class PickSite : std::uint8_t {
  kBcastValue,      ///< one value: tree or ring chain
  kBcastVector,     ///< hinted vector: tree or 16-chunk ring pipeline
  kAllgather,       ///< gather + tree broadcast, ring, Bruck
  kAllreduce,       ///< reduce + tree broadcast, ring or Bruck allgather
  kAllreduceElems,  ///< vector tree, ring RS + AG, Rabenseifner
};

/// One step of a member's part in a call.  Peers are communicator
/// ranks relative to the root (rooted collectives) or virtual ranks.
struct DryStep {
  enum Kind : std::uint8_t { kSend, kRecv, kCharge };
  Kind kind;
  int peer;
  std::size_t bytes;  ///< wire bytes of a send or receive
  double us;          ///< microseconds of a kCharge
};

/// Every member's steps of one call, in program order, member by
/// member (schedule_for).
class Schedule {
 public:
  void send(int to, std::size_t bytes) {
    steps_.push_back({DryStep::kSend, to, bytes, 0.0});
  }
  void recv(int from, std::size_t bytes) {
    steps_.push_back({DryStep::kRecv, from, bytes, 0.0});
  }
  void charge(double us) { steps_.push_back({DryStep::kCharge, 0, 0, us}); }
  void end_member() { bounds_.push_back(steps_.size()); }

  int members() const { return static_cast<int>(bounds_.size()) - 1; }
  const DryStep* begin(int m) const {
    return steps_.data() + bounds_[static_cast<std::size_t>(m)];
  }
  const DryStep* end(int m) const { return begin(m + 1); }

 private:
  std::vector<DryStep> steps_;
  std::vector<std::size_t> bounds_{0};  ///< member m owns [m, m + 1)
};

/// The schedule of `algo` for the call `key` describes, on p members:
/// the plans the collective runs, sized from the key.
Schedule schedule_for(const CollPickKey& key, CollAlgo algo, int p,
                      const CostModel& cost);

/// The gap term: the busiest member's per-call cost.
double gap_us(const Schedule& s, const CostModel& cost);

/// The completion term: replays one isolated call, every member
/// starting on an idle clock, through CostModel::time_send/time_recv,
/// and returns the latest member's finishing time.  Schedule ranks are
/// relative to virtual rank `vroot`.
double completion_us(const Schedule& s, const Topology& topo,
                     const CostModel& cost, int vroot);

/// The kAuto pick for the call `key` describes (site and payload set
/// by the caller) on `topo`, rooted at virtual rank `vroot`.  The
/// run's memo holds the gap verdict under the key's kAnyRoot entry, as
/// a set of algorithm bits; a per-root entry, made only when some
/// algorithm survives the gap term, holds the pick.
CollAlgo pick_auto(Proc& proc, const Topology& topo, CollPickKey key,
                   int vroot);

// --- per-collective algorithm selection -----------------------------

template <class T>
CollAlgo pick_allgather(Proc& proc, const Topology& topo) {
  if (topo.nprocs() < 2) return CollAlgo::kTree;
  if constexpr (!std::is_copy_constructible_v<T>) return CollAlgo::kTree;
  switch (proc.coll_mode()) {
    case CollMode::kTree: return CollAlgo::kTree;
    case CollMode::kRing: return CollAlgo::kRing;
    case CollMode::kRd: return CollAlgo::kRecDouble;
    case CollMode::kAuto: break;
  }
  const std::size_t item = wire_size_hint<T>();
  if (item == 0) return CollAlgo::kTree;
  CollPickKey key;
  key.site = static_cast<std::uint8_t>(PickSite::kAllgather);
  key.size = item;
  return pick_auto(proc, topo, key, 0);
}

template <class T>
CollAlgo pick_allreduce(Proc& proc, const Topology& topo) {
  if (topo.nprocs() < 2) return CollAlgo::kTree;
  if constexpr (!std::is_copy_constructible_v<T>) return CollAlgo::kTree;
  switch (proc.coll_mode()) {
    case CollMode::kTree: return CollAlgo::kTree;
    case CollMode::kRing: return CollAlgo::kRing;
    case CollMode::kRd: return CollAlgo::kRecDouble;
    case CollMode::kAuto: break;
  }
  const std::size_t item = wire_size_hint<T>();
  if (item == 0) return CollAlgo::kTree;
  CollPickKey key;
  key.site = static_cast<std::uint8_t>(PickSite::kAllreduce);
  key.size = item;
  return pick_auto(proc, topo, key, 0);
}

/// `nbytes_hint` is the payload's size in bytes; `elem_bytes` > 0
/// declares it a vector of that element size (chunkable into the ring
/// pipeline), 0 a single value (ring chain).
inline CollAlgo pick_broadcast(Proc& proc, const Topology& topo, int root_hw,
                               std::size_t nbytes_hint,
                               std::size_t elem_bytes) {
  if (topo.nprocs() < 2) return CollAlgo::kTree;
  switch (proc.coll_mode()) {
    case CollMode::kTree: return CollAlgo::kTree;
    case CollMode::kRing: return CollAlgo::kRing;
    // The binomial tree *is* the recursive-doubling shape for rooted
    // one-to-all data movement, so kRd keeps it.
    case CollMode::kRd: return CollAlgo::kTree;
    case CollMode::kAuto: break;
  }
  if (nbytes_hint == 0) return CollAlgo::kTree;
  CollPickKey key;
  if (elem_bytes == 0) {
    key.site = static_cast<std::uint8_t>(PickSite::kBcastValue);
    key.size = nbytes_hint;
  } else {
    key.site = static_cast<std::uint8_t>(PickSite::kBcastVector);
    key.elem = static_cast<std::uint32_t>(elem_bytes);
    key.size = nbytes_hint / elem_bytes;
  }
  return pick_auto(proc, topo, key, topo.vrank_of(root_hw));
}

/// `n` elements of `elem_bytes` each, combined at `kind`'s unit cost.
inline CollAlgo pick_allreduce_elems(Proc& proc, const Topology& topo,
                                     std::size_t n, std::size_t elem_bytes,
                                     Op kind, CollOrder order) {
  if (topo.nprocs() < 2) return CollAlgo::kTree;
  if (order == CollOrder::kChainOnly) {
    // The combine bracketing is part of the result; only the tree
    // preserves it.  Count the fallback when another family was asked
    // for.
    if (proc.coll_mode() != CollMode::kTree)
      proc.coll_counters().order_fallbacks += 1;
    return CollAlgo::kTree;
  }
  switch (proc.coll_mode()) {
    case CollMode::kTree: return CollAlgo::kTree;
    case CollMode::kRing: return CollAlgo::kRing;
    case CollMode::kRd:
      // Rabenseifner's halving/doubling needs a power of two.
      return is_pow2(topo.nprocs()) ? CollAlgo::kRabenseifner
                                    : CollAlgo::kTree;
    case CollMode::kAuto: break;
  }
  CollPickKey key;
  key.site = static_cast<std::uint8_t>(PickSite::kAllreduceElems);
  key.kind = static_cast<std::uint8_t>(kind);
  key.elem = static_cast<std::uint32_t>(elem_bytes);
  key.size = n;
  return pick_auto(proc, topo, key, 0);
}

// --- algorithm implementations --------------------------------------

/// Broadcast of the whole value: the seed binomial tree, message for
/// message, or for kRing the ring chain, whose (p-1) stages each cross
/// one ring edge, so ring-friendly embeddings pay the fewest hops.
/// Every edge carries one shared immutable buffer: the root wraps its
/// value once when it first sends, every other member forwards the
/// buffer it received, and a non-root member copies it once into its
/// own `value` (reusing that value's storage) after forwarding.
template <class T>
void broadcast_whole(Proc& proc, const Topology& topo, int root_hw, T& value,
                     CollOp ctx, CollAlgo algo) {
  const long tag = topo.fresh_tag(proc);
  const TreeWalk w = walk_from_root(proc, topo, root_hw);
  std::shared_ptr<const T> buf;
  const auto step = [&](const PlanStep& st) {
    if (st.dir == PlanStep::kRecv) {
      buf = proc.recv_buffer<T>(w.hw(st.peer), tag);
    } else {
      if (buf == nullptr) buf = std::make_shared<const T>(value);
      coll_send(proc, topo, ctx, w.hw(st.peer), tag, buf);
    }
    note_steps(proc, ctx);
  };
  if (algo == CollAlgo::kRing)
    ring_chain_plan(w.p, w.rel, 1, 1, step);
  else
    tree_bcast_plan(w.p, w.rel, step);
  if (w.rel != 0) value = *buf;
}

/// Ring-pipelined broadcast for large vectors: the root streams the
/// buffer down the ring chain in kBcastChunks chunks, so the bandwidth
/// term is ~beta*n instead of beta*n*log p.  The chunk count is fixed,
/// so non-root members need no size header; empty chunks are legal.
template <class U>
void broadcast_ring_pipelined(Proc& proc, const Topology& topo, int root_hw,
                              std::vector<U>& value, CollOp ctx) {
  const long tag = topo.fresh_tag(proc);
  const TreeWalk w = walk_from_root(proc, topo, root_hw);
  if (w.p < 2) return;
  static_assert(kBcastChunks <= Proc::kTagStride,
                "one sub-tag per chunk must fit the tag stride");
  // The root cuts its chunks from `value`; every other member appends
  // what it receives to its emptied `value` (reusing its storage) and
  // forwards it, so only the root's size and chunk bounds count.
  if (w.rel > 0) value.clear();
  std::vector<U> chunk;
  const auto step = [&](const PlanStep& st) {
    if (st.dir == PlanStep::kRecv) {
      chunk = proc.recv<std::vector<U>>(w.hw(st.peer), tag + st.sub);
      value.insert(value.end(), chunk.begin(), chunk.end());
      return;
    }
    if (w.rel == 0)
      chunk.assign(value.begin() + static_cast<std::ptrdiff_t>(st.lo),
                   value.begin() + static_cast<std::ptrdiff_t>(st.hi));
    coll_send<std::vector<U>>(proc, topo, ctx, w.hw(st.peer), tag + st.sub,
                              std::move(chunk));
  };
  ring_chain_plan(w.p, w.rel, kBcastChunks, value.size(), step);
  note_steps(proc, ctx, kBcastChunks);
}

/// Seed binomial-tree reduce, message for message.
template <class T, class BinOp>
T reduce_tree(Proc& proc, const Topology& topo, int root_hw, T local,
              BinOp op, CollOp ctx) {
  const long tag = topo.fresh_tag(proc);
  const TreeWalk w = walk_from_root(proc, topo, root_hw);
  tree_reduce_plan(w.p, w.rel, [&](const PlanStep& st) {
    if (st.dir == PlanStep::kSend)
      coll_send<T>(proc, topo, ctx, w.hw(st.peer), tag, std::move(local));
    else
      local = fold_in(st.fold, op, std::move(local),
                      proc.recv<T>(w.hw(st.peer), tag));
    note_steps(proc, ctx);
  });
  return local;
}

/// Ring (ring_allgather_plan) or Bruck (bruck_plan) allgather.
template <class T>
std::vector<T> allgather_dissemination(Proc& proc, const Topology& topo,
                                       T local, CollOp ctx, CollAlgo algo) {
  const long tag = topo.fresh_tag(proc);
  const int p = topo.nprocs();
  const int me = topo.vrank_of(proc.id());
  // v[j] holds the contribution of vrank me - j (ring) or me + j (Bruck).
  std::vector<T> v;
  v.reserve(p);
  v.push_back(std::move(local));
  if (algo == CollAlgo::kRing) {
    ring_allgather_plan(p, me, [&](const PlanStep& st) {
      if (st.dir == PlanStep::kSend) {
        coll_send<T>(proc, topo, ctx, topo.hw_of(st.peer), tag, T(v.back()));
      } else {
        v.push_back(proc.recv<T>(topo.hw_of(st.peer), tag));
        note_steps(proc, ctx);
      }
    });
  } else {
    bruck_plan(p, me, [&](const PlanStep& st) {
      SKIL_ASSERT(st.sub < Proc::kTagStride,
                  "allgather: too many Bruck rounds");
      const long sub_tag = tag + st.sub;
      if (st.dir == PlanStep::kSend) {
        coll_send<std::vector<T>>(
            proc, topo, ctx, topo.hw_of(st.peer), sub_tag,
            std::vector<T>(v.begin(),
                           v.begin() + static_cast<std::ptrdiff_t>(st.hi)));
      } else {
        for (T& x : proc.recv<std::vector<T>>(topo.hw_of(st.peer), sub_tag))
          v.push_back(std::move(x));
        note_steps(proc, ctx);
      }
    });
  }
  const int sign = algo == CollAlgo::kRing ? -1 : 1;
  std::vector<T> result;
  result.reserve(p);
  for (int i = 0; i < p; ++i)
    result.push_back(
        std::move(v[static_cast<std::size_t>((sign * (i - me) + p) % p)]));
  return result;
}

/// Folds the per-vrank contributions locally, replaying the *exact*
/// combine bracketing of the binomial-tree reduce rooted at vrank 0.
/// Every processor performs the identical fold on identical values, so
/// the result is bit-identical across processors AND across algorithm
/// families, for any operator -- associative, commutative, or neither.
template <class T, class BinOp>
T fold_tree_bracketing(std::vector<T> v, BinOp op) {
  const int p = static_cast<int>(v.size());
  for (int mask = 1; mask < p; mask <<= 1)
    for (int i = 0; i + mask < p; i += 2 * mask)
      v[static_cast<std::size_t>(i)] =
          op(std::move(v[static_cast<std::size_t>(i)]),
             std::move(v[static_cast<std::size_t>(i + mask)]));
  return std::move(v[0]);
}

}  // namespace coll_detail

/// Broadcasts `value` from the processor `root_hw` to all processors;
/// on return every processor holds the value.  Binomial tree by
/// default; SKIL_COLL=ring walks the ring chain instead.
template <class T>
void broadcast(Proc& proc, const Topology& topo, int root_hw, T& value) {
  const TraceSpan span(proc, "broadcast");
  const CollAlgo algo = coll_detail::pick_broadcast(
      proc, topo, root_hw, coll_detail::wire_size_hint<T>(), 0);
  coll_detail::note_call(proc, CollOp::kBroadcast, algo);
  coll_detail::broadcast_whole(proc, topo, root_hw, value, CollOp::kBroadcast,
                               algo);
}

/// Vector broadcast with a caller-supplied payload-size hint
/// (`nbytes_hint` must be computed identically on every member, e.g.
/// from a uniform partition size).  Under SKIL_COLL=auto, buffers large
/// enough that the chunk-pipelined ring beats the tree on both terms of
/// the pick take the ring; everything else takes the binomial tree.
/// Only the root's `value` is read; non-root vectors are overwritten
/// with the broadcast content.
template <class U>
void broadcast(Proc& proc, const Topology& topo, int root_hw,
               std::vector<U>& value, std::size_t nbytes_hint) {
  const TraceSpan span(proc, "broadcast");
  const CollAlgo algo = coll_detail::pick_broadcast(proc, topo, root_hw,
                                                    nbytes_hint, sizeof(U));
  coll_detail::note_call(proc, CollOp::kBroadcast, algo);
  if (algo == CollAlgo::kRing)
    coll_detail::broadcast_ring_pipelined(proc, topo, root_hw, value,
                                          CollOp::kBroadcast);
  else
    coll_detail::broadcast_whole(proc, topo, root_hw, value,
                                 CollOp::kBroadcast, CollAlgo::kTree);
}

/// Reduces the `local` contributions with `op` onto `root_hw` along a
/// binomial tree.  Only the root's return value is meaningful; what
/// the other processors return is unspecified (they send their partial
/// accumulation away, so a vector comes back empty).  The combine
/// bracketing of this tree is the reference ordering every other
/// allreduce algorithm reproduces.
template <class T, class BinOp>
T reduce(Proc& proc, const Topology& topo, int root_hw, T local, BinOp op) {
  const TraceSpan span(proc, "reduce");
  coll_detail::note_call(proc, CollOp::kReduce, CollAlgo::kTree);
  return coll_detail::reduce_tree(proc, topo, root_hw, std::move(local), op,
                                  CollOp::kReduce);
}

/// Reduce-to-root followed by broadcast: the paper's array_fold
/// communication pattern.  Every processor returns the full result.
///
/// Under the ring/rd families the contributions are allgathered raw
/// and every processor folds them locally, replaying the exact
/// binomial-tree bracketing -- the returned value is bit-identical to
/// the tree result for ANY operator, while the communication drops
/// from 2 log p serialized tree stages to one dissemination.
template <class T, class BinOp>
T allreduce(Proc& proc, const Topology& topo, T local, BinOp op) {
  const TraceSpan span(proc, "allreduce");
  const CollAlgo algo = coll_detail::pick_allreduce<T>(proc, topo);
  coll_detail::note_call(proc, CollOp::kAllreduce, algo);
  if constexpr (std::is_copy_constructible_v<T>) {
    if (algo != CollAlgo::kTree)
      return coll_detail::fold_tree_bracketing(
          coll_detail::allgather_dissemination(proc, topo, std::move(local),
                                               CollOp::kAllreduce, algo),
          op);
  }
  const int root_hw = topo.hw_of(0);
  T result = reduce(proc, topo, root_hw, std::move(local), op);
  broadcast(proc, topo, root_hw, result);
  return result;
}

/// Elementwise allreduce over uniform-length vectors: on return every
/// processor holds r[j] = combine of all local[j].  `order` declares
/// whether the operator's result depends on combine bracketing:
/// kChainOnly (the safe default) forces the binomial tree so FP
/// rounding never moves; kExact admits Rabenseifner's recursive
/// halving/doubling and the ring reduce-scatter + allgather, which
/// halve the bandwidth term by moving n/p-sized segments.
template <class U, class EOp>
std::vector<U> allreduce_elems(Proc& proc, const Topology& topo,
                               std::vector<U> local, EOp elem_op,
                               CollOrder order = CollOrder::kChainOnly) {
  static_assert(std::is_trivially_copyable_v<U>,
                "allreduce_elems needs wire-transferable elements");
  const TraceSpan span(proc, "allreduce_elems");
  const Op kind = std::is_floating_point_v<U> ? Op::kFloatOp : Op::kIntOp;
  const CollAlgo algo = coll_detail::pick_allreduce_elems(
      proc, topo, local.size(), sizeof(U), kind, order);
  coll_detail::note_call(proc, CollOp::kAllreduce, algo);
  const int p = topo.nprocs();
  if (p < 2) return local;
  // Drawn on every path, though the tree's reduce and broadcast draw
  // their own: tags show in traces.
  const long tag = topo.fresh_tag(proc);

  if (algo == CollAlgo::kRing || algo == CollAlgo::kRabenseifner) {
    // Sends a segment of `local`; receives one into place, folding it
    // in where the plan reduces.
    const auto exchange = [&](const coll_detail::PlanStep& st) {
      const int peer = topo.hw_of(st.peer);
      const auto lo = local.begin() + static_cast<std::ptrdiff_t>(st.lo);
      if (st.dir == coll_detail::PlanStep::kSend) {
        coll_detail::coll_send<std::vector<U>>(
            proc, topo, CollOp::kAllreduce, peer, tag + st.sub,
            std::vector<U>(lo,
                           local.begin() + static_cast<std::ptrdiff_t>(st.hi)));
        return;
      }
      const std::vector<U> in = proc.recv<std::vector<U>>(peer, tag + st.sub);
      SKIL_ASSERT(in.size() == st.hi - st.lo,
                  "allreduce_elems: neighbour segment size mismatch");
      if (st.fold == coll_detail::PlanStep::kKeep) {
        std::copy(in.begin(), in.end(), lo);
      } else {
        for (std::size_t j = 0; j < in.size(); ++j)
          lo[j] = coll_detail::fold_in(st.fold, elem_op, lo[j], in[j]);
        proc.charge_elems(kind, in.size());
      }
      coll_detail::note_steps(proc, CollOp::kAllreduce);
    };
    const int me = topo.vrank_of(proc.id());
    if (algo == CollAlgo::kRing)
      coll_detail::ring_elems_plan(p, me, local.size(), exchange);
    else
      coll_detail::rabenseifner_plan(p, me, local.size(), exchange);
    return local;
  }

  // Tree: binomial reduce of whole vectors onto vrank 0, broadcast
  // back.  The vector combine charges one op per element, exactly
  // like the segmented algorithms do in total.
  const auto vec_op = [&](std::vector<U> a, std::vector<U> b) {
    SKIL_ASSERT(a.size() == b.size(),
                "allreduce_elems: contribution length mismatch");
    for (std::size_t j = 0; j < a.size(); ++j)
      a[j] = elem_op(a[j], b[j]);
    proc.charge_elems(kind, a.size());
    return a;
  };
  const int root_hw = topo.hw_of(0);
  std::vector<U> result = coll_detail::reduce_tree(
      proc, topo, root_hw, std::move(local), vec_op, CollOp::kAllreduce);
  coll_detail::broadcast_whole(proc, topo, root_hw, result,
                               CollOp::kAllreduce, CollAlgo::kTree);
  return result;
}

/// Inclusive prefix combination over virtual-rank order
/// (Hillis-Steele recursive doubling).  `op` must be associative.
template <class T, class BinOp>
T scan_inclusive(Proc& proc, const Topology& topo, T local, BinOp op) {
  const TraceSpan span(proc, "scan_inclusive");
  const long tag = topo.fresh_tag(proc);
  const int p = topo.nprocs();
  const int rel = topo.vrank_of(proc.id());
  T acc = std::move(local);
  int step = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++step) {
    if (rel + mask < p) proc.send<T>(topo.hw_of(rel + mask), tag + step, acc);
    if (rel >= mask) {
      T left = proc.recv<T>(topo.hw_of(rel - mask), tag + step);
      acc = op(std::move(left), std::move(acc));
    }
  }
  return acc;
}

/// Gathers one value per processor onto `root_hw` in virtual-rank
/// order.  The root returns the full vector; others return empty.
template <class T>
std::vector<T> gather(Proc& proc, const Topology& topo, int root_hw, T local) {
  const TraceSpan span(proc, "gather");
  const long tag = topo.fresh_tag(proc);
  const int p = topo.nprocs();
  const int root = topo.vrank_of(root_hw);
  const int me = topo.vrank_of(proc.id());
  std::vector<T> all;
  if (me == root) all.reserve(p);
  coll_detail::gather_plan(p, me, root, [&](const coll_detail::PlanStep& st) {
    if (st.dir == coll_detail::PlanStep::kSend)
      proc.send<T>(root_hw, tag, std::move(local));
    else
      all.push_back(proc.recv<T>(topo.hw_of(st.peer), tag));
  });
  if (me == root)
    all.insert(all.begin() + static_cast<std::ptrdiff_t>(root),
               std::move(local));
  return all;
}

/// Allgather: every processor ends with all contributions in
/// virtual-rank order.  Tree mode reproduces the seed gather+broadcast
/// exactly; the ring and Bruck dissemination variants avoid the
/// root-serialized gather entirely.
template <class T>
std::vector<T> allgather(Proc& proc, const Topology& topo, T local) {
  const TraceSpan span(proc, "allgather");
  const CollAlgo algo = coll_detail::pick_allgather<T>(proc, topo);
  coll_detail::note_call(proc, CollOp::kAllgather, algo);
  if constexpr (std::is_copy_constructible_v<T>) {
    if (algo != CollAlgo::kTree)
      return coll_detail::allgather_dissemination(proc, topo, std::move(local),
                                                  CollOp::kAllgather, algo);
  }
  const int root_hw = topo.hw_of(0);
  std::vector<T> all = gather(proc, topo, root_hw, std::move(local));
  broadcast(proc, topo, root_hw, all);
  return all;
}

/// Personalised all-to-all: `outgoing[vrank]` is delivered to the
/// processor with that virtual rank; returns the vector received, with
/// `incoming[vrank]` coming from that virtual rank.
template <class T>
std::vector<T> all_to_all(Proc& proc, const Topology& topo,
                          std::vector<T> outgoing) {
  const TraceSpan span(proc, "all_to_all");
  const long tag = topo.fresh_tag(proc);
  const int p = topo.nprocs();
  SKIL_REQUIRE(static_cast<int>(outgoing.size()) == p,
               "all_to_all: need one payload per processor");
  const int self = topo.vrank_of(proc.id());
  for (int vrank = 0; vrank < p; ++vrank)
    if (vrank != self)
      proc.send<T>(topo.hw_of(vrank), tag, std::move(outgoing[vrank]));
  std::vector<T> incoming(p);
  incoming[self] = std::move(outgoing[self]);
  for (int vrank = 0; vrank < p; ++vrank)
    if (vrank != self) incoming[vrank] = proc.recv<T>(topo.hw_of(vrank), tag);
  return incoming;
}

/// Barrier: all processors synchronise; every virtual clock advances to
/// (at least) the time the slowest processor reached the barrier.
/// Every allreduce family synchronises transitively (each processor's
/// result causally depends on all contributions), so the barrier
/// property holds in every SKIL_COLL mode.
inline void barrier(Proc& proc, const Topology& topo) {
  allreduce<char>(proc, topo, 0, [](char a, char) { return a; });
}

/// Rotates a payload one step around the processors' torus row
/// (dcol = +1 sends to the right neighbour) or column.  Every processor
/// sends its payload and receives its new one; used by array_gen_mult's
/// Gentleman rotations.
template <class T>
T torus_rotate(Proc& proc, const Topology& topo, T payload, int drow,
               int dcol) {
  const TraceSpan span(proc, "torus_rotate");
  const long tag = topo.fresh_tag(proc);
  const int dst = topo.torus_neighbor(proc.id(), drow, dcol);
  const int src = topo.torus_neighbor(proc.id(), -drow, -dcol);
  if (dst == proc.id()) return payload;  // single-processor row/column
  proc.send<T>(dst, tag, std::move(payload));
  return proc.recv<T>(src, tag);
}

/// Ring shift by one position in virtual-rank order.
template <class T>
T ring_shift(Proc& proc, const Topology& topo, T payload) {
  const TraceSpan span(proc, "ring_shift");
  const long tag = topo.fresh_tag(proc);
  const int dst = topo.ring_next(proc.id());
  const int src = topo.ring_prev(proc.id());
  if (dst == proc.id()) return payload;
  proc.send<T>(dst, tag, std::move(payload));
  return proc.recv<T>(src, tag);
}

}  // namespace skil::parix
