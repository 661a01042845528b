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
// PR 9 adds the algorithm zoo (parix/coll.h, DESIGN.md section 15):
// besides the seed binomial tree, allgather can run as a ring or as
// Bruck's recursive-doubling dissemination, broadcast of large buffers
// can run chunk-pipelined around the ring (bandwidth ~beta*n instead
// of beta*n*log p), and elementwise allreduce can run Rabenseifner's
// recursive-halving reduce-scatter + recursive-doubling allgather or a
// ring reduce-scatter + allgather (both halving the bandwidth term).
// The family is picked per call from Proc::coll_mode(); kAuto dry-runs
// the candidates over the embedding's actual hop distances and keeps
// the tree unless another algorithm is no worse on both completion
// time and per-call gap (see "kAuto selection" below).  Array
// results are bit-identical in every mode: scalar allreduce replays
// the exact binomial-tree combine bracketing locally after gathering
// the raw contributions, and the reassociating elementwise algorithms
// only run when the caller declares the operator order-insensitive.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "parix/coll.h"
#include "parix/proc.h"
#include "parix/topology.h"

namespace skil::parix {

namespace coll_detail {

// --- shared binomial-tree walk (one copy of the vrank/mask math) ----

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

/// Send wrapper that books the payload's wire bytes and the physical
/// hop distance of the edge under `op` before posting the send.  The
/// counters are host-side only; the message itself is priced by the
/// cost model exactly as a plain proc.send would be.
template <class T>
void coll_send(Proc& proc, const Topology& topo, CollOp op, int dst, long tag,
               T value) {
  CollectiveCounters& c = proc.coll_counters();
  c.bytes[static_cast<int>(op)] += payload_bytes(value);
  c.hops[static_cast<int>(op)] +=
      static_cast<std::uint64_t>(topo.hops(proc.id(), dst));
  proc.send<T>(dst, tag, std::move(value));
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

// --- kAuto selection -------------------------------------------------
//
// A non-tree algorithm replaces the tree only when it is no worse on
// both of these terms; among those the lowest completion time wins,
// and ties go to the tree.
//
//  * completion -- one isolated call with every member entering on
//    idle clocks, replayed through Proc::dispatch/recv's arithmetic:
//    startup on the sender's clock, receive overhead on the
//    receiver's, four link channels each way, store-and-forward wire
//    time over the real root-relative edges.  For such a call it is
//    the runtime's vtime bit for bit (tests/test_parix_coll_algos.cpp
//    checks it against the per-algorithm goldens).
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

/// The schedule of `algo` for the call `key` describes, on p members.
/// Emitted by functions that mirror the algorithm implementations
/// below message for message (coll_pick.cpp).
Schedule schedule_for(const CollPickKey& key, CollAlgo algo, int p,
                      const CostModel& cost);

/// The gap term: the busiest member's per-call cost.
double gap_us(const Schedule& s, const CostModel& cost);

/// The completion term: replays one isolated call, every member
/// starting on an idle clock, with Proc::dispatch's and Proc::recv's
/// arithmetic, and returns the latest member's finishing time.
/// Schedule ranks are relative to virtual rank `vroot`.
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

/// Seed binomial-tree broadcast, message for message.
template <class T>
void broadcast_tree(Proc& proc, const Topology& topo, int root_hw, T& value,
                    CollOp ctx) {
  const long tag = topo.fresh_tag(proc);
  const TreeWalk w = walk_from_root(proc, topo, root_hw);

  int mask = 1;
  while (mask < w.p) {
    if (w.rel & mask) {
      value = proc.recv<T>(w.hw(w.rel - mask), tag);
      note_steps(proc, ctx);
      break;
    }
    mask <<= 1;
  }
  // After the loop, mask is the receiver's lowest set bit (or the first
  // power of two >= p at the root); children sit at rel + mask/2^k.
  mask >>= 1;
  while (mask > 0) {
    if (w.rel + mask < w.p) {
      coll_send<T>(proc, topo, ctx, w.hw(w.rel + mask), tag, value);
      note_steps(proc, ctx);
    }
    mask >>= 1;
  }
}

/// Ring chain broadcast: the value walks root-relative ranks
/// 0 -> 1 -> ... -> p-1.  Latency (p-1) stages, but every stage is one
/// ring edge, so on ring-friendly embeddings the per-stage hop cost is
/// minimal.  Used when the mode forces the ring family on an unchunked
/// payload.
template <class T>
void broadcast_ring_chain(Proc& proc, const Topology& topo, int root_hw,
                          T& value, CollOp ctx) {
  const long tag = topo.fresh_tag(proc);
  const TreeWalk w = walk_from_root(proc, topo, root_hw);
  if (w.p < 2) return;
  if (w.rel > 0) {
    value = proc.recv<T>(w.hw(w.rel - 1), tag);
    note_steps(proc, ctx);
  }
  if (w.rel + 1 < w.p) {
    coll_send<T>(proc, topo, ctx, w.hw(w.rel + 1), tag, value);
    note_steps(proc, ctx);
  }
}

/// Ring-pipelined broadcast for large vectors: the buffer is split
/// into kBcastChunks chunks which the root streams down the ring
/// chain; every member forwards chunk c before receiving chunk c+1,
/// so all ring edges carry data concurrently and the bandwidth term
/// is ~beta*n instead of beta*n*log p.  The chunk count is fixed, so
/// non-root members need no size header; empty chunks are legal.
template <class U>
void broadcast_ring_pipelined(Proc& proc, const Topology& topo, int root_hw,
                              std::vector<U>& value, CollOp ctx) {
  const long tag = topo.fresh_tag(proc);
  const TreeWalk w = walk_from_root(proc, topo, root_hw);
  if (w.p < 2) return;
  static_assert(kBcastChunks <= Proc::kTagStride,
                "one sub-tag per chunk must fit the tag stride");
  if (w.rel == 0) {
    const std::size_t n = value.size();
    for (int c = 0; c < kBcastChunks; ++c) {
      const std::size_t lo = segment_start(n, kBcastChunks, c);
      const std::size_t hi = segment_start(n, kBcastChunks, c + 1);
      std::vector<U> chunk(value.begin() + static_cast<std::ptrdiff_t>(lo),
                           value.begin() + static_cast<std::ptrdiff_t>(hi));
      coll_send<std::vector<U>>(proc, topo, ctx, w.hw(1), tag + c,
                                std::move(chunk));
    }
  } else {
    std::vector<U> assembled;
    for (int c = 0; c < kBcastChunks; ++c) {
      std::vector<U> chunk =
          proc.recv<std::vector<U>>(w.hw(w.rel - 1), tag + c);
      if (w.rel + 1 < w.p)
        coll_send<std::vector<U>>(proc, topo, ctx, w.hw(w.rel + 1), tag + c,
                                  chunk);
      assembled.insert(assembled.end(),
                       std::make_move_iterator(chunk.begin()),
                       std::make_move_iterator(chunk.end()));
    }
    value = std::move(assembled);
  }
  note_steps(proc, ctx, kBcastChunks);
}

/// Seed binomial-tree reduce, message for message.
template <class T, class BinOp>
T reduce_tree(Proc& proc, const Topology& topo, int root_hw, T local,
              BinOp op, CollOp ctx) {
  const long tag = topo.fresh_tag(proc);
  const TreeWalk w = walk_from_root(proc, topo, root_hw);

  for (int mask = 1; mask < w.p; mask <<= 1) {
    if (w.rel & mask) {
      coll_send<T>(proc, topo, ctx, w.hw(w.rel - mask), tag,
                   std::move(local));
      note_steps(proc, ctx);
      return local;
    }
    if (w.rel + mask < w.p) {
      T incoming = proc.recv<T>(w.hw(w.rel + mask), tag);
      note_steps(proc, ctx);
      local = op(std::move(local), std::move(incoming));
    }
  }
  return local;
}

/// Ring allgather: p-1 pass-around steps; step s forwards the item
/// received at step s-1.  All steps reuse one tag (the mailbox is
/// FIFO per (src, tag) and every step receives from the same ring
/// neighbour).
template <class T>
std::vector<T> allgather_ring(Proc& proc, const Topology& topo, T local,
                              CollOp ctx) {
  const long tag = topo.fresh_tag(proc);
  const int p = topo.nprocs();
  const int me = topo.vrank_of(proc.id());
  const int dst = topo.hw_of((me + 1) % p);
  const int src = topo.hw_of((me - 1 + p) % p);
  // v[j] holds the contribution of vrank (me - j + p) % p.
  std::vector<T> v;
  v.reserve(p);
  v.push_back(std::move(local));
  for (int s = 0; s + 1 < p; ++s) {
    coll_send<T>(proc, topo, ctx, dst, tag, T(v[static_cast<std::size_t>(s)]));
    v.push_back(proc.recv<T>(src, tag));
    note_steps(proc, ctx);
  }
  std::vector<T> result;
  result.reserve(p);
  for (int i = 0; i < p; ++i)
    result.push_back(std::move(v[static_cast<std::size_t>((me - i + p) % p)]));
  return result;
}

/// Bruck dissemination allgather: ceil(log2 p) rounds, round k sending
/// the min(2^k, p - 2^k) items collected so far to rank me - 2^k and
/// receiving as many from me + 2^k; works for any p.
template <class T>
std::vector<T> allgather_bruck(Proc& proc, const Topology& topo, T local,
                               CollOp ctx) {
  const long tag = topo.fresh_tag(proc);
  const int p = topo.nprocs();
  const int me = topo.vrank_of(proc.id());
  // v[j] holds the contribution of vrank (me + j) % p.
  std::vector<T> v;
  v.reserve(p);
  v.push_back(std::move(local));
  int len = 1;
  int step = 0;
  while (len < p) {
    SKIL_ASSERT(step < Proc::kTagStride, "allgather: too many Bruck rounds");
    const int cnt = std::min(len, p - len);
    const int dst = topo.hw_of((me - len + p) % p);
    const int src = topo.hw_of((me + len) % p);
    std::vector<T> block(v.begin(), v.begin() + cnt);
    coll_send<std::vector<T>>(proc, topo, ctx, dst, tag + step,
                              std::move(block));
    std::vector<T> incoming = proc.recv<std::vector<T>>(src, tag + step);
    for (T& x : incoming) v.push_back(std::move(x));
    note_steps(proc, ctx);
    len += cnt;
    ++step;
  }
  std::vector<T> result;
  result.reserve(p);
  for (int i = 0; i < p; ++i)
    result.push_back(std::move(v[static_cast<std::size_t>((i - me + p) % p)]));
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
  if (algo == CollAlgo::kRing)
    coll_detail::broadcast_ring_chain(proc, topo, root_hw, value,
                                      CollOp::kBroadcast);
  else
    coll_detail::broadcast_tree(proc, topo, root_hw, value,
                                CollOp::kBroadcast);
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
    coll_detail::broadcast_tree(proc, topo, root_hw, value,
                                CollOp::kBroadcast);
}

/// Reduces the `local` contributions with `op` onto `root_hw` along a
/// binomial tree.  Only the root's return value is meaningful; other
/// processors return their partial accumulation.  The combine
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
    if (algo == CollAlgo::kRing)
      return coll_detail::fold_tree_bracketing(
          coll_detail::allgather_ring(proc, topo, std::move(local),
                                      CollOp::kAllreduce),
          op);
    if (algo == CollAlgo::kRecDouble)
      return coll_detail::fold_tree_bracketing(
          coll_detail::allgather_bruck(proc, topo, std::move(local),
                                       CollOp::kAllreduce),
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
  const long tag = topo.fresh_tag(proc);
  const int me = topo.vrank_of(proc.id());
  const std::size_t n = local.size();
  // Segment j (0 <= j <= p) starts at element boundary b(j); b(p) = n.
  const auto b = [&](int j) { return coll_detail::segment_start(n, p, j); };
  const auto wrap = [&](int k) { return ((k % p) + p) % p; };

  if (algo == CollAlgo::kRing) {
    const int dst = topo.hw_of((me + 1) % p);
    const int src = topo.hw_of((me - 1 + p) % p);
    // Reduce-scatter: step s sends the running partial of segment
    // (me - s) and folds the received partial into segment
    // (me - s - 1); after p-1 steps this processor owns the full
    // combine of segment (me + 1), accumulated in ring order.
    for (int s = 0; s + 1 < p; ++s) {
      const int out_seg = wrap(me - s);
      std::vector<U> out(
          local.begin() + static_cast<std::ptrdiff_t>(b(out_seg)),
          local.begin() + static_cast<std::ptrdiff_t>(b(out_seg + 1)));
      coll_detail::coll_send<std::vector<U>>(proc, topo, CollOp::kAllreduce,
                                             dst, tag, std::move(out));
      std::vector<U> in = proc.recv<std::vector<U>>(src, tag);
      const int in_seg = wrap(me - s - 1);
      const std::size_t ilo = b(in_seg);
      SKIL_ASSERT(in.size() == b(in_seg + 1) - ilo,
                  "allreduce_elems: neighbour segment size mismatch");
      for (std::size_t j = 0; j < in.size(); ++j)
        local[ilo + j] = elem_op(in[j], local[ilo + j]);
      proc.charge_elems(kind, in.size());
      coll_detail::note_steps(proc, CollOp::kAllreduce);
    }
    // Allgather the finished segments around the ring.
    for (int s = 0; s + 1 < p; ++s) {
      const int out_seg = wrap(me + 1 - s);
      std::vector<U> out(
          local.begin() + static_cast<std::ptrdiff_t>(b(out_seg)),
          local.begin() + static_cast<std::ptrdiff_t>(b(out_seg + 1)));
      coll_detail::coll_send<std::vector<U>>(proc, topo, CollOp::kAllreduce,
                                             dst, tag + 1, std::move(out));
      std::vector<U> in = proc.recv<std::vector<U>>(src, tag + 1);
      const int in_seg = wrap(me - s);
      const std::size_t ilo = b(in_seg);
      SKIL_ASSERT(in.size() == b(in_seg + 1) - ilo,
                  "allreduce_elems: neighbour segment size mismatch");
      std::copy(in.begin(), in.end(),
                local.begin() + static_cast<std::ptrdiff_t>(ilo));
      coll_detail::note_steps(proc, CollOp::kAllreduce);
    }
    return local;
  }

  if (algo == CollAlgo::kRabenseifner) {
    // Recursive halving reduce-scatter: with partner me ^ mask, the
    // lower rank keeps the lower half of the current segment range.
    // The canonical combine order is op(lower-group, upper-group), so
    // the result is a fixed balanced bracketing independent of rank.
    for (int mask = p / 2; mask >= 1; mask >>= 1) {
      const int partner = me ^ mask;
      const int width = 2 * mask;          // segments in current range
      const int base = (me / width) * width;
      const bool lower = (me & mask) == 0;
      const int keep_lo = lower ? base : base + mask;
      const int send_lo = lower ? base + mask : base;
      const std::size_t slo = b(send_lo), shi = b(send_lo + mask);
      const std::size_t klo = b(keep_lo), khi = b(keep_lo + mask);
      std::vector<U> out(local.begin() + static_cast<std::ptrdiff_t>(slo),
                         local.begin() + static_cast<std::ptrdiff_t>(shi));
      coll_detail::coll_send<std::vector<U>>(proc, topo, CollOp::kAllreduce,
                                             topo.hw_of(partner), tag,
                                             std::move(out));
      std::vector<U> in =
          proc.recv<std::vector<U>>(topo.hw_of(partner), tag);
      SKIL_ASSERT(in.size() == khi - klo,
                  "allreduce_elems: partner segment size mismatch");
      for (std::size_t j = 0; j < in.size(); ++j)
        local[klo + j] = lower ? elem_op(local[klo + j], in[j])
                               : elem_op(in[j], local[klo + j]);
      proc.charge_elems(kind, in.size());
      coll_detail::note_steps(proc, CollOp::kAllreduce);
    }
    // Recursive doubling allgather, reversing the halving walk.
    for (int mask = 1; mask < p; mask <<= 1) {
      const int partner = me ^ mask;
      const int have_lo = (me / mask) * mask;
      const int partner_lo = (partner / mask) * mask;
      const std::size_t olo = b(have_lo), ohi = b(have_lo + mask);
      const std::size_t ilo = b(partner_lo);
      std::vector<U> out(local.begin() + static_cast<std::ptrdiff_t>(olo),
                         local.begin() + static_cast<std::ptrdiff_t>(ohi));
      coll_detail::coll_send<std::vector<U>>(proc, topo, CollOp::kAllreduce,
                                             topo.hw_of(partner), tag + 1,
                                             std::move(out));
      std::vector<U> in =
          proc.recv<std::vector<U>>(topo.hw_of(partner), tag + 1);
      std::copy(in.begin(), in.end(),
                local.begin() + static_cast<std::ptrdiff_t>(ilo));
      coll_detail::note_steps(proc, CollOp::kAllreduce);
    }
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
  coll_detail::broadcast_tree(proc, topo, root_hw, result,
                              CollOp::kAllreduce);
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
  if (proc.id() != root_hw) {
    proc.send<T>(root_hw, tag, std::move(local));
    return {};
  }
  std::vector<T> all;
  all.reserve(p);
  for (int vrank = 0; vrank < p; ++vrank) {
    const int hw = topo.hw_of(vrank);
    if (hw == root_hw)
      all.push_back(local);
    else
      all.push_back(proc.recv<T>(hw, tag));
  }
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
    if (algo == CollAlgo::kRing)
      return coll_detail::allgather_ring(proc, topo, std::move(local),
                                         CollOp::kAllgather);
    if (algo == CollAlgo::kRecDouble)
      return coll_detail::allgather_bruck(proc, topo, std::move(local),
                                          CollOp::kAllgather);
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
