// Collective-algorithm selection (the "zoo") and its counters.
//
// The seed runtime had exactly two communication shapes: the binomial
// tree that reduce/broadcast walk and the torus rotations gen_mult
// uses.  PR 9 adds ring and recursive-doubling families so each
// collective can pick an algorithm by payload size and the topology's
// embedding dilation, priced by the cost model (startup alpha, per-byte
// beta, per-hop fee -- see parix/cost_model.h).
//
// SKIL_COLL selects the family:
//   tree  -- the seed algorithms (binomial reduce/broadcast, gather+
//            broadcast allgather).  Bit-identical to every pre-zoo
//            golden, message for message.
//   ring  -- ring allgather / chain and chunk-pipelined broadcast /
//            ring reduce-scatter + allgather for elementwise allreduce.
//   rd    -- recursive doubling: Bruck allgather, Rabenseifner
//            (halving + doubling) elementwise allreduce; broadcast
//            stays binomial (the tree *is* the recursive-doubling
//            shape for rooted one-to-all).
//   auto  -- the default: a non-tree algorithm only where it is no
//            worse than the tree on both one call's completion time
//            and the per-call gap its busiest member pays, evaluated
//            once per run and key (collectives.h, DESIGN.md section 15).
//
// Array results are bit-identical across all modes: scalar allreduce
// replays the exact binomial-tree bracketing locally after an
// allgather of the raw contributions, and elementwise allreduce only
// uses reassociating algorithms when the caller declares the operator
// order-insensitive (CollOrder::kExact).  Virtual times differ by
// mode and are pinned by per-algorithm goldens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>

namespace skil::parix {

/// Which collective-algorithm family to use (SKIL_COLL).
enum class CollMode {
  kTree = 0,  ///< seed binomial-tree algorithms only
  kRing,      ///< ring family
  kRd,        ///< recursive-doubling family
  kAuto,      ///< pick per call from modeled cost (default)
};

/// Per-call default, initialised from SKIL_COLL and overridable with
/// set_default_coll_mode.  Unknown SKIL_COLL values fail loudly.
CollMode default_coll_mode();
void set_default_coll_mode(CollMode mode);
CollMode parse_coll_mode(std::string_view name);
std::string_view coll_mode_name(CollMode mode);

/// The collectives the counters distinguish.  Composite tree paths
/// count their building blocks too (a tree allreduce notes one
/// allreduce call plus the nested reduce and broadcast calls).
enum class CollOp {
  kBroadcast = 0,
  kReduce,
  kAllreduce,
  kAllgather,
};
inline constexpr int kNumCollOps = 4;
std::string_view coll_op_name(CollOp op);

/// The concrete algorithm a call resolved to.
enum class CollAlgo {
  kTree = 0,       ///< binomial tree (seed behaviour)
  kRing,           ///< ring chain / pipeline / reduce-scatter
  kRecDouble,      ///< recursive doubling (Bruck allgather)
  kRabenseifner,   ///< recursive halving + doubling elementwise allreduce
};
inline constexpr int kNumCollAlgos = 4;
std::string_view coll_algo_name(CollAlgo algo);

/// Whether an elementwise reduction operator's result may depend on
/// evaluation order.  kExact operators (integer ops, min/max, bitwise)
/// admit the reassociating algorithms; kChainOnly operators (FP sums
/// whose rounding is the scientific artefact) force the tree so the
/// combine bracketing never changes.
enum class CollOrder {
  kExact = 0,     ///< any bracketing yields identical bits
  kChainOnly,     ///< bracketing is part of the result; tree only
};

/// Per-processor collective statistics, summed into RunResult::coll.
/// Host-side diagnostics only -- never read by the cost model, so
/// recording them cannot perturb virtual time.
struct CollectiveCounters {
  /// calls[op][algo]: how many calls of `op` resolved to `algo`.
  std::uint64_t calls[kNumCollOps][kNumCollAlgos] = {};
  /// Payload bytes this processor sent inside `op` (wire size).
  std::uint64_t bytes[kNumCollOps] = {};
  /// Sum of mesh hop distances of those sends (embedding dilation).
  std::uint64_t hops[kNumCollOps] = {};
  /// Communication rounds this processor took part in.
  std::uint64_t steps[kNumCollOps] = {};
  /// Elementwise allreduces where a chain-only operator forced the
  /// tree although the mode asked for a reassociating algorithm.
  std::uint64_t order_fallbacks = 0;

  CollectiveCounters& operator+=(const CollectiveCounters& other) {
    for (int op = 0; op < kNumCollOps; ++op) {
      for (int algo = 0; algo < kNumCollAlgos; ++algo)
        calls[op][algo] += other.calls[op][algo];
      bytes[op] += other.bytes[op];
      hops[op] += other.hops[op];
      steps[op] += other.steps[op];
    }
    order_fallbacks += other.order_fallbacks;
    return *this;
  }

  bool operator==(const CollectiveCounters&) const = default;

  /// Total calls across ops that resolved to `algo`.
  std::uint64_t calls_for(CollAlgo algo) const {
    std::uint64_t n = 0;
    for (int op = 0; op < kNumCollOps; ++op)
      n += calls[op][static_cast<int>(algo)];
    return n;
  }

  /// Total calls across all ops and algorithms.
  std::uint64_t total_calls() const {
    std::uint64_t n = 0;
    for (int algo = 0; algo < kNumCollAlgos; ++algo)
      n += calls_for(static_cast<CollAlgo>(algo));
    return n;
  }
};

/// Everything a SKIL_COLL=auto pick depends on besides the run's cost
/// model.  Every member of a communicator builds the same key for the
/// same call, which is what lets a run memoize its picks.
struct CollPickKey {
  std::uint8_t site = 0;   ///< collective entry point (coll_detail::PickSite)
  std::uint8_t distr = 0;  ///< Topology::kind()
  std::uint8_t kind = 0;   ///< combine Op of an elementwise allreduce
  std::int32_t comm = 0;   ///< Topology::comm_id()
  std::int32_t root = 0;   ///< root rank, or kAnyRoot
  std::uint32_t elem = 0;  ///< element bytes of a vector payload, else 0
  std::uint64_t size = 0;  ///< elements of a vector payload, else bytes

  /// Root of the entry holding a pick's root-independent gap verdict.
  static constexpr std::int32_t kAnyRoot = -1;

  bool operator==(const CollPickKey&) const = default;
};

/// A memo of SKIL_COLL=auto decisions.  Each Proc owns one, which
/// serves its calls without locking; the run's Machine owns another,
/// behind a mutex, so a key is evaluated once per run rather than once
/// per member.  Both live for one run, never process-wide.
class CollPickMemo {
 public:
  /// The value memoized under `key`, from `compute()` on first use.
  template <class Compute>
  std::uint8_t get(const CollPickKey& key, Compute&& compute) {
    if (const auto it = map_.find(key); it != map_.end()) return it->second;
    const std::uint8_t value = compute();
    map_.emplace(key, value);
    return value;
  }

 private:
  struct Hash {
    std::size_t operator()(const CollPickKey& k) const {
      std::uint64_t h = k.size * 0x9E3779B97F4A7C15ULL;
      for (const std::uint64_t field :
           {std::uint64_t{k.site}, std::uint64_t{k.distr},
            std::uint64_t{k.kind}, static_cast<std::uint64_t>(k.comm),
            static_cast<std::uint64_t>(k.root), std::uint64_t{k.elem}})
        h = (h ^ field) * 0x100000001B3ULL;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };
  std::unordered_map<CollPickKey, std::uint8_t, Hash> map_;
};

}  // namespace skil::parix
