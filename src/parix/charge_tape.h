// Charge-tape specialization of the virtual-clock hot loops.
//
// The hot loops of the skeleton baselines charge a fixed sequence of
// operations per element (e.g. DPFL's boxed get_elem charges four ops
// per access, eleven per active elimination element).  Each charge is
// a dependent floating-point add into the processor's clock, and that
// chain order *is* the scientific artefact: FP addition does not
// reassociate, so the addends cannot be batched or reordered without
// moving golden values by rounding (DESIGN.md section 8).
//
// What CAN go is everything around the chain: closure dispatch, boxed
// element models, per-access geometry checks and per-charge stats
// bookkeeping.  A ChargeTape records one element's exact addend
// sequence (op kinds and counts, in program order); Proc::replay then
// re-executes that sequence `times` times as a tight flat loop over
// precomputed addends -- same multiplies, same adds, same order, so
// the clock lands on bit-identical values -- and books the per-op
// counts as one batched integer update per tape entry.
//
// Tapes are recorded through the same charge helpers the element
// accessors charge through (templated over a "charge sink": a Proc or
// a ChargeTape; e.g. DistArray::append_get_elem_charges), so a tape
// cannot drift from the accesses it stands for.  Every application
// hot loop takes the tape: tests/goldens/vtimes.json pins the virtual
// times it produces, and tests/test_parix_settle_fuzz.cpp holds the
// taped maps to the closure skeletons (array_map, fa_map).
//
// Settlement of the deferred ledger is algebraic (DESIGN.md section
// 12): a replay record's per-period clock delta, measured in ulps of
// the clock's current binade, is a function of the clock's ulp
// *parity* only (round-half-even is the sole data dependence), so one
// probed period per (tape, binade, parity) lets the remaining periods
// retire in exact integer arithmetic -- bit-identical by construction,
// without executing the adds.  A cross-replay memo caches the probed
// deltas per (tape identity, unit table, binade), so the sweep's
// repeated replays settle as O(1) cached walks.  Records the walk
// declines (chain-only addends, tiny repetition counts) settle through
// the plain chain, inline on the settling processor.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "parix/cost_model.h"
#include "parix/counters.h"

namespace skil::parix {

/// The accounting path of the hot loops.  There is one, the tape; the
/// names survive only for perfbench/skilbench.cpp, their one reader,
/// which records the path in its config line.
enum class ChargePath {
  kTape,  ///< recorded addend sequence replayed by Proc::replay
};

inline ChargePath default_charge_path() { return ChargePath::kTape; }

/// How ChargeLedger settlement retires the dependent FP-add chain.
/// There is one way; the name survives so reports can record it.
enum class SettleMode {
  kClosed,  ///< algebraic run settlement + cross-replay memo, always inline
};

inline SettleMode default_settle_mode() { return SettleMode::kClosed; }
inline std::string_view settle_mode_name(SettleMode) { return "closed"; }

/// Whether skeleton compositions may run fused (DESIGN.md section 13).
///
///  * off -- every skeleton invocation executes exactly as in PR 6:
///           its own pass, its own tape, its own collective round.
///           Virtual times stay bit-identical to the seed goldens.
///  * on  -- adjacent compositions the apps/combinators recognise
///           (copy|map, map|map, map|fold, scan|fold, map|broadcast,
///           create|gen_mult) collapse into one pass with one tape and
///           one collective round.  Array *results* stay bit-identical
///           (asserted differentially); virtual times are legitimately
///           lower -- the cost model rewarding fewer passes and
///           synchronizations, which is the paper's whole argument for
///           skeletons knowing more than their parts.
enum class FuseMode {
  kOff,  ///< PR 6 behaviour; the golden-sweep default
  kOn,   ///< fused taped variants where a composition is provably safe
};

/// Process-wide default fuse mode: kOff, overridable with the
/// SKIL_FUSE environment variable ("off" / "on") or
/// set_default_fuse_mode.  Unknown SKIL_FUSE values fail loudly.
FuseMode default_fuse_mode();
void set_default_fuse_mode(FuseMode mode);
FuseMode parse_fuse_mode(std::string_view name);
std::string_view fuse_mode_name(FuseMode mode);

/// Reasons a composition that *could* have fused ran unfused instead.
/// Counted per occurrence so a fused-mode run accounts for every
/// composition it saw, not just the ones it accelerated.
enum class FusionReject {
  kShape,  ///< runtime shape forbids it (e.g. a pivot step permutes rows,
           ///< so the in-place fused elimination would read moved data)
  kOrder,  ///< the combine is not order-exact (FP fold through a different
           ///< merge order would move result bits; ints/min/max are exact)
};

/// Fusion counters of one processor, summed into RunResult::fusion:
/// how many fusible compositions the fused paths saw, how many actually
/// fused, how many were rejected (by reason), and what the fused forms
/// eliminated -- whole tape passes and collective barrier rounds.
/// All zero under SKIL_FUSE=off (the off path never consults them), so
/// a differential test can assert the fused path really engaged.
struct FusionCounters {
  std::uint64_t seen = 0;
  std::uint64_t fused = 0;
  std::uint64_t rejected_shape = 0;
  std::uint64_t rejected_order = 0;
  std::uint64_t barriers_eliminated = 0;
  std::uint64_t tapes_eliminated = 0;

  static constexpr CounterField<FusionCounters> kFields[] = {
      {"seen", &FusionCounters::seen},
      {"fused", &FusionCounters::fused},
      {"rejected_shape", &FusionCounters::rejected_shape},
      {"rejected_order", &FusionCounters::rejected_order},
      {"barriers_eliminated", &FusionCounters::barriers_eliminated},
      {"tapes_eliminated", &FusionCounters::tapes_eliminated},
  };

  std::uint64_t rejected() const {
    return rejected_shape + rejected_order;
  }

  /// Notes one composition that fused, eliminating `barriers` collective
  /// rounds and `tapes` whole tape/charge passes.  Increments seen too.
  /// Out of line (charge_tape.cpp), so a note adds one call, not
  /// inlined code, to the app and skeleton bodies around it.
  void note_fused(std::uint64_t barriers, std::uint64_t tapes);
  /// Notes one composition that was recognised but ran unfused.
  void note_rejected(FusionReject reason);

  bool operator==(const FusionCounters&) const = default;
};

/// One element's recorded charge sequence: op kinds and counts in the
/// exact order the program's customizing function charges them.
///
/// Tapes carry a process-unique identity (`id()`): because a tape is
/// append-only, (id, entry count) names one immutable entry prefix for
/// the lifetime of the process, which is what the settlement memo
/// (DESIGN.md section 12) keys its cached period deltas on.  Copies
/// get a *fresh* id -- two tapes that share an id must never be able
/// to diverge in content -- and moving transfers the id while the
/// moved-from tape is re-armed with a fresh one.
class ChargeTape {
 public:
  struct Entry {
    Op kind;
    std::uint64_t count;
  };

  ChargeTape() : id_(next_tape_id()) {}
  ChargeTape(const ChargeTape& other)
      : entries_(other.entries_), id_(next_tape_id()) {}
  ChargeTape(ChargeTape&& other) noexcept
      : entries_(std::move(other.entries_)), id_(other.id_) {
    other.entries_.clear();
    other.id_ = next_tape_id();
  }
  ChargeTape& operator=(const ChargeTape& other) {
    entries_ = other.entries_;
    // id_ stays: this tape's content changed, but append_replay reads
    // the id at record time together with the *current* size, and an
    // assignment that shrinks or rewrites entries would break the
    // append-only contract -- so take a fresh identity.
    id_ = next_tape_id();
    return *this;
  }
  ChargeTape& operator=(ChargeTape&& other) noexcept {
    entries_ = std::move(other.entries_);
    id_ = other.id_;
    other.entries_.clear();
    other.id_ = next_tape_id();
    return *this;
  }

  /// Appends one charge to the tape.  Named `charge` so the sink
  /// interface matches Proc and the shared charge helpers (fn.h,
  /// farray.h) can record into a tape exactly what they would charge
  /// to a processor.
  void charge(Op kind, std::uint64_t count = 1) {
    entries_.push_back(Entry{kind, count});
  }

  /// Bulk-charge sink hook, mirroring Proc::charge_elems: one entry
  /// with the multiplied count (the charge_elems identity -- see
  /// proc.h -- makes this arithmetic-identical).
  void charge_elems(Op kind, std::uint64_t elems,
                    std::uint64_t ops_per_elem = 1) {
    charge(kind, elems * ops_per_elem);
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Process-unique tape identity (never 0; 0 marks untaped ledger
  /// records).  See the class comment for the immutability contract.
  std::uint64_t id() const { return id_; }

  /// Upper bound accepted by Proc::replay (hot-loop tapes are at most
  /// ~a dozen entries; the cap keeps replay's addend buffer on the
  /// stack).
  static constexpr std::size_t kMaxEntries = 32;

 private:
  static std::uint64_t next_tape_id();

  std::vector<Entry> entries_;
  std::uint64_t id_;
};

/// Algebraic-settlement counters of one processor, summed into
/// RunResult::settle.  `closed_adds` / `memo_adds` are chain adds the
/// walk *skipped* (retired in closed form, the delta freshly probed
/// this settle vs served from the cross-replay memo); `probe_adds` are
/// real adds spent measuring period deltas; `chain_adds` are real adds
/// on records the algebraic engine declined (chain-only flags, tiny
/// repetition counts, binade-boundary periods).  Together they account
/// for every pending chain add, which is how the bench proves its
/// closed-form coverage claim.
struct SettleCounters {
  std::uint64_t closed_runs = 0;     ///< records retired via closed-form walks
  std::uint64_t closed_adds = 0;     ///< adds skipped with freshly probed deltas
  std::uint64_t memo_hits = 0;       ///< memo lookups that found cached deltas
  std::uint64_t memo_misses = 0;     ///< memo lookups that had to initialize
  std::uint64_t memo_adds = 0;       ///< adds skipped with memoized deltas
  std::uint64_t probe_adds = 0;      ///< real adds spent learning period deltas
  std::uint64_t chain_records = 0;   ///< records plain-chained by the engine
  std::uint64_t chain_adds = 0;      ///< real adds plain-chained by the engine

  static constexpr CounterField<SettleCounters> kFields[] = {
      {"closed_runs", &SettleCounters::closed_runs},
      {"closed_adds", &SettleCounters::closed_adds},
      {"memo_hits", &SettleCounters::memo_hits},
      {"memo_misses", &SettleCounters::memo_misses},
      {"memo_adds", &SettleCounters::memo_adds},
      {"probe_adds", &SettleCounters::probe_adds},
      {"chain_records", &SettleCounters::chain_records},
      {"chain_adds", &SettleCounters::chain_adds},
  };

  /// All chain adds settlement accounted for, however retired.
  std::uint64_t total_adds() const {
    return closed_adds + memo_adds + probe_adds + chain_adds;
  }
  /// Fraction of chain adds retired closed-form (freshly probed or
  /// memoized).
  double closed_coverage() const {
    const std::uint64_t total = total_adds();
    return total == 0 ? 0.0
                      : static_cast<double>(closed_adds + memo_adds) /
                            static_cast<double>(total);
  }

  bool operator==(const SettleCounters&) const = default;
};

/// Deferred charge ledger: the queue of replay and bulk-charge records
/// a processor has accumulated but not yet folded into its clock.
///
/// Taped skeleton variants no longer advance the clock eagerly; they
/// append records here and settlement happens lazily at the first
/// point the vtime is observed (send, recv, fold combine, stats read,
/// trace flush -- see Proc::maybe_settle).  Because settlement walks
/// the records strictly in append order and each record replays the
/// exact addend sequence Proc::replay would have executed, *when* the
/// ledger settles cannot move the clock: the dependent FP-add chain is
/// the same adds in the same order, only executed later (this is the
/// interleaved-replay identity of DESIGN.md section 8, applied at the
/// ledger level).
///
/// The ledger owns copies of the tape entries and the precomputed
/// addends (one unit * count multiply per entry, performed at append
/// time exactly as replay performs it), so a recorded tape may die
/// before its settlement.
class ChargeLedger {
 public:
  /// One deferred replay: `times` repetitions of the `n` entries
  /// starting at `first` in the entry/addend pools.  `tape_id` names
  /// the immutable (tape, n) entry prefix the record replays (0 for
  /// untaped charge records -- those never reach the memo);
  /// `chain_only` marks records whose addends the algebraic engine
  /// must not walk (negative or non-finite -- the ulp model assumes a
  /// monotone non-decreasing chain).
  struct Record {
    std::uint32_t first;
    std::uint32_t n;
    std::uint64_t times;
    std::uint64_t tape_id;
    bool chain_only;
  };

  /// Replay records repeated fewer than this many times are not worth
  /// probing (the probe alone replays one full period); the algebraic
  /// engine plain-chains them.
  static constexpr std::uint64_t kMinWalkTimes = 4;

  bool empty() const { return records_.empty(); }

  /// Number of dependent chain additions the pending records stand
  /// for (the full trace's settlement spans carry it).
  std::uint64_t pending_adds() const { return pending_adds_; }

  /// Defers replay(tape, times): copies the entries and precomputes
  /// the addends from the processor's unit-cost table.
  void append_replay(const ChargeTape& tape, const double* unit,
                     std::uint64_t times) {
    const std::size_t n = tape.size();
    if (n == 0 || times == 0) return;
    units_ = unit;
    const std::uint32_t first = static_cast<std::uint32_t>(entries_.size());
    bool chain_only = false;
    for (const ChargeTape::Entry& e : tape.entries()) {
      entries_.push_back(e);
      const double addend =
          unit[static_cast<int>(e.kind)] * static_cast<double>(e.count);
      addends_.push_back(addend);
      // The ulp walk needs every addend >= +0.0 and finite (the chain
      // must be monotone within a binade); anything else pins the
      // record to the plain chain.  !(addend >= 0.0) also catches NaN.
      if (!(addend >= 0.0) || addend - addend != 0.0) chain_only = true;
    }
    records_.push_back(
        Record{first, static_cast<std::uint32_t>(n), times, tape.id(),
               chain_only});
    pending_adds_ += static_cast<std::uint64_t>(n) * times;
  }

  /// Defers one charge(kind, count) with its precomputed addend.
  /// Consecutive deferred charges coalesce into the trailing record
  /// when it is a times==1 record (appending an entry to a once-played
  /// record is the same add sequence as a separate record), which
  /// keeps skeleton tail charges down to one record.
  void append_charge(Op kind, std::uint64_t count, double addend) {
    entries_.push_back(ChargeTape::Entry{kind, count});
    addends_.push_back(addend);
    const bool irregular = !(addend >= 0.0) || addend - addend != 0.0;
    if (!records_.empty()) {
      Record& last = records_.back();
      if (last.times == 1 && last.n < ChargeTape::kMaxEntries &&
          last.first + last.n == entries_.size() - 1) {
        ++last.n;
        // The grown record no longer matches the (tape, n) prefix its
        // tape_id names; drop the identity so the memo can never serve
        // deltas probed for a different entry sequence.
        last.tape_id = 0;
        last.chain_only = last.chain_only || irregular;
        ++pending_adds_;
        return;
      }
    }
    records_.push_back(Record{static_cast<std::uint32_t>(entries_.size() - 1),
                              1, 1, 0, irregular});
    ++pending_adds_;
  }

  /// Settles every pending record into (vtime, stats), in append
  /// order, by executing every chain add.  Arithmetic-identical to
  /// having executed the deferred replays/charges eagerly: same
  /// addends, same dependent-chain order, with the per-op integer
  /// counters booked batched and exact.  The reference oracle the
  /// tests hold settle_algebraic to.
  void settle(double& vtime, Stats& stats) {
    double vt = vtime;
    double cu = stats.compute_us;
    for (const Record& rec : records_) {
      const double* a = addends_.data() + rec.first;
      for (std::uint64_t t = 0; t < rec.times; ++t)
        for (std::uint32_t i = 0; i < rec.n; ++i) {
          vt += a[i];
          cu += a[i];
        }
      const ChargeTape::Entry* e = entries_.data() + rec.first;
      for (std::uint32_t i = 0; i < rec.n; ++i)
        stats.ops[static_cast<int>(e[i].kind)] += e[i].count * rec.times;
    }
    vtime = vt;
    stats.compute_us = cu;
    clear();
  }

  /// Settles every pending record algebraically: walkable records
  /// retire via the closed-form ulp walk (bit-identical to settle()
  /// by the parity argument of DESIGN.md section 12), chain-only and
  /// tiny records via the plain chain, and adds how into `counters`.
  /// Defined in charge_tape.cpp.
  void settle_algebraic(double& vtime, Stats& stats, SettleCounters& counters);

  void clear() {
    entries_.clear();
    addends_.clear();
    records_.clear();
    pending_adds_ = 0;
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<ChargeTape::Entry> entries_;
  std::vector<double> addends_;
  std::vector<Record> records_;
  std::uint64_t pending_adds_ = 0;
  /// The unit-cost table the addends were precomputed from (the
  /// owning Proc's table; stable for the ledger's lifetime).  Part of
  /// the settlement memo key: a cached period delta is only valid for
  /// the exact unit values that produced the addends.
  const double* units_ = nullptr;
};

}  // namespace skil::parix
