#include "parix/charge_tape.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support/env.h"

namespace skil::parix {

namespace {

ChargePath initial_default_charge_path() {
  if (const char* env = std::getenv("SKIL_CHARGE"))
    return parse_charge_path(env);
  return ChargePath::kTape;
}

ChargePath& default_charge_path_slot() {
  static ChargePath path = initial_default_charge_path();
  return path;
}

FuseMode initial_default_fuse_mode() {
  if (const char* env = std::getenv("SKIL_FUSE"))
    return parse_fuse_mode(env);
  return FuseMode::kOff;
}

FuseMode& default_fuse_mode_slot() {
  static FuseMode mode = initial_default_fuse_mode();
  return mode;
}

}  // namespace

ChargePath parse_charge_path(std::string_view name) {
  static constexpr std::string_view kNames[] = {"interp", "tape"};
  static_assert(static_cast<int>(ChargePath::kInterp) == 0 &&
                static_cast<int>(ChargePath::kTape) == 1);
  return support::parse_knob<ChargePath>("SKIL_CHARGE", "charge path", name,
                                         kNames);
}

ChargePath default_charge_path() { return default_charge_path_slot(); }

void set_default_charge_path(ChargePath path) {
  default_charge_path_slot() = path;
}

FuseMode parse_fuse_mode(std::string_view name) {
  static constexpr std::string_view kNames[] = {"off", "on"};
  static_assert(static_cast<int>(FuseMode::kOff) == 0 &&
                static_cast<int>(FuseMode::kOn) == 1);
  return support::parse_knob<FuseMode>("SKIL_FUSE", "fuse mode", name, kNames);
}

std::string_view fuse_mode_name(FuseMode mode) {
  switch (mode) {
    case FuseMode::kOff: return "off";
    case FuseMode::kOn: return "on";
  }
  return "?";
}

FuseMode default_fuse_mode() { return default_fuse_mode_slot(); }

void set_default_fuse_mode(FuseMode mode) {
  default_fuse_mode_slot() = mode;
}

std::uint64_t ChargeTape::next_tape_id() {
  // Starts at 1: id 0 marks untaped ledger records, which the
  // settlement memo must never serve.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Algebraic settlement (DESIGN.md section 12).
//
// Within one binade of a non-negative accumulator x every
// representable double is an integer multiple of the binade's ulp u:
// write x = m * u with the "ulp integer" m in [2^52, 2^53) (normals)
// or [0, 2^52) (subnormals; u = 2^-1074 there).  Adding a >= 0 gives
// the exact sum (m + a/u) * u; rounding to nearest picks the integer
// next to m + a/u, and the only data dependence on m is the
// round-half-even choice when a/u lands exactly on .5 -- which
// depends on the *parity* of m, nothing else (the fractional part of
// a/u is a property of the addend and the binade alone).  By
// induction over a record's addend sequence, one replay period
// advances m by a delta that is a pure function of the starting
// parity, per (addend sequence, binade), as long as every
// intermediate stays inside the binade.
//
// So: chain ONE period for real to *measure* the delta ("probe"),
// then retire the remaining periods in exact uint64 arithmetic --
// bit-identical by construction, without executing the adds.  The
// probed deltas are memoized across replays keyed on the tape's
// process-unique identity, the unit-cost table and the binade, so
// steady-state sweeps settle each record with one memo lookup and a
// handful of integer operations.
//
// Boundary cases, all proven in DESIGN.md section 12:
//  * walks are capped so m never exceeds the binade top `cap`; a walk
//    that lands exactly on cap materializes the next binade's bottom
//    (or +inf from the topmost binade, matching IEEE overflow), and
//    the loop re-keys on the new binade;
//  * a period that would cross the boundary mid-way is chained for
//    real (its adds count as chain adds) and the loop re-extracts;
//  * a measured delta of zero is a fixed point -- per-step deltas are
//    non-negative and sum to zero, so every step leaves the value
//    untouched and all remaining periods retire at once;
//  * negative or non-finite accumulators fall back to real chaining
//    with a bitwise fixed-point check per period (the chain is
//    deterministic, so an unchanged period proves all remaining
//    periods identical);
//  * records with negative/non-finite addends never get here at all
//    (ChargeLedger flags them chain_only at append time).
// ---------------------------------------------------------------------------

namespace {

/// Delta value marking "not yet probed" in the memo (an impossible
/// per-period advance: it would overflow any binade).
inline constexpr std::uint64_t kUnknownDelta = ~0ull;

/// Binade key of the subnormal range (ulp 2^-1074); normal binades use
/// their unbiased exponent.
inline constexpr int kSubnormalKey = -1075;

/// Sentinel "no binade cached" key for the per-record walk state.
inline constexpr int kNoBinade = 0x7fffffff;

struct UlpDomain {
  std::uint64_t m = 0;    ///< ulp integer of x within its binade
  std::uint64_t cap = 0;  ///< m == cap means x left the binade upward
  int key = kNoBinade;    ///< binade identity (memo key component)
};

/// Decomposes x into its ulp domain.  Returns false for negative,
/// infinite or NaN values (the walk model needs x >= +0.0).
inline bool ulp_extract(double x, UlpDomain* d) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  if (bits >> 63) return false;
  const std::uint64_t ebits = bits >> 52;
  if (ebits == 0x7ff) return false;
  if (ebits == 0) {
    d->m = bits;
    d->cap = std::uint64_t{1} << 52;
    d->key = kSubnormalKey;
    return true;
  }
  d->m = (std::uint64_t{1} << 52) | (bits & ((std::uint64_t{1} << 52) - 1));
  d->cap = std::uint64_t{1} << 53;
  d->key = static_cast<int>(ebits) - 1023;
  return true;
}

/// Rebuilds the double from a (binade, ulp integer) pair.  m == cap is
/// legal and yields the next binade's bottom value: 2^(e+1) when a
/// normal binade tops out (for the topmost binade that is 2^1024,
/// which IEEE round-to-nearest overflows to +inf -- exactly what the
/// real chain would have produced), DBL_MIN when the subnormals do
/// (the bit patterns are contiguous there, so the raw cast already
/// lands on it).
inline double ulp_materialize(int key, std::uint64_t m) {
  if (key == kSubnormalKey) return std::bit_cast<double>(m);
  std::uint64_t e = static_cast<std::uint64_t>(key + 1023);
  if (m == std::uint64_t{1} << 53) {
    ++e;
    m = std::uint64_t{1} << 52;
  }
  if (e >= 0x7ff) return std::bit_cast<double>(std::uint64_t{0x7ff} << 52);
  return std::bit_cast<double>((e << 52) |
                               (m & ((std::uint64_t{1} << 52) - 1)));
}

/// One cross-replay memo entry: the two parity deltas probed for a
/// (tape identity, entry count, unit table, binade) combination.  The
/// key is collision-free by construction -- (tape id, n) names one
/// immutable entry prefix for the process lifetime (ChargeTape ids
/// are never reused and tapes are append-only; copies take fresh
/// ids), and the unit values are compared outright -- so a verified
/// hit is *proof* the cached deltas describe this record's addend
/// sequence, independent of the clock values of the replay that
/// probed them.
struct MemoEntry {
  std::uint64_t tape_id = 0;  ///< 0 = empty slot
  std::uint32_t n = 0;
  std::int32_t key = 0;
  double units[kOpKinds] = {};
  std::uint64_t d[2] = {kUnknownDelta, kUnknownDelta};
};

/// Direct-mapped per-thread memo (~180 KB).  Collisions simply
/// overwrite: the memo is a performance cache, never a correctness
/// dependency, and the sweep's working set (a handful of live tapes x
/// a few binades) sits far below the slot count.
struct MemoTable {
  static constexpr std::size_t kSlots = 2048;
  MemoEntry slots[kSlots];
};

/// Carrier threads resume fibers that may have parked on *other*
/// carriers, and GCC caches TLS addresses across calls it cannot see
/// through -- the same trap executor.cpp documents for its fiber
/// slot.  Settlement never parks between taking this reference and
/// finishing with it, but the accessor still goes through a noinline
/// call with a compiler barrier so a resumed fiber can never keep a
/// pre-park table address in a register.
__attribute__((noinline)) MemoTable& settle_memo_table() {
  thread_local MemoTable table;
  asm volatile("");
  return table;
}

/// Finds (or initializes) the memo slot for this record/binade.  On a
/// verified hit, `cached[p]` reports whether parity p's delta was
/// already known -- the walk uses it to attribute skipped adds to the
/// memo vs to this settle's own probes.
MemoEntry* memo_lookup(std::uint64_t tape_id, std::uint32_t n, int key,
                       const double* units, SettleCounters* c, bool cached[2]) {
  MemoTable& table = settle_memo_table();
  std::uint64_t h = tape_id * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key)) << 32) | n;
  h *= 0x9E3779B97F4A7C15ull;
  MemoEntry& slot = table.slots[(h >> 40) & (MemoTable::kSlots - 1)];
  if (slot.tape_id == tape_id && slot.n == n &&
      slot.key == static_cast<std::int32_t>(key) &&
      std::memcmp(slot.units, units, sizeof(slot.units)) == 0) {
    if (c != nullptr) ++c->memo_hits;
    cached[0] = slot.d[0] != kUnknownDelta;
    cached[1] = slot.d[1] != kUnknownDelta;
    return &slot;
  }
  if (c != nullptr) ++c->memo_misses;
  slot.tape_id = tape_id;
  slot.n = n;
  slot.key = static_cast<std::int32_t>(key);
  std::memcpy(slot.units, units, sizeof(slot.units));
  slot.d[0] = kUnknownDelta;
  slot.d[1] = kUnknownDelta;
  cached[0] = false;
  cached[1] = false;
  return &slot;
}

/// Advances one accumulator through `times` replay periods of the
/// `n` addends at `a`, bit-identical to chaining every add, probing
/// and walking per the header comment.  `c` may be null (the
/// compute_us twin chain advances through the same walk but is not
/// double-counted: the counters track the vtime chain, matching the
/// ledger's pending_adds semantics).
void advance_chain(double& acc, const double* a, std::uint32_t n,
                   std::uint64_t times, std::uint64_t tape_id,
                   const double* units, SettleCounters* c) {
  double x = acc;
  std::uint64_t T = times;
  UlpDomain dom;
  int cur_key = kNoBinade;
  MemoEntry* slot = nullptr;
  bool cached[2] = {false, false};

  while (T > 0) {
    if (!ulp_extract(x, &dom)) {
      // Negative / inf / NaN accumulator: outside the ulp model.
      // Chain one period for real; the chain is deterministic, so an
      // unchanged period proves every remaining period identical.
      const double before = x;
      for (std::uint32_t i = 0; i < n; ++i) x += a[i];
      --T;
      if (c != nullptr) c->chain_adds += n;
      if (T > 0 && std::bit_cast<std::uint64_t>(x) ==
                       std::bit_cast<std::uint64_t>(before)) {
        if (c != nullptr) c->closed_adds += T * n;
        T = 0;
      }
      cur_key = kNoBinade;
      slot = nullptr;
      continue;
    }
    if (dom.key != cur_key || slot == nullptr) {
      cur_key = dom.key;
      slot = memo_lookup(tape_id, n, cur_key, units, c, cached);
    }
    const unsigned p = static_cast<unsigned>(dom.m & 1);
    const std::uint64_t dp = slot->d[p];
    if (dp == kUnknownDelta) {
      // Probe: chain one period for real and measure the ulp delta.
      // A probe that crossed the binade mixes two ulp scales and is
      // discarded; the loop re-keys on the new binade.
      const std::uint64_t m0 = dom.m;
      for (std::uint32_t i = 0; i < n; ++i) x += a[i];
      --T;
      if (c != nullptr) c->probe_adds += n;
      UlpDomain end;
      if (ulp_extract(x, &end) && end.key == cur_key) {
        slot->d[p] = end.m - m0;
      } else {
        slot = nullptr;  // force a re-key next iteration
      }
      continue;
    }
    const bool from_memo = cached[p];
    const std::uint64_t budget = dom.cap - dom.m;
    std::uint64_t retired = 0;
    std::uint64_t delta = 0;
    if (dp == 0) {
      // Fixed point: per-step deltas are non-negative and sum to
      // zero, so every step leaves the value untouched.
      retired = T;
    } else if ((dp & 1) == 0) {
      // Even delta preserves the parity: every following period
      // advances by the same dp.
      retired = budget / dp;
      if (retired > T) retired = T;
      delta = retired * dp;
    } else {
      const std::uint64_t dq = slot->d[p ^ 1];
      if (dq != kUnknownDelta && (dq & 1) == 1) {
        // Odd/odd: a pair of periods restores the parity and advances
        // by dp + dq (dq >= 1 keeps every intra-pair intermediate
        // strictly inside the binade).
        std::uint64_t pairs = budget / (dp + dq);
        const std::uint64_t half = T / 2;
        if (pairs > half) pairs = half;
        retired = 2 * pairs;
        delta = pairs * (dp + dq);
      }
      if (retired == 0 && dp <= budget) {
        // Single closed period: flips the parity; the partner delta
        // is even or still unknown, so the loop re-dispatches (and
        // probes the other parity at most once per binade).
        retired = 1;
        delta = dp;
      }
    }
    if (retired == 0) {
      // The next period would cross the binade boundary mid-way:
      // chain it for real and re-extract in the new binade.
      for (std::uint32_t i = 0; i < n; ++i) x += a[i];
      --T;
      if (c != nullptr) c->chain_adds += n;
      slot = nullptr;
      continue;
    }
    T -= retired;
    x = ulp_materialize(cur_key, dom.m + delta);
    if (c != nullptr)
      (from_memo ? c->memo_adds : c->closed_adds) +=
          retired * static_cast<std::uint64_t>(n);
  }
  acc = x;
}

}  // namespace

void FusionCounters::note_fused(std::uint64_t barriers, std::uint64_t tapes) {
  ++seen;
  ++fused;
  barriers_eliminated += barriers;
  tapes_eliminated += tapes;
}

void FusionCounters::note_rejected(FusionReject reason) {
  ++seen;
  switch (reason) {
    case FusionReject::kShape: ++rejected_shape; break;
    case FusionReject::kOrder: ++rejected_order; break;
    case FusionReject::kPath: ++rejected_path; break;
  }
}

void ChargeLedger::settle_algebraic(double& vtime, Stats& stats,
                                    SettleCounters& counters) {
  // Counted into a local and added into the processor's counters once
  // per settle, so the walk's increments stay in registers.
  SettleCounters local;
  double vt = vtime;
  double cu = stats.compute_us;
  for (const Record& rec : records_) {
    const double* a = addends_.data() + rec.first;
    const ChargeTape::Entry* e = entries_.data() + rec.first;
    for (std::uint32_t i = 0; i < rec.n; ++i)
      stats.ops[static_cast<int>(e[i].kind)] += e[i].count * rec.times;
    if (rec.chain_only || rec.tape_id == 0 || rec.times < kMinWalkTimes) {
      for (std::uint64_t t = 0; t < rec.times; ++t)
        for (std::uint32_t i = 0; i < rec.n; ++i) {
          vt += a[i];
          cu += a[i];
        }
      ++local.chain_records;
      local.chain_adds += static_cast<std::uint64_t>(rec.n) * rec.times;
      continue;
    }
    const std::uint64_t skipped = local.closed_adds + local.memo_adds;
    advance_chain(vt, a, rec.n, rec.times, rec.tape_id, units_, &local);
    advance_chain(cu, a, rec.n, rec.times, rec.tape_id, units_, nullptr);
    if (local.closed_adds + local.memo_adds > skipped) ++local.closed_runs;
  }
  vtime = vt;
  stats.compute_us = cu;
  counters += local;
  clear();
}

}  // namespace skil::parix
