// Host-timeline profiling for the pooled multi-carrier engine
// (SKIL_PROF=off|counters|sampled).
//
// The PR 3 trace layer made the *simulated* machine observable; this
// layer observes the *host* engine underneath it: what each carrier
// thread spent its wall time on (running fibers, stealing, parked) and
// how the BufferPool arena behaved.  Two hard rules, inherited from
// the trace layer's off-mode discipline:
//
//  1. Off mode costs one untaken branch per hot-path site and performs
//     no allocation.  Every site is gated on a single relaxed atomic
//     load (`prof_registry()` returning nullptr, or `prof_counting()`
//     being false).
//
//  2. Profiling reads the host clock and host counters only.  Nothing
//     here ever feeds back into virtual time: the golden vtimes are
//     bit-identical in every mode, and the tests pin that.
//
// Counters live in a per-carrier, cache-line-padded registry so two
// carriers never contend on a line.  The registry is process-global
// and append-only: when the carrier count grows, a larger array is
// published and the old one is retired into a keep-alive list instead
// of being freed, so a racing reader can never touch freed memory.
// Registries are tiny (a few KiB) and resizes are rare (explicit
// executor_set_carriers calls), so the retained memory is noise.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string_view>
#include <vector>

#include "parix/counters.h"

namespace skil::parix {

enum class ProfMode {
  kOff = 0,      ///< No profiling; one untaken branch per site.
  kCounters,     ///< Per-carrier counters, aggregated on RunResult.
  kSampled,      ///< Counters + a low-frequency host-timeline sampler.
};

ProfMode parse_prof_mode(std::string_view name);
std::string_view prof_mode_name(ProfMode mode);
ProfMode default_prof_mode();
void set_default_prof_mode(ProfMode mode);

/// One carrier thread's counters.  All fields are written by the
/// owning carrier (or under the scheduler mutex) with relaxed atomics
/// and read by the sampler/aggregator without synchronization: every
/// field is monotone (or a gauge), so a torn read across fields is
/// harmless and a per-field relaxed read is exact.
struct alignas(64) CarrierCounters {
  std::atomic<std::uint64_t> fibers_run{0};       ///< dispatches (first or resumed)
  std::atomic<std::uint64_t> fibers_resumed{0};   ///< dispatches of a fiber that ran before
  std::atomic<std::uint64_t> steal_attempts{0};   ///< probes of a non-home queue
  std::atomic<std::uint64_t> steal_successes{0};  ///< fibers taken from a non-home queue
  std::atomic<std::uint64_t> steal_failed_rounds{0};  ///< full sweeps that found nothing
  std::atomic<std::uint64_t> parks{0};            ///< kParking -> kParked transitions
  std::atomic<std::uint64_t> unparks{0};          ///< kParked -> ready wakeups
  std::atomic<std::uint64_t> run_ns{0};           ///< host ns inside fiber context switches
  // Gauges for the sampler (not part of the delta report).
  std::atomic<std::int32_t> running_proc{-1};     ///< vproc id on this carrier, -1 = idle
  std::atomic<std::int32_t> queue_depth{0};       ///< ready fibers homed on this carrier
};

struct ProfRegistry {
  CarrierCounters* carriers = nullptr;
  int n = 0;
};

namespace prof_detail {
extern std::atomic<ProfRegistry*> g_registry;
extern std::atomic<int> g_active_runs;
}  // namespace prof_detail

/// The hot-path gate: nullptr whenever no profiled run is active, so
/// every instrumentation site is `if (prof) [[unlikely]] ...`.
inline ProfRegistry* prof_registry() {
  if (prof_detail::g_active_runs.load(std::memory_order_relaxed) == 0)
    return nullptr;
  return prof_detail::g_registry.load(std::memory_order_relaxed);
}

/// Gate for sites that have no registry pointer handy (BufferPool).
inline bool prof_counting() {
  return prof_detail::g_active_runs.load(std::memory_order_relaxed) > 0;
}

/// Grows the registry to cover at least `carriers` lanes (never
/// shrinks).  Called by the executor with its worker count before a
/// profiled run and whenever the pool is (re)spawned, so an active
/// registry always covers every live carrier index.
void prof_ensure_registry(int carriers);

/// Refcounted activation: sites count only while >= 1 run wants
/// profiling, so SKIL_PROF=off runs pay nothing even after a profiled
/// run has populated the registry.
void prof_activate();
void prof_deactivate();

/// RAII guard used by spmd_run_ref (exception-safe deactivation).
class ProfActivation {
 public:
  explicit ProfActivation(bool on) : on_(on) {
    if (on_) prof_activate();
  }
  ~ProfActivation() {
    if (on_) prof_deactivate();
  }
  ProfActivation(const ProfActivation&) = delete;
  ProfActivation& operator=(const ProfActivation&) = delete;

 private:
  bool on_;
};

/// BufferPool arena accounting (process-wide; the pool is shared by
/// all carriers and its own mutex serializes acquires).
struct PoolCounters {
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes = 0;  ///< payload bytes served (hits + misses)
};

/// Out-of-line so buffer_pool.h only pays a call on profiled runs.
void prof_note_pool_acquire(bool hit, std::uint64_t bytes);
PoolCounters prof_pool_counters();

/// One carrier's counts: cumulative in prof_snapshot, a run's activity
/// in SchedulerReport (the delta of two snapshots).  Each field lists
/// the CarrierCounters atomic it reads.
struct CarrierReport {
  struct Field {
    std::string_view name;
    std::uint64_t CarrierReport::*member;
    std::atomic<std::uint64_t> CarrierCounters::*counter;
  };

  std::uint64_t fibers_run = 0;
  std::uint64_t fibers_resumed = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t steal_failed_rounds = 0;
  std::uint64_t parks = 0;
  std::uint64_t unparks = 0;
  std::uint64_t run_ns = 0;

  static constexpr Field kFields[] = {
      {"fibers_run", &CarrierReport::fibers_run, &CarrierCounters::fibers_run},
      {"fibers_resumed", &CarrierReport::fibers_resumed,
       &CarrierCounters::fibers_resumed},
      {"steal_attempts", &CarrierReport::steal_attempts,
       &CarrierCounters::steal_attempts},
      {"steal_successes", &CarrierReport::steal_successes,
       &CarrierCounters::steal_successes},
      {"steal_failed_rounds", &CarrierReport::steal_failed_rounds,
       &CarrierCounters::steal_failed_rounds},
      {"parks", &CarrierReport::parks, &CarrierCounters::parks},
      {"unparks", &CarrierReport::unparks, &CarrierCounters::unparks},
      {"run_ns", &CarrierReport::run_ns, &CarrierCounters::run_ns},
  };

  bool operator==(const CarrierReport&) const = default;
};

/// Every registry lane's cumulative counts, for before/after deltas.
std::vector<CarrierReport> prof_snapshot();

/// The per-run scheduler report carried on RunResult and exported as
/// the `scheduler` object of the metrics JSON.  `carriers` is 0 for
/// the threads engine (no carrier pool), but pool and memo counters
/// are still reported there.
struct SchedulerReport {
  ProfMode mode = ProfMode::kOff;
  int carriers = 0;
  std::vector<CarrierReport> per_carrier;
  PoolCounters pool;
  std::uint64_t memo_hits = 0;    ///< tape-memo hits (from SettleCounters)
  std::uint64_t memo_misses = 0;
  std::uint64_t wall_ns = 0;      ///< host wall time of the run
  std::uint64_t samples = 0;      ///< sampler ticks (kSampled only)
};

/// Flat, carrier-summed totals -- the shape the bench sweeps ship over
/// the fork-pipe wire and aggregate across cells.
struct SchedulerTotals : CarrierReport {
  /// A field, and the PoolCounters member it sums (null for the
  /// carrier fields, which sum SchedulerReport::per_carrier).
  struct Field {
    std::string_view name;
    std::uint64_t SchedulerTotals::*member;
    std::uint64_t PoolCounters::*pool;
  };

  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_bytes = 0;

  /// The carriers' fields, then the four pool fields.
  static constexpr std::size_t kCount = std::size(CarrierReport::kFields) + 4;
  static const std::array<Field, kCount> kFields;

  void add(const SchedulerReport& report);
  void add(const SchedulerTotals& other) { *this += other; }

  bool operator==(const SchedulerTotals&) const = default;
};

inline constexpr std::array<SchedulerTotals::Field, SchedulerTotals::kCount>
    SchedulerTotals::kFields = [] {
      std::array<Field, kCount> fields{};
      std::size_t i = 0;
      for (const CarrierReport::Field& f : CarrierReport::kFields)
        fields[i++] = {f.name, f.member, nullptr};
      for (const Field& f :
           {Field{"pool_acquires", &SchedulerTotals::pool_acquires,
                  &PoolCounters::acquires},
            Field{"pool_hits", &SchedulerTotals::pool_hits,
                  &PoolCounters::hits},
            Field{"pool_misses", &SchedulerTotals::pool_misses,
                  &PoolCounters::misses},
            Field{"pool_bytes", &SchedulerTotals::pool_bytes,
                  &PoolCounters::bytes}})
        fields.at(i++) = f;
      return fields;
    }();

/// One sampler tick of one carrier.  `fibers_run` / `steal_successes`
/// are cumulative counter values at the tick (consumers diff adjacent
/// ticks for rates); the rest are instantaneous gauges.
struct ProfSample {
  std::uint64_t wall_ns = 0;  ///< ns since the run's wall epoch
  std::int32_t carrier = 0;
  std::int32_t running_proc = -1;
  std::int32_t queue_depth = 0;
  std::uint64_t fibers_run = 0;
  std::uint64_t steal_successes = 0;
};

/// The sampled host timeline of one run: tick-major, carrier-minor
/// (carriers*k samples for k ticks).
struct ProfTimeline {
  int carriers = 0;
  std::uint64_t period_ns = 0;
  std::vector<ProfSample> samples;
};

/// The low-frequency sampler thread (kSampled mode).  Takes one
/// snapshot immediately on construction -- so even a sub-period run
/// gets at least one tick per carrier -- then one every `period`.
/// The destructor stops and joins.
class ProfSampler {
 public:
  ProfSampler(std::chrono::steady_clock::time_point epoch, int carriers,
              std::chrono::nanoseconds period = std::chrono::milliseconds(1));
  ~ProfSampler();

  ProfSampler(const ProfSampler&) = delete;
  ProfSampler& operator=(const ProfSampler&) = delete;

  /// Stops the thread and hands over the collected timeline.
  std::shared_ptr<const ProfTimeline> stop();

 private:
  void sample_once(std::chrono::steady_clock::time_point now);

  friend class SamplerWorker;

  std::chrono::steady_clock::time_point epoch_;
  std::chrono::nanoseconds period_;
  std::shared_ptr<ProfTimeline> timeline_;
  bool stopped_ = false;
};

}  // namespace skil::parix
