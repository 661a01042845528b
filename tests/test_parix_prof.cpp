// Host scheduler observatory (parix/prof.h, SKIL_PROF).
//
// The two contracts this suite pins:
//
//  1. Profiling never moves virtual time.  The golden vtimes are
//     bit-identical under SKIL_PROF=off, counters and sampled, across
//     engines, carrier counts and charge paths -- the profiler reads
//     host clocks and host counters only.
//
//  2. The counters are conserved.  Steal successes cannot exceed
//     attempts, pool hits + misses must equal acquires, and resumes
//     cannot exceed dispatches.  A violated invariant means an
//     instrumentation site dropped or double-counted an event.
//
// Plus the exporter surface: the metrics JSON scheduler block appears
// exactly when profiling is on, the merged Chrome trace carries the
// host carrier lanes, and the skil-prof dashboard renders a pinned
// fixture byte-for-byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/gauss.h"
#include "parix/executor.h"
#include "parix/metrics.h"
#include "parix/prof.h"
#include "parix/prof_report.h"
#include "parix/runtime.h"
#include "parix/trace.h"
#include "parix_golden_cases.h"
#include "support/error.h"
#include "support/json.h"

namespace {

using namespace skil;
using namespace skil::testing;

/// Runs `fn` with `mode` as the process-wide default profiler mode,
/// restoring the previous default afterwards.
template <class Fn>
auto with_prof_mode(parix::ProfMode mode, Fn&& fn) {
  const parix::ProfMode saved = parix::default_prof_mode();
  parix::set_default_prof_mode(mode);
  auto result = fn();
  parix::set_default_prof_mode(saved);
  return result;
}

/// Runs `fn` with the pooled engine pinned to `n` carriers, restoring
/// the env-resolved default afterwards.
template <class Fn>
auto with_carriers(int n, Fn&& fn) {
  parix::executor_set_carriers(n);
  auto result = fn();
  parix::executor_set_carriers(0);
  return result;
}

/// Runs `fn` with `mode` as the process-wide default trace mode,
/// restoring the previous default afterwards.
template <class Fn>
auto with_trace_mode(parix::TraceMode mode, Fn&& fn) {
  const parix::TraceMode saved = parix::default_trace_mode();
  parix::set_default_trace_mode(mode);
  auto result = fn();
  parix::set_default_trace_mode(saved);
  return result;
}

TEST(ProfMode, ParsesAcceptedNames) {
  EXPECT_EQ(parix::parse_prof_mode("off"), parix::ProfMode::kOff);
  EXPECT_EQ(parix::parse_prof_mode("counters"), parix::ProfMode::kCounters);
  EXPECT_EQ(parix::parse_prof_mode("sampled"), parix::ProfMode::kSampled);
  EXPECT_EQ(parix::prof_mode_name(parix::ProfMode::kOff), "off");
  EXPECT_EQ(parix::prof_mode_name(parix::ProfMode::kCounters), "counters");
  EXPECT_EQ(parix::prof_mode_name(parix::ProfMode::kSampled), "sampled");
}

TEST(ProfMode, RejectsUnknownNameWithCanonicalMessage) {
  try {
    parix::parse_prof_mode("trace");
    FAIL() << "parse_prof_mode accepted 'trace'";
  } catch (const support::ContractError& err) {
    EXPECT_NE(std::string(err.what())
                  .find("SKIL_PROF: unknown profiler mode 'trace' "
                        "(accepted values: off, counters, sampled)"),
              std::string::npos)
        << err.what();
  }
}

// The SKIL_ENGINE parser was migrated onto the same knob helper; its
// rejection must carry the identical canonical shape (satellite 1).
TEST(ProfMode, EngineKnobSharesCanonicalMessageShape) {
  try {
    parix::parse_execution_engine("fibers");
    FAIL() << "parse_execution_engine accepted 'fibers'";
  } catch (const support::ContractError& err) {
    EXPECT_NE(std::string(err.what())
                  .find("SKIL_ENGINE: unknown execution engine 'fibers' "
                        "(accepted values: threads, pooled)"),
              std::string::npos)
        << err.what();
  }
}

// Contract 1: bit-identical golden vtimes in every profiler mode.
// Every golden case runs profiled on both engines; the pooled engine
// (the instrumented one) additionally under the sampler.
TEST(ProfGoldenIdentity, AllCasesBothEnginesCountersAndSampled) {
  for (const GoldenCase& golden : golden_cases()) {
    for (const parix::ExecutionEngine engine :
         {parix::ExecutionEngine::kThreads, parix::ExecutionEngine::kPooled}) {
      for (const parix::ProfMode mode :
           {parix::ProfMode::kCounters, parix::ProfMode::kSampled}) {
        const parix::RunResult run = with_engine(engine, [&] {
          return with_prof_mode(mode, [&] { return golden.run(); });
        });
        EXPECT_EQ(run.vtime_us, golden.vtime_us)
            << golden.name << " engine " << static_cast<int>(engine)
            << " prof " << parix::prof_mode_name(mode);
        ASSERT_EQ(run.proc_vtimes.size(), golden.proc_vtimes.size())
            << golden.name;
        for (std::size_t p = 0; p < golden.proc_vtimes.size(); ++p)
          EXPECT_EQ(run.proc_vtimes[p], golden.proc_vtimes[p])
              << golden.name << " proc " << p;
      }
    }
  }
}

// Same contract across carrier counts and charge paths: the sampler
// and the per-carrier counters must not perturb the virtual times no
// matter how the host work is spread.
TEST(ProfGoldenIdentity, SampledAcrossCarriersAndChargePaths) {
  const GoldenCase& golden = golden_cases()[3];  // gauss_skil_p16_n64
  for (const int carriers : {1, 4}) {
    for (const parix::ChargePath path :
         {parix::ChargePath::kInterp, parix::ChargePath::kTape}) {
      const parix::RunResult run = with_carriers(carriers, [&] {
        return with_engine(parix::ExecutionEngine::kPooled, [&] {
          return with_charge_path(path, [&] {
            return with_prof_mode(parix::ProfMode::kSampled,
                                  [&] { return golden.run(); });
          });
        });
      });
      EXPECT_EQ(run.vtime_us, golden.vtime_us)
          << "carriers " << carriers << " path " << static_cast<int>(path);
      for (std::size_t p = 0; p < golden.proc_vtimes.size(); ++p)
        EXPECT_EQ(run.proc_vtimes[p], golden.proc_vtimes[p]) << p;
    }
  }
}

// Contract 2: counter conservation on a profiled pooled run.
TEST(ProfCounters, ConservationInvariants) {
  const parix::RunResult run = with_carriers(4, [&] {
    return with_engine(parix::ExecutionEngine::kPooled, [&] {
      return with_prof_mode(parix::ProfMode::kCounters, [&] {
        return apps::gauss_skil(16, 64, kGoldenSeed, false).run;
      });
    });
  });
  const parix::SchedulerReport& sched = run.scheduler;
  EXPECT_EQ(sched.mode, parix::ProfMode::kCounters);
  EXPECT_EQ(sched.carriers, 4);
  ASSERT_EQ(sched.per_carrier.size(), 4u);
  EXPECT_GT(sched.wall_ns, 0u);

  std::uint64_t fibers_run = 0, resumed = 0, attempts = 0, successes = 0;
  std::uint64_t parks = 0, unparks = 0;
  for (const parix::CarrierReport& lane : sched.per_carrier) {
    EXPECT_LE(lane.steal_successes, lane.steal_attempts);
    fibers_run += lane.fibers_run;
    resumed += lane.fibers_resumed;
    attempts += lane.steal_attempts;
    successes += lane.steal_successes;
    parks += lane.parks;
    unparks += lane.unparks;
  }
  // Every virtual processor's fiber is dispatched at least once.
  EXPECT_GE(fibers_run, 16u);
  // A resume is a re-dispatch of a fiber that ran before: strictly
  // fewer than the dispatches (the first dispatch of each fiber).
  EXPECT_LT(resumed, fibers_run);
  EXPECT_LE(successes, attempts);
  // Unparking is the only way out of a park this engine has.
  EXPECT_LE(unparks, parks);

  // The pool ledger must balance exactly.
  EXPECT_EQ(sched.pool.hits + sched.pool.misses, sched.pool.acquires);

  // The memo counters are surfaced from the settlement result 1:1.
  EXPECT_EQ(sched.memo_hits, run.settle.memo_hits);
  EXPECT_EQ(sched.memo_misses, run.settle.memo_misses);
}

TEST(ProfCounters, OffModeRecordsNothing) {
  const parix::RunResult run = with_engine(
      parix::ExecutionEngine::kPooled, [&] {
        return with_prof_mode(parix::ProfMode::kOff, [&] {
          return apps::gauss_skil(4, 64, kGoldenSeed, false).run;
        });
      });
  EXPECT_EQ(run.scheduler.mode, parix::ProfMode::kOff);
  EXPECT_TRUE(run.scheduler.per_carrier.empty());
  EXPECT_EQ(run.prof, nullptr);
}

TEST(ProfSampler, SampledRunCarriesTimeline) {
  const parix::RunResult run = with_carriers(4, [&] {
    return with_engine(parix::ExecutionEngine::kPooled, [&] {
      return with_prof_mode(parix::ProfMode::kSampled, [&] {
        return apps::gauss_skil(16, 64, kGoldenSeed, false).run;
      });
    });
  });
  ASSERT_NE(run.prof, nullptr);
  EXPECT_EQ(run.prof->carriers, 4);
  // The sampler takes one tick synchronously at start and one at stop,
  // so even the shortest run yields at least two ticks per carrier.
  EXPECT_GE(run.prof->samples.size(), 8u);
  EXPECT_EQ(run.prof->samples.size() % 4, 0u);
  EXPECT_EQ(run.scheduler.samples, run.prof->samples.size());
  // Tick-major order: sample i observes carrier i % carriers, with
  // wall clocks monotone within a lane.
  for (std::size_t i = 0; i < run.prof->samples.size(); ++i)
    EXPECT_EQ(run.prof->samples[i].carrier, static_cast<int>(i % 4)) << i;
  for (std::size_t i = 4; i < run.prof->samples.size(); ++i)
    EXPECT_GE(run.prof->samples[i].wall_ns, run.prof->samples[i - 4].wall_ns);
}

// The counters path must not allocate a timeline (only sampled does).
TEST(ProfSampler, CountersModeHasNoTimeline) {
  const parix::RunResult run = with_engine(
      parix::ExecutionEngine::kPooled, [&] {
        return with_prof_mode(parix::ProfMode::kCounters, [&] {
          return apps::gauss_skil(4, 64, kGoldenSeed, false).run;
        });
      });
  EXPECT_EQ(run.prof, nullptr);
  EXPECT_EQ(run.scheduler.samples, 0u);
}

TEST(ProfMetricsJson, SchedulerBlockPresentExactlyWhenProfiled) {
  const auto metrics_for = [&](parix::ProfMode mode) {
    const parix::RunResult run = with_engine(
        parix::ExecutionEngine::kPooled, [&] {
          return with_prof_mode(
              mode, [&] { return apps::gauss_skil(4, 64, kGoldenSeed,
                                                  false).run; });
        });
    std::ostringstream os;
    parix::write_metrics_json(run, os);
    return support::json::parse(os.str());
  };

  const support::json::Value off = metrics_for(parix::ProfMode::kOff);
  EXPECT_EQ(off.find("scheduler"), nullptr);

  const support::json::Value on = metrics_for(parix::ProfMode::kCounters);
  const support::json::Value* sched = on.find("scheduler");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->at("prof").string, "counters");
  const support::json::Value& lanes = sched->at("per_carrier");
  ASSERT_TRUE(lanes.is_array());
  ASSERT_FALSE(lanes.array.empty());
  std::uint64_t fibers = 0;
  for (const support::json::Value& lane : lanes.array)
    fibers += static_cast<std::uint64_t>(lane.at("fibers_run").number);
  EXPECT_GE(fibers, 4u);
  EXPECT_GE(sched->at("pool").at("acquires").number, 0.0);
}

TEST(ProfChromeTrace, MergedExportCarriesHostLanes) {
  const parix::RunResult run = with_carriers(4, [&] {
    return with_engine(parix::ExecutionEngine::kPooled, [&] {
      return with_prof_mode(parix::ProfMode::kSampled, [&] {
        return with_trace_mode(parix::TraceMode::kFull, [&] {
          return apps::gauss_skil(4, 64, kGoldenSeed, false).run;
        });
      });
    });
  });
  ASSERT_NE(run.trace, nullptr);
  ASSERT_NE(run.prof, nullptr);
  std::ostringstream os;
  parix::write_chrome_trace(*run.trace, run.prof.get(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"host carriers\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);

  const support::json::Value doc = support::json::parse(text);
  const support::json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  int host_events = 0, counter_events = 0;
  for (const support::json::Value& event : events.array) {
    if (event.num("pid", 0.0) == 1.0) ++host_events;
    const support::json::Value* ph = event.find("ph");
    if (ph != nullptr && ph->string == "C") ++counter_events;
  }
  EXPECT_GT(host_events, 0);
  EXPECT_GT(counter_events, 0);

  // The same trace without a timeline must carry no host process.
  std::ostringstream plain;
  parix::write_chrome_trace(*run.trace, plain);
  EXPECT_EQ(plain.str().find("\"host carriers\""), std::string::npos);
}

TEST(ProfReport, RendersPinnedFixtureByteExact) {
  const std::string dir = SKIL_PROF_FIXTURE_DIR;
  std::ifstream fixture(dir + "/metrics_4carriers.json");
  ASSERT_TRUE(fixture.good());
  std::ostringstream fixture_text;
  fixture_text << fixture.rdbuf();

  std::ostringstream rendered;
  parix::render_prof_report(support::json::parse(fixture_text.str()),
                            rendered);

  std::ifstream golden(dir + "/report_4carriers.golden.txt");
  ASSERT_TRUE(golden.good());
  std::ostringstream golden_text;
  golden_text << golden.rdbuf();
  EXPECT_EQ(rendered.str(), golden_text.str());
}

TEST(ProfReport, RefusesMetricsWithoutSchedulerBlock) {
  const parix::RunResult run = with_prof_mode(
      parix::ProfMode::kOff,
      [&] { return apps::gauss_skil(4, 64, kGoldenSeed, false).run; });
  std::ostringstream metrics;
  parix::write_metrics_json(run, metrics);
  std::ostringstream out;
  EXPECT_THROW(
      parix::render_prof_report(support::json::parse(metrics.str()), out),
      support::ContractError);
}

}  // namespace
