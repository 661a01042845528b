// Host scheduler observatory (parix/prof.h, SKIL_PROF).
//
// The two contracts this suite pins:
//
//  1. Profiling never moves virtual time: the profiler reads host
//     clocks and host counters only.  goldens.prof_counters checks
//     every pinned run under SKIL_PROF=counters.
//
//  2. The counters are conserved.  Steal successes cannot exceed
//     attempts, and resumes cannot exceed dispatches.  A violated
//     invariant means an instrumentation site dropped or
//     double-counted an event.
//
// Plus the exporter surface: the metrics JSON scheduler block appears
// exactly when profiling is on, and the skil-prof dashboard renders a
// pinned fixture byte-for-byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/gauss.h"
#include "goldens/pinned_runs.h"
#include "parix/executor.h"
#include "parix/metrics.h"
#include "parix/prof.h"
#include "parix/prof_report.h"
#include "parix/runtime.h"
#include "support/error.h"
#include "support/json.h"
#include "with_knobs.h"

namespace {

using namespace skil;
using namespace skil::testing;
using goldens::kSeed;

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

TEST(ProfMode, ParsesAcceptedNames) {
  EXPECT_EQ(parix::parse_prof_mode("off"), parix::ProfMode::kOff);
  EXPECT_EQ(parix::parse_prof_mode("counters"), parix::ProfMode::kCounters);
  EXPECT_EQ(parix::prof_mode_name(parix::ProfMode::kOff), "off");
  EXPECT_EQ(parix::prof_mode_name(parix::ProfMode::kCounters), "counters");
}

// Any other name is rejected, and the message lists the accepted ones.
TEST(ProfMode, RejectsUnknownNameWithCanonicalMessage) {
  for (const char* name : {"trace", "sampled"}) {
    try {
      parix::parse_prof_mode(name);
      FAIL() << "parse_prof_mode accepted '" << name << "'";
    } catch (const support::ContractError& err) {
      EXPECT_NE(std::string(err.what())
                    .find(std::string("SKIL_PROF: unknown profiler mode '") +
                          name + "' (accepted values: off, counters)"),
                std::string::npos)
          << err.what();
    }
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

// Contract 2: counter conservation on a profiled pooled run.
TEST(ProfCounters, ConservationInvariants) {
  const parix::RunResult run = with_carriers(4, [&] {
    return with_engine(parix::ExecutionEngine::kPooled, [&] {
      return with_prof_mode(parix::ProfMode::kCounters, [&] {
        return apps::gauss_skil(16, 64, kSeed, false).run;
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

  // The memo counters are surfaced from the settlement result 1:1.
  EXPECT_EQ(sched.memo_hits, run.settle.memo_hits);
  EXPECT_EQ(sched.memo_misses, run.settle.memo_misses);
}

TEST(ProfCounters, OffModeRecordsNothing) {
  const parix::RunResult run = with_engine(
      parix::ExecutionEngine::kPooled, [&] {
        return with_prof_mode(parix::ProfMode::kOff, [&] {
          return apps::gauss_skil(4, 64, kSeed, false).run;
        });
      });
  EXPECT_EQ(run.scheduler.mode, parix::ProfMode::kOff);
  EXPECT_TRUE(run.scheduler.per_carrier.empty());
}

TEST(ProfMetricsJson, SchedulerBlockPresentExactlyWhenProfiled) {
  const auto metrics_for = [&](parix::ProfMode mode) {
    const parix::RunResult run = with_engine(
        parix::ExecutionEngine::kPooled, [&] {
          return with_prof_mode(
              mode, [&] { return apps::gauss_skil(4, 64, kSeed,
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
      [&] { return apps::gauss_skil(4, 64, kSeed, false).run; });
  std::ostringstream metrics;
  parix::write_metrics_json(run, metrics);
  std::ostringstream out;
  EXPECT_THROW(
      parix::render_prof_report(support::json::parse(metrics.str()), out),
      support::ContractError);
}

}  // namespace
