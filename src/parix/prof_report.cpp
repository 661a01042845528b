#include "parix/prof_report.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>

#include "support/error.h"

namespace skil::parix {

namespace {

using support::json::Value;

std::uint64_t u64(const Value& obj, std::string_view key) {
  return static_cast<std::uint64_t>(obj.num(key, 0.0));
}

/// Percentage with a zero-denominator guard (reads "0.0" rather than
/// dividing by zero on degenerate inputs like an instant run).
double pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

void line(std::ostream& out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  out << buffer << '\n';
}

}  // namespace

void render_prof_report(const Value& metrics, std::ostream& out) {
  const Value* sched = metrics.find("scheduler");
  SKIL_REQUIRE(sched != nullptr,
               "skil-prof: metrics file has no 'scheduler' object -- "
               "re-run the workload with SKIL_PROF=counters or "
               "SKIL_PROF=sampled");
  const Value* prof_name = sched->find("prof");
  const int carriers = static_cast<int>(sched->num("carriers", 0.0));
  const double wall_ns = sched->num("wall_ns", 0.0);
  const std::uint64_t samples = u64(*sched, "samples");

  line(out, "skil-prof -- host scheduler observatory");
  line(out, "mode %s, %d carriers, run wall %.3f ms, %" PRIu64
            " sampler ticks",
       prof_name != nullptr ? prof_name->string.c_str() : "?", carriers,
       wall_ns * 1e-6, samples);
  out << '\n';

  // Per-carrier table, plus a summed totals row.
  line(out, "carrier   util%%      fibers   resumed   steals ok/att"
            "   parks/unparks");
  std::uint64_t t_run = 0, t_resumed = 0, t_ok = 0, t_att = 0;
  std::uint64_t t_parks = 0, t_unparks = 0;
  double t_run_ns = 0.0;
  const Value* lanes = sched->find("per_carrier");
  if (lanes != nullptr && lanes->is_array()) {
    for (const Value& lane : lanes->array) {
      const std::uint64_t run = u64(lane, "fibers_run");
      const std::uint64_t resumed = u64(lane, "fibers_resumed");
      const std::uint64_t ok = u64(lane, "steal_successes");
      const std::uint64_t att = u64(lane, "steal_attempts");
      const std::uint64_t parks = u64(lane, "parks");
      const std::uint64_t unparks = u64(lane, "unparks");
      const double run_ns = lane.num("run_ns", 0.0);
      line(out, "%7d %7.1f %11" PRIu64 " %9" PRIu64 " %10" PRIu64
                "/%-5" PRIu64 " %9" PRIu64 "/%-7" PRIu64,
           static_cast<int>(lane.num("carrier", 0.0)), pct(run_ns, wall_ns),
           run, resumed, ok, att, parks, unparks);
      t_run += run;
      t_resumed += resumed;
      t_ok += ok;
      t_att += att;
      t_parks += parks;
      t_unparks += unparks;
      t_run_ns += run_ns;
    }
    const double lanes_n = static_cast<double>(lanes->array.size());
    line(out, "%7s %7.1f %11" PRIu64 " %9" PRIu64 " %10" PRIu64
              "/%-5" PRIu64 " %9" PRIu64 "/%-7" PRIu64,
         "total", pct(t_run_ns, wall_ns * lanes_n), t_run, t_resumed, t_ok,
         t_att, t_parks, t_unparks);
  }
  out << '\n';

  line(out, "steal success rate     %5.1f%%  (%" PRIu64 " of %" PRIu64
            " attempts)",
       pct(static_cast<double>(t_ok), static_cast<double>(t_att)), t_ok,
       t_att);

  const std::uint64_t memo_hits = u64(*sched, "memo_hits");
  const std::uint64_t memo_misses = u64(*sched, "memo_misses");
  if (const Value* settlement = metrics.find("settlement")) {
    line(out, "settlement coverage    %6.2f%% closed-form  (memo %" PRIu64
              " hits / %" PRIu64 " misses)",
         100.0 * settlement->num("closed_coverage", 0.0), memo_hits,
         memo_misses);
  } else {
    line(out, "settlement memo        %" PRIu64 " hits / %" PRIu64 " misses",
         memo_hits, memo_misses);
  }

  if (const Value* pool = sched->find("pool")) {
    const std::uint64_t acquires = u64(*pool, "acquires");
    const std::uint64_t hits = u64(*pool, "hits");
    line(out, "buffer pool hit rate   %5.1f%%  (%" PRIu64 " of %" PRIu64
              " acquires, %.2f MiB served)",
         pct(static_cast<double>(hits), static_cast<double>(acquires)), hits,
         acquires, pool->num("bytes", 0.0) / (1024.0 * 1024.0));
  }
}

}  // namespace skil::parix
