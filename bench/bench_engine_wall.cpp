// Execution-engine wall-clock comparison on the Table 2 grid.
//
// Runs the full Gaussian-elimination sweep (Skil + DPFL + Parix-C, no
// pivoting) once under the legacy one-OS-thread-per-virtual-processor
// engine and once under the pooled fiber engine, reports host wall
// seconds for each, and checks that the *virtual* times -- the
// scientific artefact -- are bit-identical across engines.
//
// Usage: bench_engine_wall [--quick] [--json=path] [--out-dir=dir]
//                          [--baseline=secs] [--baseline-note=text]
//                          [--reps=N] [--jobs=N|auto]
//                          [--carriers=N|auto] [--charge=interp|tape]
//                          [--fuse=off|on] [--prof=off|counters]
//                          [--coll=tree|ring|rd|auto]
//                          [--engine=threads|pooled|both] [--trace-out=dir]
//
// --engine restricts the sweep to one engine (default: both).  With a
// single engine there is no cross-engine vtime comparison, so the
// report's vtimes_identical_across_engines is trivially true.
//
// --jobs forks one worker process per (p, n) cell, up to N at a time
// (virtual times are per-cell deterministic, so the assembled grid is
// identical); --jobs=auto resolves to the host's hardware
// concurrency.  --carriers pins the pooled engine's carrier-thread
// count (exported as SKIL_CARRIERS so forked cell workers inherit
// it); 'auto' resolves to hardware concurrency.  --charge selects the
// accounting path of the skeleton hot loops (default: the process
// default, i.e. SKIL_CHARGE or tape) -- both paths retire the
// identical add chain, so it moves wall time only.
// --fuse selects the skeleton fusion mode (charge_tape.h; default:
// the process default, i.e. SKIL_FUSE or off) -- 'on' runs the fused
// one-pass compositions, which lowers the *virtual* times too (the
// fused schedule is the artefact; see EXPERIMENTS.md W6 for the
// same-build off/on A/B methodology).
// --prof selects the host scheduler counters (prof.h; default: the
// process default, i.e. SKIL_PROF or off) -- they read host clocks and
// counters only, so the *virtual* times stay bit-identical in both
// modes; the wall times include the (small) counting overhead, which
// EXPERIMENTS.md W7 quantifies.
// --coll selects the collective-algorithm family (parix/coll.h;
// default: the process default, i.e. SKIL_COLL or auto) -- like
// --fuse this legitimately moves the *virtual* times (the non-tree
// algorithms change the communication schedule) while the array
// results stay bit-identical; EXPERIMENTS.md W8 records the
// same-build tree/auto A/B.
// --trace-out runs one representative cell again under full tracing
// (after the timed sweep, so the timings stay untraced) and writes its
// Chrome trace + metrics JSON (parix/metrics.h) into the directory
// (a bare --trace-out: --out-dir), which is made before the sweep.  A
// path that cannot be written exits 2 naming it.
//
// The JSON report (default BENCH_engine.json, schema_version 10)
// records the run configuration (reps, jobs, nproc, charge path,
// fuse, prof and coll modes) and per-cell wall seconds + virtual
// times alongside both engines' totals, so EXPERIMENTS.md can cite the
// engine speedup
// from a committed artefact; scripts/bench_trajectory.sh appends runs
// to it.  --baseline records an externally measured wall time of the
// same workload (e.g. a pre-refactor build) so the improvement over
// that build is part of the record; --baseline-note says *which*
// build/config produced that number (written as
// "baseline_provenance"), because a bare float invites misleading
// comparisons -- a 1-carrier run scored against a 4-carrier baseline
// reads as a slowdown unless the provenance travels with it.
//
// Schema history:
//   v10: nothing pools rotation buffers any more (the gen_mult
//       rotations forward the buffer they receive), so the scheduler
//       block drops its four buffer-pool fields: pool_acquires,
//       pool_hits, pool_misses and pool_bytes.
//   v9: one settlement path (the closed-form walk) is left, so the
//       record drops "settle" and everything the retired batched
//       settlement kernel reported: three settle counters (its parks,
//       its adds, inline adds) and five scheduler fields (settle-queue
//       enqueues, settle ns, batches, the lane histogram, settle-queue
//       high-water).  DESIGN.md section 10 names them.
//   v8: adds "coll" (collective-algorithm family, SKIL_COLL) and
//       per-engine "coll_counters" (per-op calls by resolved
//       algorithm, bytes, hop sums, rounds, order fallbacks, summed
//       over the best rep's cells).  Always written, like
//       fusion_counters -- a tree-mode report proves the zoo stayed
//       off by showing zero non-tree picks (the validator enforces
//       this conservation).
//   v7: adds "prof" (host profiler mode) and, when prof != off,
//       per-engine "scheduler" (host scheduler counter totals summed
//       over the best rep's cells: dispatches, steals, parks,
//       settle-queue pressure, batch lane occupancy, buffer-pool hits),
//       so an engine report documents *how* the pooled runtime spent
//       the wall it reports.  prof == off writes no scheduler block --
//       the off path must stay observably free.
//   v6: adds "fuse" (skeleton fusion mode) and per-engine
//       "fusion_counters" (composition outcomes summed over the best
//       rep's cells), so an off/on A/B pair of reports documents both
//       the wall and vtime effect of fusion and proves the fused path
//       actually engaged.
//   v5: adds "settle" (settlement mode), per-engine
//       "median_wall_seconds" (median of rep_wall_seconds, reported
//       alongside the min because min-of-1 records say nothing about
//       spread), per-engine "settle_counters" (closed-form coverage
//       accounting, summed over the best rep's cells), per-cell
//       virtual times at full precision (skil_vtime_s / dpfl_vtime_s /
//       c_vtime_s, %.17g -- lets two report files be diffed for
//       bit-identical science without rerunning), and
//       "baseline_provenance" whenever baseline_wall_seconds is
//       present.
//   v4: adds "carriers" (the pooled engine's effective carrier-thread
//       count for this run) and records the *resolved* jobs value
//       (--jobs=auto is written as the number it resolved to).
//   v3: adds per-engine "rep_wall_seconds" (every repetition's wall,
//       not just the reported minimum) and, when --trace-out is given,
//       a "trace" object naming the traced cell and the exported
//       trace/metrics files.
//   v2: adds reps/jobs/nproc/charge configuration and per-cell walls.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/gauss.h"
#include "bench_common.h"
#include "gauss_sweep.h"
#include "parix/charge_tape.h"
#include "parix/executor.h"
#include "parix/metrics.h"
#include "parix/runtime.h"
#include "parix/trace.h"
#include "support/cli.h"

namespace {

/// Writes a counter group's fields (parix/counters.h) as
/// "name": value pairs in list order.
template <class Group>
void print_fields(std::FILE* out, const Group& group) {
  const char* sep = "";
  for (const auto& field : Group::kFields) {
    std::fprintf(out, "%s\"%.*s\": %llu", sep,
                 static_cast<int>(field.name.size()), field.name.data(),
                 static_cast<unsigned long long>(group.*field.member));
    sep = ", ";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace skil;
  using namespace skil::bench;

  const support::Cli cli =
      parse_cli(argc, argv, {"quick", "json", "out-dir", "baseline",
                             "baseline-note", "reps", "jobs", "carriers",
                             "charge", "fuse", "prof", "coll", "engine",
                             "trace-out"},
                /*dir_flag=*/"trace-out");
  const bool quick = cli.get_bool("quick");
  const double baseline_s = apply_knob(cli, [&] {
    if (!cli.has("baseline")) return 0.0;
    const std::string value = cli.get("baseline", "");
    char* end = nullptr;
    const double secs = std::strtod(value.c_str(), &end);
    SKIL_REQUIRE(!value.empty() && *end == '\0' && std::isfinite(secs) &&
                     secs > 0.0,
                 "--baseline expects a positive number of seconds, got '" +
                     value + "'");
    return secs;
  });
  const std::string baseline_note = cli.get("baseline-note", "unspecified");
  // The host timer is noisy (shared machine); the minimum over reps is
  // the standard robust estimator of the undisturbed wall time.
  const int reps = count_flag(cli, "reps", 1);
  const int jobs =
      cli.get("jobs", "1") == "auto"
          ? static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))
          : count_flag(cli, "jobs", 1);
  if (cli.has("carriers")) {
    // Exported instead of set in-process only: forked cell workers
    // must resolve the same carrier count.  Invalid values fail
    // loudly inside executor_carriers() below.
    ::setenv("SKIL_CARRIERS", cli.get("carriers", "auto").c_str(), 1);
    parix::executor_set_carriers(0);
  }
  const int carriers =
      apply_knob(cli, [] { return parix::executor_carriers(); });
  if (cli.has("charge"))
    apply_knob(cli, [&] {
      parix::set_default_charge_path(
          parix::parse_charge_path(cli.get("charge", "tape")));
    });
  const char* charge_name =
      parix::default_charge_path() == parix::ChargePath::kTape ? "tape"
                                                               : "interp";
  if (cli.has("fuse")) {
    // Exported as well as set in-process: the in-process slot is
    // inherited across fork by the cell workers, and the env var keeps
    // any tooling that re-execs (trace viewers, wrapper scripts) on
    // the same configuration.
    const std::string fuse_arg = cli.get("fuse", "off");
    apply_knob(cli, [&] {
      parix::set_default_fuse_mode(parix::parse_fuse_mode(fuse_arg));
    });
    ::setenv("SKIL_FUSE", fuse_arg.c_str(), 1);
  }
  const std::string fuse_name(
      parix::fuse_mode_name(parix::default_fuse_mode()));
  if (cli.has("prof")) {
    // In-process slot for this process, env var for the forked cell
    // workers and anything that re-execs (same pattern as --fuse).
    const std::string prof_arg = cli.get("prof", "off");
    apply_knob(cli, [&] {
      parix::set_default_prof_mode(parix::parse_prof_mode(prof_arg));
    });
    ::setenv("SKIL_PROF", prof_arg.c_str(), 1);
  }
  const parix::ProfMode prof_mode = parix::default_prof_mode();
  const std::string prof_name(parix::prof_mode_name(prof_mode));
  if (cli.has("coll")) {
    // In-process slot for this process, env var for the forked cell
    // workers and anything that re-execs (same pattern as --fuse).
    const std::string coll_arg = cli.get("coll", "auto");
    apply_knob(cli, [&] {
      parix::set_default_coll_mode(parix::parse_coll_mode(coll_arg));
    });
    ::setenv("SKIL_COLL", coll_arg.c_str(), 1);
  }
  const std::string coll_name(
      parix::coll_mode_name(parix::default_coll_mode()));
  const std::uint64_t seed = 19960528;
  const auto ns = paper_ns(quick);
  const auto ps = paper_ps();

  banner("Execution engines -- wall clock on the Table 2 grid");
  std::printf("grid: n in {%d..%d}, p in {4, 16, 32, 64}; host threads: %u; "
              "jobs: %d; carriers: %d; charge path: %s; fuse: %s; "
              "prof: %s; coll: %s\n\n",
              ns.front(), ns.back(), std::thread::hardware_concurrency(),
              jobs, carriers, charge_name, fuse_name.c_str(),
              prof_name.c_str(), coll_name.c_str());

  struct EngineRun {
    const char* name;
    parix::ExecutionEngine engine;
    double wall_s = 0.0;
    std::vector<double> rep_walls;  // every repetition, in run order
    std::vector<GaussCell> cells;
  };
  std::vector<EngineRun> runs = {
      {"threads", parix::ExecutionEngine::kThreads, 0.0, {}, {}},
      {"pooled", parix::ExecutionEngine::kPooled, 0.0, {}, {}},
  };
  const std::string engine_filter = cli.get("engine", "both");
  if (engine_filter != "both") {
    std::erase_if(runs, [&](const EngineRun& run) {
      return engine_filter != run.name;
    });
    if (runs.empty()) {
      std::fprintf(stderr,
                   "bench_engine_wall: --engine must be threads, pooled or "
                   "both, got '%s'\n",
                   engine_filter.c_str());
      return 2;
    }
  }

  const parix::ExecutionEngine saved = parix::default_execution_engine();
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& run : runs) {
      parix::set_default_execution_engine(run.engine);
      std::fprintf(stderr, "engine %s (rep %d):\n", run.name, rep + 1);
      const auto start = std::chrono::steady_clock::now();
      auto cells = run_gauss_grid_jobs(ns, ps, seed, jobs);
      const auto stop = std::chrono::steady_clock::now();
      const double wall = std::chrono::duration<double>(stop - start).count();
      const SweepSettleTotals totals = sum_settle_totals(cells);
      if (totals.settle.total_adds() > 0)
        std::fprintf(
            stderr,
            "  settle: %llu M adds closed (%llu M memoized, %llu M "
            "probed), %llu M chained; closed-form coverage %.1f%%\n",
            static_cast<unsigned long long>(
                (totals.settle.closed_adds + totals.settle.memo_adds) /
                1000000),
            static_cast<unsigned long long>(totals.settle.memo_adds /
                                            1000000),
            static_cast<unsigned long long>(totals.settle.probe_adds /
                                            1000000),
            static_cast<unsigned long long>(totals.settle.chain_adds /
                                            1000000),
            100.0 * totals.settle.closed_coverage());
      if (totals.fusion.seen > 0)
        std::fprintf(
            stderr,
            "  fusion: %llu compositions seen, %llu fused, %llu rejected; "
            "%llu barriers + %llu tape passes eliminated\n",
            static_cast<unsigned long long>(totals.fusion.seen),
            static_cast<unsigned long long>(totals.fusion.fused),
            static_cast<unsigned long long>(totals.fusion.rejected()),
            static_cast<unsigned long long>(totals.fusion.barriers_eliminated),
            static_cast<unsigned long long>(totals.fusion.tapes_eliminated));
      run.rep_walls.push_back(wall);
      if (rep == 0 || wall < run.wall_s) {
        run.wall_s = wall;
        run.cells = std::move(cells);
      }
    }
  }
  parix::set_default_execution_engine(saved);
  // Median of the repetition walls: reported alongside the min because
  // a min-of-1 says nothing about spread (satellite of ISSUE 6).
  const auto median_of = [](std::vector<double> walls) {
    std::sort(walls.begin(), walls.end());
    const std::size_t mid = walls.size() / 2;
    return walls.size() % 2 == 1 ? walls[mid]
                                 : 0.5 * (walls[mid - 1] + walls[mid]);
  };
  for (const auto& run : runs)
    std::printf("  %-8s engine: %8.2f s wall (min of %d, median %.2f)\n",
                run.name, run.wall_s, reps, median_of(run.rep_walls));

  // The engines must agree on every virtual time to the last bit --
  // virtual time derives only from charge sequences and message
  // timestamps, never from host scheduling.
  bool identical = true;
  if (runs.size() == 2) {
    identical = runs[0].cells.size() == runs[1].cells.size();
    for (std::size_t i = 0; identical && i < runs[0].cells.size(); ++i) {
      const GaussCell& lhs = runs[0].cells[i];
      const GaussCell& rhs = runs[1].cells[i];
      identical = std::equal(lhs.vtime_us, lhs.vtime_us + 3, rhs.vtime_us);
    }
  }

  // One representative cell re-run under full tracing: the exported
  // Chrome trace + metrics JSON let a run's virtual timeline be
  // inspected in Perfetto without perturbing the timings above.
  std::string trace_path, metrics_path;
  int trace_p = 0, trace_n = 0;
  if (cli.has("trace-out")) {
    trace_p = quick ? 4 : 16;
    trace_n = quick ? 64 : 128;
    const parix::TraceMode saved_trace = parix::default_trace_mode();
    parix::set_default_trace_mode(parix::TraceMode::kFull);
    const apps::GaussResult traced =
        apps::gauss_skil(trace_p, trace_n, seed, /*pivoting=*/false);
    parix::set_default_trace_mode(saved_trace);
    const std::string cell = "gauss_p" + std::to_string(trace_p) + "_n" +
                             std::to_string(trace_n);
    const std::string dir = out_dir_path(cli, "trace-out");
    trace_path = dir + "/trace_" + cell + ".json";
    metrics_path = dir + "/metrics_" + cell + ".json";
    write_artifact(cli, trace_path, [&](std::ostream& os) {
      parix::write_chrome_trace(*traced.run.trace, os);
    });
    write_artifact(cli, metrics_path, [&](std::ostream& os) {
      parix::write_metrics_json(traced.run, os);
    });
  }

  const double speedup =
      runs.size() == 2 ? runs[0].wall_s / runs[1].wall_s : 0.0;
  if (runs.size() == 2)
    std::printf("\npooled speedup over threads: %.2fx\n", speedup);
  if (baseline_s > 0.0)
    std::printf("%s speedup over baseline (%.1f s): %.2fx\n",
                runs.back().name, baseline_s, baseline_s / runs.back().wall_s);
  shape_check("virtual times bit-identical across engines", identical);

  const std::string path = out_path(cli, "json", "BENCH_engine.json");
  if (FILE* out = std::fopen(path.c_str(), "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"schema_version\": 10,\n"
                 "  \"benchmark\": \"bench_engine_wall\",\n"
                 "  \"grid\": \"table2_gauss%s\",\n"
                 "  \"reps\": %d,\n"
                 "  \"jobs\": %d,\n"
                 "  \"carriers\": %d,\n"
                 "  \"nproc\": %u,\n"
                 "  \"charge\": \"%s\",\n"
                 "  \"fuse\": \"%s\",\n"
                 "  \"prof\": \"%s\",\n"
                 "  \"coll\": \"%s\",\n"
                 "  \"engines\": [\n",
                 quick ? "_quick" : "", reps, jobs, carriers,
                 std::thread::hardware_concurrency(), charge_name,
                 fuse_name.c_str(), prof_name.c_str(), coll_name.c_str());
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const EngineRun& run = runs[r];
      std::fprintf(out,
                   "    {\"engine\": \"%s\", \"wall_seconds\": %.3f, "
                   "\"median_wall_seconds\": %.3f, "
                   "\"rep_wall_seconds\": [",
                   run.name, run.wall_s, median_of(run.rep_walls));
      for (std::size_t i = 0; i < run.rep_walls.size(); ++i)
        std::fprintf(out, "%s%.3f", i == 0 ? "" : ", ", run.rep_walls[i]);
      std::fprintf(out, "], \"cells\": [");
      for (std::size_t i = 0; i < run.cells.size(); ++i) {
        const GaussCell& cell = run.cells[i];
        // Virtual times at %.17g: full double round-trip precision, so
        // two report files diff bit-identically (the CI settlement
        // smoke compares interp vs tape reports this way).
        std::fprintf(out,
                     "%s{\"p\": %d, \"n\": %d, \"wall_seconds\": %.3f, "
                     "\"skil_vtime_s\": %.17g, \"dpfl_vtime_s\": %.17g, "
                     "\"c_vtime_s\": %.17g}",
                     i == 0 ? "" : ", ", cell.p, cell.n, cell.wall_s,
                     cell.skil_s(), cell.dpfl_s(), cell.c_s());
      }
      const SweepSettleTotals totals = sum_settle_totals(run.cells);
      std::fprintf(out, "], \"settle_counters\": {");
      print_fields(out, totals.settle);
      std::fprintf(out,
                   ", \"closed_coverage\": %.6f}, \"fusion_counters\": {",
                   totals.settle.closed_coverage());
      print_fields(out, totals.fusion);
      std::fprintf(out, "}");
      // Collective-zoo counters (coll.h), summed over the best rep's
      // cells.  Always written (like fusion_counters): a tree-mode
      // report documents the zoo stayed off by showing zero non-tree
      // picks.
      std::fprintf(out, ", \"coll_counters\": {");
      for (int op = 0; op < parix::kNumCollOps; ++op) {
        const std::string op_name(
            parix::coll_op_name(static_cast<parix::CollOp>(op)));
        std::fprintf(out, "%s\"%s\": {\"calls\": {", op == 0 ? "" : ", ",
                     op_name.c_str());
        for (int a = 0; a < parix::kNumCollAlgos; ++a) {
          const std::string algo_name(
              parix::coll_algo_name(static_cast<parix::CollAlgo>(a)));
          std::fprintf(out, "%s\"%s\": %llu", a == 0 ? "" : ", ",
                       algo_name.c_str(),
                       static_cast<unsigned long long>(
                           totals.coll.calls[op][a]));
        }
        std::fprintf(
            out, "}, \"bytes\": %llu, \"hops\": %llu, \"steps\": %llu}",
            static_cast<unsigned long long>(totals.coll.bytes[op]),
            static_cast<unsigned long long>(totals.coll.hops[op]),
            static_cast<unsigned long long>(totals.coll.steps[op]));
      }
      std::fprintf(out, ", \"order_fallbacks\": %llu}",
                   static_cast<unsigned long long>(
                       totals.coll.order_fallbacks));
      // Host scheduler totals (prof.h), summed over the best rep's
      // cells.  Written only when profiling was on: an off-mode report
      // must be indistinguishable from a pre-v7 run's (the validator
      // enforces absence).
      if (prof_mode != parix::ProfMode::kOff) {
        std::fprintf(out, ", \"scheduler\": {");
        print_fields(out, sum_sched_totals(run.cells));
        std::fprintf(out, "}");
      }
      std::fprintf(out, "}%s\n", r + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    if (runs.size() == 2)
      std::fprintf(out, "  \"pooled_speedup_over_threads\": %.3f,\n", speedup);
    if (baseline_s > 0.0)
      std::fprintf(out,
                   "  \"baseline_wall_seconds\": %.3f,\n"
                   "  \"baseline_provenance\": \"%s\",\n"
                   "  \"pooled_speedup_over_baseline\": %.3f,\n",
                   baseline_s, baseline_note.c_str(),
                   baseline_s / runs.back().wall_s);
    if (!trace_path.empty())
      std::fprintf(out,
                   "  \"trace\": {\"app\": \"gauss_skil\", \"p\": %d, "
                   "\"n\": %d, \"trace_json\": \"%s\", "
                   "\"metrics_json\": \"%s\"},\n",
                   trace_p, trace_n, trace_path.c_str(),
                   metrics_path.c_str());
    std::fprintf(out,
                 "  \"vtimes_identical_across_engines\": %s\n"
                 "}\n",
                 identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "bench_engine_wall: cannot write '%s'\n",
                 path.c_str());
    return 2;
  }
  return identical ? 0 : 1;
}
