// Shared helpers for the table/figure reproduction benches.
//
// Every bench prints (a) the paper's reported values, (b) the
// reproduced values from the virtual-time model, and (c) the shape
// checks that EXPERIMENTS.md records; it also writes a CSV next to the
// binary's working directory for replotting.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "parix/metrics.h"
#include "parix/runtime.h"
#include "parix/trace.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/table.h"

namespace skil::bench {

/// Parses a bench command line, keeping every failure inside the
/// program: `--help` prints the accepted flags and exits 0, an unknown
/// flag is named and exits 2, and a missing or unwritable `--out-dir`
/// exits 2 before any work starts.
inline support::Cli parse_cli(int argc, char** argv,
                              std::vector<std::string> allowed) {
  const std::string program = support::program_name(argc > 0 ? argv[0] : "");
  const auto usage = [&](std::FILE* to) {
    std::fprintf(to, "usage: %s [--flag[=value] ...]\naccepted flags:",
                 program.c_str());
    for (const std::string& flag : allowed)
      std::fprintf(to, " --%s", flag.c_str());
    std::fprintf(to, "\n");
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const std::string name = arg.substr(2, arg.find('=') - 2);
    if (name == "help") {
      usage(stdout);
      std::exit(0);
    }
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      std::fprintf(stderr, "%s: unknown flag '--%s'\n", program.c_str(),
                   name.c_str());
      usage(stderr);
      std::exit(2);
    }
  }
  support::Cli cli(argc, argv, std::move(allowed));
  const std::string dir = cli.get("out-dir", ".");
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    std::fprintf(stderr,
                 "%s: output directory '%s' is missing or not writable\n",
                 program.c_str(), dir.c_str());
    std::exit(2);
  }
  return cli;
}

/// Applies a runtime knob given on the command line (SKIL_COLL,
/// SKIL_CARRIERS, ...): a value its strict parser rejects exits 2 with
/// the parser's message, which lists the accepted values, instead of
/// terminating on the uncaught ContractError.
template <typename Fn>
decltype(auto) apply_knob(const support::Cli& cli, Fn&& apply) {
  try {
    return apply();
  } catch (const support::ContractError& err) {
    std::exit(support::report_cli_error(cli.program(), err));
  }
}

/// A count or size flag (--reps, --jobs, --n, ...), read by
/// support::Cli::count: a value that is not an integer in [1, 1000000]
/// exits 2 with its message before any work starts.
inline int count_flag(const support::Cli& cli, const std::string& name,
                      int fallback) {
  return apply_knob(cli, [&] { return cli.count(name, fallback); });
}

/// Output path for a bench artefact.  An explicit `--<flag>=path`
/// wins verbatim; otherwise the default file name lands in
/// `--out-dir` (default: the working directory).  A bare `--<flag>`
/// parses as the boolean value "true" (cli.h) and counts as absent.
/// Benches passing their outputs through this accept both flags.
inline std::string out_path(const support::Cli& cli, const std::string& flag,
                            const std::string& default_name) {
  const std::string value = cli.get(flag, "true");
  if (value != "true") return value;
  const std::string dir = cli.get("out-dir", "");
  if (dir.empty()) return default_name;
  return dir.back() == '/' ? dir + default_name : dir + "/" + default_name;
}

/// Seconds of modeled time, formatted like the paper's tables.
inline std::string secs(double vtime_us, int digits = 2) {
  return support::fmt_fixed(vtime_us * 1e-6, digits);
}

/// Label "2x2".."8x8" for a square processor grid.
inline std::string grid_label(int nprocs) {
  int q = 1;
  while ((q + 1) * (q + 1) <= nprocs) ++q;
  if (q * q == nprocs) return std::to_string(q) + "x" + std::to_string(q);
  return std::to_string(nprocs);
}

/// True when the bench should re-run its representative configuration
/// under full tracing for the artefact exports below.  Keyed on the
/// artefact flags, not --out-dir, so a plain `--out-dir=...` CSV run
/// stays untraced.
inline bool wants_run_artifacts(const support::Cli& cli) {
  return cli.has("metrics-out") || cli.has("trace-out");
}

/// Re-runs `fn` under full tracing (saving and restoring the process
/// default trace mode) and returns its result.  Benches call this
/// *after* their timed sweeps so the recorded timings stay untraced.
template <typename Fn>
auto traced_rerun(Fn&& fn) {
  const parix::TraceMode saved = parix::default_trace_mode();
  parix::set_default_trace_mode(parix::TraceMode::kFull);
  auto result = fn();
  parix::set_default_trace_mode(saved);
  return result;
}

/// Writes the Chrome trace (--trace-out) and/or metrics JSON
/// (--metrics-out) for a completed traced run.  An explicit flag value
/// is a verbatim file path; a bare flag puts the default name in
/// --out-dir via out_path.  The Chrome export merges the
/// SKIL_PROF=sampled host timeline (RunResult::prof) when the run
/// carried one.
inline void write_run_artifacts(const support::Cli& cli,
                                const parix::RunResult& run,
                                const std::string& stem) {
  if (cli.has("trace-out") && run.trace != nullptr) {
    const std::string path = out_path(cli, "trace-out",
                                      "trace_" + stem + ".json");
    std::ofstream os(path);
    SKIL_ASSERT(os.good(), "cannot open trace output file: " + path);
    parix::write_chrome_trace(*run.trace, run.prof.get(), os);
    SKIL_ASSERT(os.good(), "failed writing trace output file: " + path);
    std::printf("wrote %s\n", path.c_str());
  }
  if (cli.has("metrics-out")) {
    const std::string path = out_path(cli, "metrics-out",
                                      "metrics_" + stem + ".json");
    std::ofstream os(path);
    SKIL_ASSERT(os.good(), "cannot open metrics output file: " + path);
    parix::write_metrics_json(run, os);
    SKIL_ASSERT(os.good(), "failed writing metrics output file: " + path);
    std::printf("wrote %s\n", path.c_str());
  }
}

/// Prints a section header.
inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// Prints one shape-check line: the qualitative property the paper's
/// data shows, and whether the reproduction satisfies it.
inline bool shape_check(const std::string& name, bool holds) {
  std::printf("  [%s] %s\n", holds ? "OK" : "MISS", name.c_str());
  return holds;
}

}  // namespace skil::bench
