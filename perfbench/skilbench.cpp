// skilbench: one benchmark process for the paper's workloads.
//
// Runs one workload (gauss_table2, shpaths_table1 or stencil_steps) in
// the repository's default configuration -- pooled engine, carriers =
// hardware concurrency, no SKIL_* overrides -- through the apps'
// public entry points only, verifies every run against a sequential
// oracle, and prints every metric by name with its unit.  The last
// stdout line is one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics from untraced passes.
// --trace 1 alternates untraced and traced passes (trace = spans and
// prof = counters, set in-process) and reports the per-layer counters
// read from parix::RunResult, plus one representative cell run under
// full tracing for the critical-path split.  The benchmark's own spans
// (one per pass, app call and oracle check) go to the out directory.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/gauss.h"
#include "apps/shortest_paths.h"
#include "apps/stencil_jacobi.h"
#include "parix/charge_tape.h"
#include "parix/coll.h"
#include "parix/executor.h"
#include "parix/metrics.h"
#include "parix/prof.h"
#include "parix/runtime.h"
#include "parix/trace.h"
#include "support/matrix.h"

#ifndef SKILBENCH_BUILD_TYPE
#define SKILBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace skil;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, so setup_s covers everything
// from process start to the first timed pass.
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  bool quick = false;
};

const char* const kWorkloads[] = {"gauss_table2", "shpaths_table1",
                                  "stencil_steps"};

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: skilbench --workload NAME [--seed N] [--seconds S] "
      "[--trace 0|1]\n"
      "                 [--out-dir DIR] [--quick] [--help]\n"
      "\n"
      "  --workload    gauss_table2 | shpaths_table1 | stencil_steps\n"
      "  --seed        input seed (default: the paper bench's seed,\n"
      "                19960528 for Gauss, 20260704 for shortest paths;\n"
      "                the stencil's rod is fixed and ignores it)\n"
      "  --seconds     run passes while one more fits in this many\n"
      "                seconds (at least one pass; default 10)\n"
      "  --trace       0: end-to-end metrics from untraced passes\n"
      "                1: per-layer metrics from traced passes\n"
      "  --out-dir     existing writable directory for the detail and\n"
      "                span files (default .)\n"
      "  --quick       shrunken grid, for the self-check\n"
      "\n"
      "Refuses to run when any SKIL_* variable is set: the benchmark\n"
      "measures the default configuration only.\n");
}

[[noreturn]] void fail_usage(const std::string& message) {
  std::fprintf(stderr, "skilbench: %s\n", message.c_str());
  usage(stderr);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0)
      fail_usage("unexpected argument '" + arg + "'");
    std::string key = arg.substr(2);
    std::optional<std::string> value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    const auto take_value = [&]() -> std::string {
      if (value) return *value;
      if (i + 1 >= argc) fail_usage("--" + key + " needs a value");
      return argv[++i];
    };
    const auto no_value = [&] {
      if (value) fail_usage("--" + key + " takes no value");
    };
    if (key == "workload") {
      opt.workload = take_value();
      have_workload = true;
    } else if (key == "seed") {
      const std::string text = take_value();
      char* end = nullptr;
      errno = 0;
      const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        fail_usage("--seed must be a non-negative integer, got '" + text + "'");
      opt.seed = v;
    } else if (key == "seconds") {
      const std::string text = take_value();
      char* end = nullptr;
      errno = 0;
      opt.seconds = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || errno != 0 ||
          !(opt.seconds >= 0 && opt.seconds <= 3600))
        fail_usage("--seconds must be a number in [0, 3600], got '" + text +
                   "'");
    } else if (key == "trace") {
      const std::string text = take_value();
      if (text != "0" && text != "1")
        fail_usage("--trace must be 0 or 1, got '" + text + "'");
      opt.trace = text == "1";
    } else if (key == "out-dir") {
      opt.out_dir = take_value();
    } else if (key == "quick") {
      no_value();
      opt.quick = true;
    } else {
      fail_usage("unknown flag '--" + key + "'");
    }
  }
  if (!have_workload) fail_usage("--workload is required");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
      std::end(kWorkloads))
    fail_usage("unknown workload '" + opt.workload +
               "' (expected gauss_table2, shpaths_table1 or stencil_steps)");
  if (::access(opt.out_dir.c_str(), W_OK | X_OK) != 0)
    fail_usage("output directory '" + opt.out_dir +
               "' is missing or not writable");
  return opt;
}

/// A stray SKIL_ENGINE / SKIL_COLL / ... export would make two runs
/// measure different programs, so the benchmark runs only without them.
void refuse_skil_environment() {
  std::string found;
  for (char** e = environ; e && *e; ++e)
    if (std::strncmp(*e, "SKIL_", 5) == 0) {
      const std::string_view entry = *e;
      found += ' ';
      found += entry.substr(0, entry.find('='));
    }
  if (found.empty()) return;
  std::fprintf(stderr,
               "skilbench: refusing to run with SKIL_* variables set:%s\n"
               "skilbench: the benchmark measures the default "
               "configuration; unset them first\n",
               found.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class App { kGauss, kShpaths, kStencil };
enum class Variant { kSkil = 0, kDpfl = 1, kC = 2 };
constexpr int kNumVariants = 3;
const char* const kVariantNames[kNumVariants] = {"skil", "dpfl", "c"};

/// One app call.  `n` is the problem size: matrix order, graph nodes or
/// rod cells.  `steps` is the stencil's time-step count.
struct Cell {
  App app = App::kGauss;
  Variant variant = Variant::kSkil;
  int p = 0;
  int n = 0;
  int steps = 0;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<Cell> cells;  ///< one pass, in run order
  std::vector<Cell> warmup;
  Cell critpath;  ///< representative cell for the critical-path split
};

// Paper Table 2 (Gauss, no pivoting): Skil seconds, DPFL/Skil,
// Skil/Parix-C.  Negative = not reported.
struct PaperGauss {
  int p, n;
  double skil_s, dpfl_over_skil, skil_over_c;
};
const PaperGauss kPaperTable2[] = {
    {4, 64, 2.06, 6.17, 2.40},     {4, 128, 14.77, 6.52, 2.51},
    {4, 256, 113.29, 6.65, 2.60},  {4, 384, 377.62, 6.69, 2.64},
    {4, 512, -1, -1, -1},          {4, 640, -1, -1, -1},
    {16, 64, 0.91, -1, 1.57},      {16, 128, 4.83, 4.82, 1.73},
    {16, 256, 32.06, 5.73, 2.02},  {16, 384, 102.16, 6.22, 2.20},
    {16, 512, 236.13, 6.40, 2.31}, {16, 640, 453.86, 6.48, 2.38},
    {32, 64, 0.85, 3.87, 1.25},    {32, 128, 3.49, 4.88, 1.24},
    {32, 256, 19.42, 5.62, 1.45},  {32, 384, 58.03, 5.96, 1.65},
    {32, 512, 129.89, 6.12, 1.78}, {32, 640, 244.77, 6.24, 1.90},
    {64, 64, 0.85, 3.48, 1.04},    {64, 128, 2.94, 4.17, 0.94},
    {64, 256, 13.57, 4.78, 1.03},  {64, 384, 37.03, 5.21, 1.15},
    {64, 512, 78.71, 5.47, 1.26},  {64, 640, 143.28, 5.68, 1.37},
};

// Paper Table 1 (shortest paths, n = 200): DPFL, Skil and old C
// seconds.  Negative = not reported (DPFL ran on the even grids only).
struct PaperShpaths {
  int p;
  double dpfl_s, skil_s, old_c_s;
};
const PaperShpaths kPaperTable1[] = {
    {4, 1524.22, 234.29, 259.49}, {9, -1, 107.69, -1},
    {16, 387.23, 60.78, 65.79},   {25, -1, 39.56, -1},
    {36, 185.13, 29.70, 31.53},   {49, -1, 21.83, -1},
    {64, 98.76, 16.34, 16.92},
};

constexpr std::uint64_t kGaussSeed = 19960528;
constexpr std::uint64_t kShpathsSeed = 20260704;
// The rod of bench_stencil.  The step count makes a pass of about
// 0.4 s on a 4-thread host, about 500 k halo messages: long enough to
// dwarf timer noise, while the per-step compute stays negligible next
// to the halo traffic.
constexpr int kStencilCells = 1024;
constexpr int kStencilSteps = 3000;

Workload make_workload(const Options& opt) {
  constexpr Variant kAll[] = {Variant::kSkil, Variant::kDpfl, Variant::kC};
  Workload w;
  w.name = opt.workload;
  if (w.name == "gauss_table2") {
    w.seed = opt.seed.value_or(kGaussSeed);
    const std::vector<int> ps = opt.quick ? std::vector<int>{4, 16}
                                          : std::vector<int>{4, 16, 32, 64};
    const std::vector<int> ns =
        opt.quick ? std::vector<int>{64, 128}
                  : std::vector<int>{64, 128, 256, 384, 512, 640};
    for (int p : ps)
      for (int n : ns)
        for (Variant v : kAll) w.cells.push_back({App::kGauss, v, p, n, 0});
    for (Variant v : kAll) w.warmup.push_back({App::kGauss, v, 64, 64, 0});
    w.critpath = {App::kGauss, Variant::kSkil, 16, opt.quick ? 64 : 256, 0};
  } else if (w.name == "shpaths_table1") {
    w.seed = opt.seed.value_or(kShpathsSeed);
    const int n = opt.quick ? 60 : 200;
    for (const PaperShpaths& row : kPaperTable1) {
      if (opt.quick && row.p > 16) continue;
      w.cells.push_back({App::kShpaths, Variant::kSkil, row.p, n, 0});
      if (row.dpfl_s > 0)
        w.cells.push_back({App::kShpaths, Variant::kDpfl, row.p, n, 0});
      w.cells.push_back({App::kShpaths, Variant::kC, row.p, n, 0});
    }
    for (Variant v : kAll) w.warmup.push_back({App::kShpaths, v, 4, n, 0});
    w.critpath = {App::kShpaths, Variant::kSkil, 16, n, 0};
  } else {
    w.seed = 0;
    const int steps = opt.quick ? 50 : kStencilSteps;
    for (int p : {8, 16, 64})
      w.cells.push_back(
          {App::kStencil, Variant::kSkil, p, kStencilCells, steps});
    w.warmup.push_back({App::kStencil, Variant::kSkil, 64, kStencilCells, 50});
    w.critpath = {App::kStencil, Variant::kSkil, 64, kStencilCells,
                  opt.quick ? 50 : 200};
  }
  return w;
}

// ---------------------------------------------------------------------------
// Sequential oracles, memoised per input.  Their time counts as verify
// time, never as wall.
// ---------------------------------------------------------------------------

/// Gaussian elimination without pivoting plus back substitution on the
/// n x (n+1) system the apps generate.  The systems are diagonally
/// dominant, so the naive pivots are safe.
std::vector<double> gauss_oracle(int n, std::uint64_t seed) {
  support::Matrix<double> ab = support::random_linear_system(n, seed);
  for (int k = 0; k < n; ++k)
    for (int i = k + 1; i < n; ++i) {
      const double f = ab(i, k) / ab(k, k);
      for (int j = k; j <= n; ++j) ab(i, j) -= f * ab(k, j);
    }
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    double s = ab(i, n);
    for (int j = i + 1; j < n; ++j)
      s -= ab(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = s / ab(i, i);
  }
  return x;
}

/// Floyd-Warshall (min, +) closure of the padded distance matrix the
/// apps build: indices beyond the original n are isolated nodes.
support::Matrix<std::uint32_t> shpaths_oracle(int n, int size,
                                              std::uint64_t seed) {
  support::Matrix<std::uint32_t> d(size, size);
  for (int i = 0; i < size; ++i)
    for (int j = 0; j < size; ++j)
      d(i, j) = (i >= n || j >= n) ? (i == j ? 0u : support::kDistInf)
                                   : support::distance_entry(n, seed, i, j);
  for (int k = 0; k < size; ++k)
    for (int i = 0; i < size; ++i) {
      const std::uint32_t dik = d(i, k);
      if (dik == support::kDistInf) continue;
      for (int j = 0; j < size; ++j) {
        const std::uint32_t dkj = d(k, j);
        if (dkj != support::kDistInf) d(i, j) = std::min(d(i, j), dik + dkj);
      }
    }
  return d;
}

/// Sequential Jacobi run of the app's rod: hot middle third, the same
/// three-point expression with reflecting ends, so the profile must
/// match bit for bit.
std::vector<double> stencil_oracle(int padded, int steps) {
  std::vector<double> t(static_cast<std::size_t>(padded));
  for (int i = 0; i < padded; ++i)
    t[static_cast<std::size_t>(i)] =
        (i >= padded / 3 && i < 2 * padded / 3) ? 100.0 : 0.0;
  std::vector<double> next(t.size());
  for (int s = 0; s < steps; ++s) {
    for (int i = 0; i < padded; ++i) {
      const double up = t[static_cast<std::size_t>(i > 0 ? i - 1 : i)];
      const double down =
          t[static_cast<std::size_t>(i < padded - 1 ? i + 1 : i)];
      next[static_cast<std::size_t>(i)] =
          0.25 * up + 0.5 * t[static_cast<std::size_t>(i)] + 0.25 * down;
    }
    t.swap(next);
  }
  return t;
}

// Stated tolerances of the checks that are not exact.
constexpr double kGaussTol = 1e-8;    // max |x - x_ref|, absolute
constexpr double kHeatRelTol = 1e-9;  // total heat against its start value

struct Oracles {
  std::uint64_t seed = 0;
  std::map<int, std::vector<double>> gauss;
  std::map<int, support::Matrix<std::uint32_t>> shpaths;
  std::map<std::pair<int, int>, std::vector<double>> stencil;
};

/// Empty when `x` solves the seeded system of order n.
std::string check_gauss(const std::vector<double>& x, int n, Oracles& o) {
  auto it = o.gauss.find(n);
  if (it == o.gauss.end())
    it = o.gauss.emplace(n, gauss_oracle(n, o.seed)).first;
  if (static_cast<int>(x.size()) < n) return "solution vector too short";
  double worst = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = std::fabs(x[static_cast<std::size_t>(i)] -
                               it->second[static_cast<std::size_t>(i)]);
    if (!(d <= worst)) worst = d;  // NaN-safe: a NaN becomes the worst
  }
  if (!(worst <= kGaussTol))
    return "max |x - x_ref| = " + std::to_string(worst) + " exceeds 1e-8";
  return "";
}

std::string check_shpaths(const support::Matrix<std::uint32_t>& dist, int p,
                          int n, Oracles& o) {
  const int size = apps::shpaths_round_up(n, p);
  auto it = o.shpaths.find(size);
  if (it == o.shpaths.end())
    it = o.shpaths.emplace(size, shpaths_oracle(n, size, o.seed)).first;
  if (!(dist == it->second)) return "distances differ from the min-plus oracle";
  return "";
}

std::string check_stencil(const apps::StencilResult& r, int p, int cells,
                          int steps, Oracles& o) {
  const int padded = apps::stencil_round_up(cells, p);
  const double heat = 100.0 * (2 * padded / 3 - padded / 3);
  if (!(std::fabs(r.total - heat) <= kHeatRelTol * heat))
    return "total heat " + std::to_string(r.total) + " is not conserved (" +
           std::to_string(heat) + ")";
  const auto key = std::make_pair(padded, steps);
  auto it = o.stencil.find(key);
  if (it == o.stencil.end())
    it = o.stencil.emplace(key, stencil_oracle(padded, steps)).first;
  if (r.temps != it->second) return "profile differs from the sequential run";
  return "";
}

// ---------------------------------------------------------------------------
// Per-layer counts, summed over the runs of a pass
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct LayerCounts {
  std::uint64_t vprocs = 0;
  double compute_us = 0.0, comm_us = 0.0;
  std::uint64_t settle_adds = 0, settle_real_adds = 0, settle_closed_adds = 0;
  std::uint64_t memo_hits = 0, memo_lookups = 0;
  std::uint64_t fibers_run = 0, parks = 0, steal_attempts = 0,
                steal_successes = 0, busy_ns = 0;
  std::uint64_t messages = 0, bytes = 0, pool_acquires = 0, pool_hits = 0;
  std::uint64_t coll_calls = 0, coll_nontree = 0, coll_bytes = 0,
                coll_steps = 0, coll_fallbacks = 0;
  std::uint64_t fusion_seen = 0, fusion_fused = 0;

  void add(const parix::RunResult& r, int p) {
    vprocs += static_cast<std::uint64_t>(p);
    compute_us += r.total.compute_us;
    comm_us += r.total.comm_us;
    const parix::SettleCounters& s = r.settle;
    settle_closed_adds += s.closed_adds + s.memo_adds;
    settle_real_adds += s.probe_adds + s.chain_adds;
    settle_adds += s.closed_adds + s.memo_adds + s.probe_adds + s.chain_adds;
    memo_hits += s.memo_hits;
    memo_lookups += s.memo_hits + s.memo_misses;
    parix::SchedulerTotals t;
    t.add(r.scheduler);
    fibers_run += t.fibers_run;
    parks += t.parks;
    steal_attempts += t.steal_attempts;
    steal_successes += t.steal_successes;
    busy_ns += t.run_ns;
    pool_acquires += t.pool_acquires;
    pool_hits += t.pool_hits;
    messages += r.total.messages_sent;
    bytes += r.total.bytes_sent;
    coll_calls += r.coll.total_calls();
    coll_nontree +=
        r.coll.total_calls() - r.coll.calls_for(parix::CollAlgo::kTree);
    for (int op = 0; op < parix::kNumCollOps; ++op) {
      coll_bytes += r.coll.bytes[op];
      coll_steps += r.coll.steps[op];
    }
    coll_fallbacks += r.coll.order_fallbacks;
    fusion_seen += r.fusion.seen;
    fusion_fused += r.fusion.fused;
  }

  /// The per-layer metrics of BENCHMARK.json that these counts give.
  std::vector<Metric> metrics() const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"parix.vprocs", d(vprocs), "count"},
        {"parix.compute_vfrac", ratio(compute_us, compute_us + comm_us),
         "frac"},
        {"settle.adds", d(settle_adds), "count"},
        {"settle.real_adds", d(settle_real_adds), "count"},
        {"settle.closed_coverage",
         ratio(d(settle_closed_adds), d(settle_adds)), "frac"},
        {"settle.memo_hit_ratio", ratio(d(memo_hits), d(memo_lookups)),
         "frac"},
        {"executor.fibers_run", d(fibers_run), "count"},
        {"executor.parks", d(parks), "count"},
        {"executor.steal_success_ratio",
         ratio(d(steal_successes), d(steal_attempts)), "frac"},
        {"executor.busy_ms", d(busy_ns) * 1e-6, "ms"},
        {"mailbox.messages", d(messages), "count"},
        {"mailbox.bytes", d(bytes), "bytes"},
        {"pool.acquires", d(pool_acquires), "count"},
        {"pool.hit_ratio", ratio(d(pool_hits), d(pool_acquires)), "frac"},
        {"coll.calls", d(coll_calls), "count"},
        {"coll.nontree_calls", d(coll_nontree), "count"},
        {"coll.bytes", d(coll_bytes), "bytes"},
        {"coll.steps", d(coll_steps), "count"},
        {"coll.order_fallbacks", d(coll_fallbacks), "count"},
        {"fusion.seen", d(fusion_seen), "count"},
        {"fusion.fused", d(fusion_fused), "count"},
    };
  }
};

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its calls into the program
// ---------------------------------------------------------------------------

struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

class SpanLog {
 public:
  int begin(std::string name, int parent) {
    spans_.push_back({static_cast<int>(spans_.size()), parent,
                      std::move(name), now_us(), 0.0});
    return spans_.back().id;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }
  const std::vector<Span>& spans() const { return spans_; }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"clock\": \"steady, us since process start\", "
                    "\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                   s.id, s.parent, s.name.c_str(), s.start_us, s.end_us,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static double now_us() {
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     g_process_start)
        .count();
  }
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Running cells and passes
// ---------------------------------------------------------------------------

std::string cell_label(const Cell& c) {
  std::string s = kVariantNames[static_cast<int>(c.variant)];
  s += " p=" + std::to_string(c.p) + " n=" + std::to_string(c.n);
  if (c.steps > 0) s += " steps=" + std::to_string(c.steps);
  return s;
}

struct Outcome {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  double verify_s = 0.0;
  double vtime_s = 0.0;
  parix::RunResult run;
};

/// Calls the app once; with `oracles`, checks its result, timing the
/// check as a span of its own so it never counts as wall.
Outcome run_cell(const Cell& c, std::uint64_t seed, Oracles* oracles,
                 SpanLog* spans, int parent) {
  Outcome out;
  std::optional<apps::GaussResult> gauss;
  std::optional<apps::ShpathsResult> shpaths;
  std::optional<apps::StencilResult> stencil;
  const int call_span =
      spans ? spans->begin("call " + cell_label(c), parent) : -1;
  const auto t0 = Clock::now();
  try {
    switch (c.app) {
      case App::kGauss:
        gauss = c.variant == Variant::kSkil
                    ? apps::gauss_skil(c.p, c.n, seed, /*pivoting=*/false)
                : c.variant == Variant::kDpfl ? apps::gauss_dpfl(c.p, c.n, seed)
                                              : apps::gauss_c(c.p, c.n, seed);
        break;
      case App::kShpaths:
        shpaths = c.variant == Variant::kSkil
                      ? apps::shpaths_skil(c.p, c.n, seed)
                  : c.variant == Variant::kDpfl
                      ? apps::shpaths_dpfl(c.p, c.n, seed)
                      : apps::shpaths_c(c.p, c.n, seed, /*optimized=*/false);
        break;
      case App::kStencil:
        stencil = apps::stencil_jacobi(c.p, c.n, c.steps);
        break;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.wall_s = seconds_since(t0);
  if (spans) spans->end(call_span);
  if (!out.error.empty()) return out;

  if (oracles) {
    const int check_span =
        spans ? spans->begin("verify " + cell_label(c), parent) : -1;
    const auto v0 = Clock::now();
    try {
      out.error = gauss     ? check_gauss(gauss->x, c.n, *oracles)
                  : shpaths ? check_shpaths(shpaths->distances, c.p, c.n,
                                            *oracles)
                            : check_stencil(*stencil, c.p, c.n, c.steps,
                                            *oracles);
    } catch (const std::exception& e) {
      out.error = std::string("oracle failed: ") + e.what();
    }
    out.verify_s = seconds_since(v0);
    if (spans) spans->end(check_span);
  }
  out.run = std::move(gauss     ? gauss->run
                      : shpaths ? shpaths->run
                                : stencil->run);
  out.vtime_s = out.run.vtime_seconds();
  out.ok = out.error.empty();
  return out;
}

struct Pass {
  bool traced = false;
  double wall_s = 0.0;  ///< summed app-call wall, checks excluded
  double variant_wall_s[kNumVariants] = {};
  std::vector<double> cell_wall_s;  ///< per cell, in run order
  double verify_s = 0.0;
  std::vector<double> vtimes;   ///< per cell, in run order (NaN if failed)
  std::vector<double> call_ms;  ///< per cell, from the call spans
  int attempted = 0;
  int failed = 0;
  LayerCounts layers;
};

/// Sets the process-wide trace / prof defaults for a traced pass and
/// restores them afterwards (the apps build their RunConfig from these
/// defaults).
class TracedScope {
 public:
  TracedScope(parix::TraceMode trace, parix::ProfMode prof)
      : trace_(parix::default_trace_mode()), prof_(parix::default_prof_mode()) {
    parix::set_default_trace_mode(trace);
    parix::set_default_prof_mode(prof);
  }
  ~TracedScope() {
    parix::set_default_trace_mode(trace_);
    parix::set_default_prof_mode(prof_);
  }
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;

 private:
  parix::TraceMode trace_;
  parix::ProfMode prof_;
};

Pass run_pass(const Workload& w, bool traced, Oracles& oracles, SpanLog& spans,
              std::vector<std::string>& errors) {
  Pass pass;
  pass.traced = traced;
  std::optional<TracedScope> scope;
  if (traced)
    scope.emplace(parix::TraceMode::kSpans, parix::ProfMode::kCounters);
  SpanLog* log = traced ? &spans : nullptr;
  const int pass_span = log ? log->begin("pass " + w.name, -1) : -1;
  const std::size_t first_span = spans.spans().size();
  for (const Cell& c : w.cells) {
    Outcome o = run_cell(c, w.seed, &oracles, log, pass_span);
    ++pass.attempted;
    pass.wall_s += o.wall_s;
    pass.cell_wall_s.push_back(o.wall_s);
    pass.verify_s += o.verify_s;
    pass.variant_wall_s[static_cast<int>(c.variant)] += o.wall_s;
    if (!o.ok) {
      ++pass.failed;
      pass.vtimes.push_back(std::nan(""));
      if (errors.size() < 20) errors.push_back(cell_label(c) + ": " + o.error);
      continue;
    }
    pass.vtimes.push_back(o.vtime_s);
    pass.layers.add(o.run, c.p);
  }
  if (log) {
    log->end(pass_span);
    for (std::size_t i = first_span; i < spans.spans().size(); ++i) {
      const Span& s = spans.spans()[i];
      if (s.name.rfind("call ", 0) == 0)
        pass.call_ms.push_back((s.end_us - s.start_us) * 1e-3);
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <class Fn>
double median_over(const std::vector<Pass>& passes, bool traced, Fn&& fn) {
  std::vector<double> v;
  for (const Pass& p : passes)
    if (p.traced == traced) v.push_back(fn(p));
  return median(v);
}

/// Geometric mean of the finite entries (failed runs are NaN).
double geomean(const std::vector<double>& v) {
  double s = 0.0;
  int n = 0;
  for (double x : v)
    if (std::isfinite(x)) {
      s += std::log(x);
      ++n;
    }
  return n ? std::exp(s / n) : std::nan("");
}

/// exp(mean |ln(model / paper)|) - 1 over every value the paper
/// reports; negative when the workload has no paper table.
double paper_dev(const Workload& w, const std::vector<double>& vtimes) {
  std::map<std::tuple<int, int, int>, double> vt;  // (variant, p, n)
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& c = w.cells[i];
    vt[{static_cast<int>(c.variant), c.p, c.n}] = vtimes[i];
  }
  const auto get = [&](Variant v, int p, int n) {
    const auto it = vt.find({static_cast<int>(v), p, n});
    return it == vt.end() ? -1.0 : it->second;
  };
  double sum = 0.0;
  int count = 0;
  const auto add = [&](double model, double paper) {
    if (model > 0 && paper > 0) {
      sum += std::fabs(std::log(model / paper));
      ++count;
    }
  };
  if (w.cells.empty()) return -1.0;
  const Cell& first = w.cells.front();
  if (first.app == App::kGauss) {
    for (const PaperGauss& r : kPaperTable2) {
      const double skil = get(Variant::kSkil, r.p, r.n);
      const double dpfl = get(Variant::kDpfl, r.p, r.n);
      const double c = get(Variant::kC, r.p, r.n);
      if (skil <= 0) continue;
      add(skil, r.skil_s);
      if (dpfl > 0) add(dpfl / skil, r.dpfl_over_skil);
      if (c > 0) add(skil / c, r.skil_over_c);
    }
  } else if (first.app == App::kShpaths) {
    for (const PaperShpaths& r : kPaperTable1) {
      add(get(Variant::kDpfl, r.p, first.n), r.dpfl_s);
      add(get(Variant::kSkil, r.p, first.n), r.skil_s);
      add(get(Variant::kC, r.p, first.n), r.old_c_s);
    }
  }
  return count ? std::exp(sum / count) - 1.0 : -1.0;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (std::isfinite(m.value))
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    else
      std::snprintf(buf, sizeof(buf), "null");
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string engine_name(parix::ExecutionEngine e) {
  return e == parix::ExecutionEngine::kPooled ? "pooled" : "threads";
}

std::string charge_name(parix::ChargePath c) {
  return c == parix::ChargePath::kTape ? "tape" : "interp";
}

int run(const Options& opt) {
  const Workload w = make_workload(opt);
  Oracles oracles;
  oracles.seed = w.seed;
  SpanLog spans;
  std::vector<std::string> errors;

  // Set-up: carrier spawn, BufferPool and memo warm-up, warm-up cells.
  for (const Cell& c : w.warmup) {
    const Outcome o = run_cell(c, w.seed, nullptr, nullptr, -1);
    if (!o.ok) {
      std::fprintf(stderr, "skilbench: warm-up %s failed: %s\n",
                   cell_label(c).c_str(), o.error.c_str());
      return 1;
    }
  }
  const double setup_s = seconds_since(g_process_start);

  // The resolved configuration.  Traced runs switch trace and prof
  // in-process for their traced passes only.
  const auto str = [](std::string_view v) {
    return "\"" + std::string(v) + "\"";
  };
  const std::string config =
      "\"engine\": " + str(engine_name(parix::default_execution_engine())) +
      ", \"carriers\": " + std::to_string(parix::executor_carriers()) +
      ", \"charge\": " + str(charge_name(parix::default_charge_path())) +
      ", \"settle\": " +
      str(parix::settle_mode_name(parix::default_settle_mode())) +
      ", \"fuse\": " + str(parix::fuse_mode_name(parix::default_fuse_mode())) +
      ", \"coll\": " + str(parix::coll_mode_name(parix::default_coll_mode())) +
      ", \"prof\": " +
      str(opt.trace ? "off|counters"
                    : parix::prof_mode_name(parix::default_prof_mode())) +
      ", \"trace\": " +
      str(opt.trace ? "off|spans"
                    : parix::trace_mode_name(parix::default_trace_mode())) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": " + str(SKILBENCH_BUILD_TYPE);
  std::printf("skilbench workload=%s seed=%llu runs/pass=%zu trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              w.cells.size(), opt.trace ? 1 : 0);
  std::printf("config {%s}\n", config.c_str());

  std::vector<Pass> passes;
  // Passes (or untraced/traced pairs) continue while one more is
  // expected to end within --seconds; the first always runs.
  const auto t_measure = Clock::now();
  double round_s = 0.0;
  do {
    const auto t_round = Clock::now();
    passes.push_back(run_pass(w, false, oracles, spans, errors));
    if (opt.trace) passes.push_back(run_pass(w, true, oracles, spans, errors));
    round_s = seconds_since(t_round);
  } while (seconds_since(t_measure) + round_s <= opt.seconds);

  int attempted = 0, failed = 0;
  bool vtimes_repeat = true;
  const std::vector<double>& vtimes = passes.front().vtimes;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    for (std::size_t i = 0; i < vtimes.size(); ++i)
      if (!(p.vtimes[i] == vtimes[i])) vtimes_repeat = false;
  }
  if (!vtimes_repeat)
    errors.push_back("virtual times differ between passes of one process");

  std::vector<Metric> metrics;
  const auto emit = [&metrics](std::string name, double value,
                               std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  bool has_variant[kNumVariants] = {};
  for (const Cell& c : w.cells) has_variant[static_cast<int>(c.variant)] = true;

  if (!opt.trace) {
    emit("wall_s",
         median_over(passes, false, [](const Pass& p) { return p.wall_s; }),
         "s");
    for (int v = 0; v < kNumVariants; ++v)
      if (has_variant[v])
        emit(std::string("wall_") + kVariantNames[v] + "_s",
             median_over(passes, false,
                         [v](const Pass& p) { return p.variant_wall_s[v]; }),
             "s");
    emit("vtime_geomean_s", geomean(vtimes), "model_s");
    if (w.cells.front().app != App::kStencil)
      emit("paper_dev", paper_dev(w, vtimes), "frac");
    emit("setup_s", setup_s, "s");
    emit("peak_rss_mib", peak_rss_mib(), "MiB");
    emit("failed_frac", static_cast<double>(failed) / attempted, "frac");
  } else {
    const auto traced = [&passes](auto fn) {
      return median_over(passes, true, fn);
    };
    std::vector<double> calls;
    for (const Pass& p : passes)
      calls.insert(calls.end(), p.call_ms.begin(), p.call_ms.end());
    emit("apps.call_ms_p50", median(calls), "ms");
    emit("apps.call_ms_max",
         calls.empty() ? std::nan("")
                       : *std::max_element(calls.begin(), calls.end()),
         "ms");
    emit("apps.verify_ms",
         traced([](const Pass& p) { return p.verify_s * 1e3; }), "ms");
    for (const Metric& m : LayerCounts{}.metrics())
      emit(m.name,
           traced([&m](const Pass& p) {
             for (const Metric& pm : p.layers.metrics())
               if (pm.name == m.name) return pm.value;
             return std::nan("");
           }),
           m.unit);

    // Critical path of one representative cell under full tracing.
    Outcome cp;
    {
      TracedScope scope(parix::TraceMode::kFull, parix::ProfMode::kOff);
      cp = run_cell(w.critpath, w.seed, nullptr, nullptr, -1);
    }
    ++attempted;
    if (!cp.ok || !cp.run.trace) {
      errors.push_back("critical-path cell " + cell_label(w.critpath) +
                       " failed: " + cp.error);
      ++failed;
      emit("critpath.compute_frac", std::nan(""), "frac");
      emit("critpath.wire_frac", std::nan(""), "frac");
    } else {
      const parix::CriticalPath path =
          parix::analyze_critical_path(*cp.run.trace);
      emit("critpath.compute_frac", ratio(path.compute_us, path.total_us),
           "frac");
      emit("critpath.wire_frac", ratio(path.wire_us, path.total_us), "frac");
    }
    const auto wall = [](const Pass& p) { return p.wall_s; };
    emit("trace.overhead_frac",
         traced(wall) / median_over(passes, false, wall) - 1.0, "frac");
  }

  // Human-readable detail: every per-run vtime at full precision, then
  // every metric with its unit.
  for (std::size_t i = 0; i < w.cells.size(); ++i)
    std::printf("run %-28s vtime_s %.17g\n", cell_label(w.cells[i]).c_str(),
                vtimes[i]);
  for (const Pass& p : passes)
    std::printf("pass traced=%d wall_s %.6f skil %.6f dpfl %.6f c %.6f "
                "verify_s %.6f\n",
                p.traced ? 1 : 0, p.wall_s, p.variant_wall_s[0],
                p.variant_wall_s[1], p.variant_wall_s[2], p.verify_s);
  for (const Metric& m : metrics)
    std::printf("metric %-30s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& e : errors)
    std::fprintf(stderr, "skilbench: FAILED %s\n", e.c_str());

  // The detail file repeats the same data in machine-readable form.
  const std::string stem = opt.out_dir + "/skilbench_" + w.name +
                           (opt.trace ? "_trace1" : "_trace0");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"quick\": %s,\n",
                 w.name.c_str(), static_cast<unsigned long long>(w.seed),
                 opt.quick ? "true" : "false");
    std::fprintf(f, " \"config\": {%s},\n \"runs\": [\n", config.c_str());
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const Cell& c = w.cells[i];
      std::fprintf(f,
                   "  {\"variant\": \"%s\", \"p\": %d, \"n\": %d, \"steps\": "
                   "%d, \"vtime_s\": %.17g}%s\n",
                   kVariantNames[static_cast<int>(c.variant)], c.p, c.n,
                   c.steps, vtimes[i], i + 1 < w.cells.size() ? "," : "");
    }
    std::fprintf(f, " ],\n \"passes\": [\n");
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const Pass& p = passes[i];
      std::fprintf(f,
                   "  {\"traced\": %s, \"wall_s\": %.17g, \"wall_skil_s\": "
                   "%.17g, \"wall_dpfl_s\": %.17g, \"wall_c_s\": %.17g, "
                   "\"verify_s\": %.17g, \"failed\": %d, \"cell_wall_s\": [",
                   p.traced ? "true" : "false", p.wall_s, p.variant_wall_s[0],
                   p.variant_wall_s[1], p.variant_wall_s[2], p.verify_s,
                   p.failed);
      for (std::size_t k = 0; k < p.cell_wall_s.size(); ++k)
        std::fprintf(f, "%s%.9g", k ? ", " : "", p.cell_wall_s[k]);
      std::fprintf(f, "]}%s\n", i + 1 < passes.size() ? "," : "");
    }
    std::fprintf(f, " ],\n \"metrics\": %s}\n", json_metrics(metrics).c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "skilbench: cannot write %s.json\n", stem.c_str());
    return 1;
  }
  if (opt.trace && !spans.write(stem + "_spans.json")) {
    std::fprintf(stderr, "skilbench: cannot write %s_spans.json\n",
                 stem.c_str());
    return 1;
  }

  const bool correct = failed == 0 && errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              json_metrics(metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  refuse_skil_environment();
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skilbench: %s\n", e.what());
    return 1;
  }
}
