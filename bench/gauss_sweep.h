// The Gaussian-elimination measurement grid shared by bench_table2 and
// bench_figure1 (paper Table 2 / Figure 1: n in {64..640}, p in
// {4, 16, 32, 64}, no-pivot variant, all three languages).
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "apps/gauss.h"
#include "parix/charge_tape.h"
#include "parix/coll.h"
#include "parix/prof.h"
#include "support/error.h"

namespace skil::bench {

struct GaussCell {
  int p = 0;
  int n = 0;
  /// Final vtime (us) and messages sent of the Skil, DPFL and C runs,
  /// in that order.
  double vtime_us[3] = {};
  std::uint64_t messages[3] = {};
  /// Host wall seconds this cell took (all three variants).
  double wall_s = 0.0;
  /// Settlement counters of this cell's three runs (charge_tape.h).
  parix::SettleCounters settle;
  /// Skeleton fusion outcomes of this cell's three runs
  /// (charge_tape.h): all zero under SKIL_FUSE=off.
  parix::FusionCounters fusion;
  /// Host scheduler counters of this cell's three runs (prof.h): all
  /// zero under SKIL_PROF=off.
  parix::SchedulerTotals sched;
  /// Collective-algorithm counters over this cell's three runs
  /// (coll.h): which algorithm family every collective resolved to.
  parix::CollectiveCounters coll;
  /// Vtimes in seconds (RunResult::vtime_seconds's arithmetic).
  double skil_s() const { return vtime_us[0] * 1e-6; }
  double dpfl_s() const { return vtime_us[1] * 1e-6; }
  double c_s() const { return vtime_us[2] * 1e-6; }
  double dpfl_over_skil() const { return dpfl_s() / skil_s(); }
  double skil_over_c() const { return skil_s() / c_s(); }
};

/// Sums the settlement-relevant counters of a finished grid, for
/// coverage reports (bench_engine_wall, the CI settlement smoke).
struct SweepSettleTotals {
  parix::SettleCounters settle;
  parix::FusionCounters fusion;
  parix::CollectiveCounters coll;
};

/// Sums the host scheduler counters of a finished grid (prof.h) --
/// all zero unless the sweep ran under SKIL_PROF=counters.
inline parix::SchedulerTotals sum_sched_totals(
    const std::vector<GaussCell>& cells) {
  parix::SchedulerTotals t;
  for (const GaussCell& cell : cells) t.add(cell.sched);
  return t;
}

inline SweepSettleTotals sum_settle_totals(const std::vector<GaussCell>& cells) {
  SweepSettleTotals t;
  for (const GaussCell& cell : cells) {
    t.settle += cell.settle;
    t.fusion += cell.fusion;
    t.coll += cell.coll;
  }
  return t;
}

/// Paper Table 2 reference values: Skil absolute seconds (bold),
/// DPFL/Skil (roman), Skil/Parix-C (italics).  Negative = the paper
/// does not report the cell (p = 4 ran out of the 1 MB/node memory
/// beyond n = 384; DPFL was not reported for every cell).
struct PaperGaussCell {
  int p;
  int n;
  double skil_s;
  double dpfl_over_skil;
  double skil_over_c;
};

inline const std::vector<PaperGaussCell>& paper_table2() {
  static const std::vector<PaperGaussCell> rows = {
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
  return rows;
}

inline std::vector<int> paper_ns(bool quick) {
  if (quick) return {64, 128};
  return {64, 128, 256, 384, 512, 640};
}

inline std::vector<int> paper_ps() { return {4, 16, 32, 64}; }

/// Runs one (p, n) cell: all three variants, with the host wall time
/// recorded on the cell.
inline GaussCell run_gauss_cell(int p, int n, std::uint64_t seed) {
  GaussCell cell;
  cell.p = p;
  cell.n = n;
  const auto start = std::chrono::steady_clock::now();
  int variant = 0;
  const auto account = [&](const parix::RunResult& run) {
    cell.vtime_us[variant] = run.vtime_us;
    cell.messages[variant++] = run.total.messages_sent;
    cell.settle += run.settle;
    cell.fusion += run.fusion;
    cell.sched.add(run.scheduler);
    cell.coll += run.coll;
  };
  account(apps::gauss_skil(p, n, seed, /*pivoting=*/false).run);
  account(apps::gauss_dpfl(p, n, seed).run);
  account(apps::gauss_c(p, n, seed).run);
  cell.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return cell;
}

/// Runs the full grid (Skil + DPFL + C, no pivoting) and returns one
/// cell per (p, n).  Progress goes to stderr so table output stays
/// clean.
inline std::vector<GaussCell> run_gauss_grid(const std::vector<int>& ns,
                                             const std::vector<int>& ps,
                                             std::uint64_t seed) {
  std::vector<GaussCell> cells;
  for (int p : ps)
    for (int n : ns) {
      std::fprintf(stderr, "  running gauss p=%d n=%d ...\n", p, n);
      cells.push_back(run_gauss_cell(p, n, seed));
    }
  return cells;
}

/// Process-per-cell parallel grid: forks up to `jobs` workers, each
/// computing one (p, n) cell and shipping its result doubles back
/// through a pipe.  Virtual times are deterministic per cell, so the
/// assembled grid is identical to run_gauss_grid's no matter how the
/// host schedules the workers.
///
/// Fork safety: the parent process must not have executed an SPMD run
/// before calling this (the pooled engine's worker threads are created
/// lazily on first use and would not survive fork).  The bench mains
/// satisfy this by forking before any in-process sweep.
inline std::vector<GaussCell> run_gauss_grid_jobs(const std::vector<int>& ns,
                                                  const std::vector<int>& ps,
                                                  std::uint64_t seed,
                                                  int jobs) {
  if (jobs <= 1) return run_gauss_grid(ns, ps, seed);

  std::vector<GaussCell> cells;
  for (int p : ps)
    for (int n : ns) {
      GaussCell cell;
      cell.p = p;
      cell.n = n;
      cells.push_back(cell);
    }

  // Wire format cell -> parent: the timing doubles followed by the
  // message, settlement/fusion/scheduler/collective counters,
  // fixed-width so a single read drains the pipe atomically (well under
  // PIPE_BUF's 4096).  pack and unpack walk the same counter lists.
  const auto for_each_counter = [](GaussCell& c, auto&& visit) {
    for (std::uint64_t& m : c.messages) visit(m);
    for (const auto& f : parix::SettleCounters::kFields)
      visit(c.settle.*f.member);
    for (const auto& f : parix::FusionCounters::kFields)
      visit(c.fusion.*f.member);
    for (const auto& f : parix::SchedulerTotals::kFields)
      visit(c.sched.*f.member);
    for (auto& row : c.coll.calls)
      for (std::uint64_t& v : row) visit(v);
    for (std::uint64_t* per_op : {c.coll.bytes, c.coll.hops, c.coll.steps})
      for (int op = 0; op < parix::kNumCollOps; ++op) visit(per_op[op]);
    visit(c.coll.order_fallbacks);
  };
  struct CellWire {
    double d[4];
    std::uint64_t u[3 + std::size(parix::SettleCounters::kFields) +
                    std::size(parix::FusionCounters::kFields) +
                    std::size(parix::SchedulerTotals::kFields) +
                    // coll: calls per (op, algo); bytes, hops and steps
                    // per op; order_fallbacks
                    (parix::kNumCollAlgos + 3) * parix::kNumCollOps + 1];
  };
  static_assert(sizeof(CellWire) < 1024, "CellWire must stay one pipe write");
  auto pack = [&for_each_counter](GaussCell cell) {
    CellWire w;
    std::copy(cell.vtime_us, cell.vtime_us + 3, w.d);
    w.d[3] = cell.wall_s;
    std::size_t slot = 0;
    for_each_counter(cell, [&](std::uint64_t& v) { w.u[slot++] = v; });
    SKIL_ASSERT(slot == std::size(w.u), "CellWire: counter slot mismatch");
    return w;
  };
  auto unpack = [&for_each_counter](const CellWire& w, GaussCell& cell) {
    std::copy(w.d, w.d + 3, cell.vtime_us);
    cell.wall_s = w.d[3];
    std::size_t slot = 0;
    for_each_counter(cell, [&](std::uint64_t& v) { v = w.u[slot++]; });
  };

  struct Worker {
    pid_t pid = -1;
    int read_fd = -1;
    std::size_t cell = 0;
  };
  std::vector<Worker> active;

  auto reap_one = [&cells, &active, &unpack]() {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    SKIL_ASSERT(pid > 0, "run_gauss_grid_jobs: waitpid failed");
    for (std::size_t w = 0; w < active.size(); ++w) {
      if (active[w].pid != pid) continue;
      SKIL_ASSERT(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                  "run_gauss_grid_jobs: worker failed for cell p=" +
                      std::to_string(cells[active[w].cell].p) +
                      " n=" + std::to_string(cells[active[w].cell].n));
      CellWire wire{};
      const ssize_t got = ::read(active[w].read_fd, &wire, sizeof(wire));
      ::close(active[w].read_fd);
      SKIL_ASSERT(got == static_cast<ssize_t>(sizeof(wire)),
                  "run_gauss_grid_jobs: short read from worker");
      unpack(wire, cells[active[w].cell]);
      active.erase(active.begin() + static_cast<long>(w));
      return;
    }
    // An unrelated child (none are spawned here); ignore it.
  };

  for (std::size_t i = 0; i < cells.size(); ++i) {
    while (active.size() >= static_cast<std::size_t>(jobs)) reap_one();
    int fds[2];
    SKIL_ASSERT(::pipe(fds) == 0, "run_gauss_grid_jobs: pipe failed");
    std::fprintf(stderr, "  running gauss p=%d n=%d ...\n", cells[i].p,
                 cells[i].n);
    const pid_t pid = ::fork();
    SKIL_ASSERT(pid >= 0, "run_gauss_grid_jobs: fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      const GaussCell cell = run_gauss_cell(cells[i].p, cells[i].n, seed);
      const CellWire wire = pack(cell);
      const ssize_t wrote = ::write(fds[1], &wire, sizeof(wire));
      ::_exit(wrote == static_cast<ssize_t>(sizeof(wire)) ? 0 : 1);
    }
    ::close(fds[1]);
    active.push_back(Worker{pid, fds[0], i});
  }
  while (!active.empty()) reap_one();
  return cells;
}

/// Paper reference for a (p, n) cell, if reported.
inline const PaperGaussCell* paper_cell(int p, int n) {
  for (const auto& row : paper_table2())
    if (row.p == p && row.n == n) return &row;
  return nullptr;
}

}  // namespace skil::bench
