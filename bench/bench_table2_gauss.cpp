// Reproduces Table 2: Gaussian elimination (no pivot search) for
// n x n systems, n in {64..640}, on p in {4, 16, 32, 64} processors.
//
// Paper cell format: absolute Skil seconds (bold), the DPFL/Skil
// speedup (roman), and the Skil/Parix-C slow-down (italics).
//
// Usage: bench_table2_gauss [--quick] [--csv=path] [--out-dir=dir]
//                           [--jobs=N]
//
// --jobs forks one worker process per (p, n) cell, up to N at a time;
// virtual times are per-cell deterministic, so the table is identical.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "gauss_sweep.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace skil;
  using namespace skil::bench;

  const support::Cli cli =
      parse_cli(argc, argv, {"quick", "csv", "out-dir", "jobs"});
  const bool quick = cli.get_bool("quick");
  const int jobs = count_flag(cli, "jobs", 1);
  const std::uint64_t seed = 19960528;

  banner("Table 2 -- Gaussian elimination (no pivoting)");
  std::printf("cells: Skil seconds / DPFL-over-Skil / Skil-over-C;\n"
              "paper reference in brackets; '-' = not reported "
              "(p = 4 exceeded the 1 MB/node memory beyond n = 384)\n\n");

  const auto ns = paper_ns(quick);
  const auto cells = run_gauss_grid_jobs(ns, paper_ps(), seed, jobs);

  std::vector<std::string> header{"p \\ n"};
  for (int n : ns) header.push_back(std::to_string(n));
  support::Table table(header);
  support::CsvWriter csv(out_path(cli, "csv", "bench_table2_gauss.csv"),
                         {"p", "n", "skil_s", "dpfl_s", "c_s",
                          "dpfl_over_skil", "skil_over_c", "paper_skil_s",
                          "paper_dpfl_over_skil", "paper_skil_over_c"});

  bool dpfl_band = true, c_band = true, c_falls_with_p = true;
  for (int p : paper_ps()) {
    std::vector<std::string> abs_row{std::to_string(p) + "  skil s"};
    std::vector<std::string> dpfl_row{"   DPFL/Skil"};
    std::vector<std::string> c_row{"   Skil/C"};
    for (int n : ns) {
      const GaussCell* cell = nullptr;
      for (const auto& c : cells)
        if (c.p == p && c.n == n) cell = &c;
      const PaperGaussCell* paper = paper_cell(p, n);
      auto bracket = [](double v, double ref) {
        return support::fmt_fixed(v, 2) + " [" +
               (ref > 0 ? support::fmt_fixed(ref, 2) : std::string("-")) +
               "]";
      };
      abs_row.push_back(bracket(cell->skil_s(), paper ? paper->skil_s : -1));
      dpfl_row.push_back(
          bracket(cell->dpfl_over_skil(), paper ? paper->dpfl_over_skil : -1));
      c_row.push_back(
          bracket(cell->skil_over_c(), paper ? paper->skil_over_c : -1));
      if (cell->dpfl_over_skil() < 2.5 || cell->dpfl_over_skil() > 10.0)
        dpfl_band = false;
      if (cell->skil_over_c() < 0.8 || cell->skil_over_c() > 3.5)
        c_band = false;
      csv.add_row({std::to_string(p), std::to_string(n),
                   support::fmt_fixed(cell->skil_s(), 4),
                   support::fmt_fixed(cell->dpfl_s(), 4),
                   support::fmt_fixed(cell->c_s(), 4),
                   support::fmt_fixed(cell->dpfl_over_skil(), 4),
                   support::fmt_fixed(cell->skil_over_c(), 4),
                   paper ? support::fmt_ratio(paper->skil_s) : "-",
                   paper ? support::fmt_ratio(paper->dpfl_over_skil) : "-",
                   paper ? support::fmt_ratio(paper->skil_over_c) : "-"});
    }
    table.add_row(abs_row);
    table.add_row(dpfl_row);
    table.add_row(c_row);
    table.add_separator();
  }
  table.print();

  // Shape checks against the paper's qualitative findings.
  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("DPFL/Skil speedups sit in the 2.5..10 band (paper: "
              "3.48..6.69, 'on the average 6 times faster')",
              dpfl_band);
  shape_check("Skil/C slow-downs sit in the 0.8..3.5 band (paper: "
              "0.94..2.64, 'between 1 and 2.5')",
              c_band);
  for (std::size_t i = 0; i + 1 < paper_ps().size(); ++i) {
    const int p_small = paper_ps()[i], p_large = paper_ps()[i + 1];
    const int n = ns.back();
    double small_ratio = 0, large_ratio = 0;
    for (const auto& c : cells) {
      if (c.p == p_small && c.n == n) small_ratio = c.skil_over_c();
      if (c.p == p_large && c.n == n) large_ratio = c.skil_over_c();
    }
    if (large_ratio > small_ratio + 0.15) c_falls_with_p = false;
  }
  shape_check("Skil/C slow-down falls as p grows (communication "
              "dominates on large networks; paper: 2.64 -> 1.37 at "
              "the largest n)",
              c_falls_with_p);
  return 0;
}
