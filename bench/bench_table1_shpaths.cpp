// Reproduces Table 1: shortest paths for graphs with n = 200 nodes
// (rounded up to a multiple of the grid side) on sqrt(p) x sqrt(p)
// processor networks.
//
// Paper columns: DPFL absolute seconds, Skil absolute seconds, the
// DPFL/Skil speedup (around 6), and the old message-passing C version
// (no virtual topologies, no asynchronous communication) which Skil
// *beats*.  The paper measured DPFL on the even grids only.
//
// Usage: bench_table1_shpaths [--n=200] [--quick] [--csv=path] [--out-dir=dir]
//                             [--metrics-out[=path]] [--trace-out[=path]]
//
// --metrics-out / --trace-out re-run the representative Skil cell
// (p = 16) once under full tracing after the table sweep and export
// its metrics / Chrome trace JSON (parix/metrics.h); bare flags drop
// the default file names into --out-dir.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/shortest_paths.h"
#include "bench_common.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

namespace {

using namespace skil;
using namespace skil::bench;

struct PaperRow {
  int p;
  double dpfl;    // negative: not reported
  double skil;
  double ratio;   // DPFL / Skil
  double old_c;   // negative: not reported
};

// Table 1 of the paper (seconds on the 64-transputer Parsytec MC).
const std::vector<PaperRow> kPaper = {
    {4, 1524.22, 234.29, 6.51, 259.49},  {9, -1, 107.69, -1, -1},
    {16, 387.23, 60.78, 6.37, 65.79},    {25, -1, 39.56, -1, -1},
    {36, 185.13, 29.70, 6.23, 31.53},    {49, -1, 21.83, -1, -1},
    {64, 98.76, 16.34, 6.04, 16.92},
};

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli =
      parse_cli(argc, argv, {"n", "quick", "csv", "out-dir", "metrics-out",
                             "trace-out"});
  const int n = count_flag(cli, "n", cli.get_bool("quick") ? 60 : 200);
  const std::uint64_t seed = 20260704;

  banner("Table 1 -- shortest paths, n = " + std::to_string(n) +
         " (Skil vs DPFL vs old Parix-C)");
  std::printf("paper reference values shown in brackets; '-' = not "
              "reported in the paper\n\n");

  support::Table table({"p", "n used", "DPFL [s]", "Skil [s]", "DPFL/Skil",
                        "old C [s]", "Skil/old C"});
  support::CsvWriter csv(out_path(cli, "csv", "bench_table1_shpaths.csv"),
                         {"p", "n", "dpfl_s", "skil_s", "dpfl_over_skil",
                          "oldc_s", "skil_over_oldc", "paper_dpfl_s",
                          "paper_skil_s", "paper_oldc_s"});

  bool all_ratios_in_band = true;
  bool skil_beats_old_c = true;
  std::vector<double> measured_ratios;

  for (const PaperRow& row : kPaper) {
    const int p = row.p;
    const int n_used = apps::shpaths_round_up(n, p);
    const bool run_dpfl = row.dpfl > 0;  // the paper measured even grids

    const auto skil = apps::shpaths_skil(p, n, seed);
    const auto old_c = apps::shpaths_c(p, n, seed, /*optimized=*/false);
    double dpfl_s = -1, ratio = -1;
    if (run_dpfl) {
      const auto dpfl = apps::shpaths_dpfl(p, n, seed);
      dpfl_s = dpfl.run.vtime_seconds();
      ratio = dpfl_s / skil.run.vtime_seconds();
      measured_ratios.push_back(ratio);
      if (ratio < 3.0 || ratio > 10.0) all_ratios_in_band = false;
    }
    const double skil_s = skil.run.vtime_seconds();
    const double oldc_s = old_c.run.vtime_seconds();
    if (skil_s >= oldc_s) skil_beats_old_c = false;

    auto cell = [](double v, double paper, int digits = 2) {
      std::string s = v < 0 ? "-" : support::fmt_fixed(v, digits);
      s += "  [" + (paper < 0 ? std::string("-")
                              : support::fmt_fixed(paper, digits)) +
           "]";
      return s;
    };
    table.add_row({grid_label(p), std::to_string(n_used),
                   cell(dpfl_s, row.dpfl), cell(skil_s, row.skil),
                   cell(ratio, row.ratio),
                   cell(oldc_s, row.old_c),
                   support::fmt_ratio(skil_s / oldc_s)});
    csv.add_row({std::to_string(p), std::to_string(n_used),
                 support::fmt_ratio(dpfl_s, 4), support::fmt_ratio(skil_s, 4),
                 support::fmt_ratio(ratio, 4), support::fmt_ratio(oldc_s, 4),
                 support::fmt_ratio(skil_s / oldc_s, 4),
                 support::fmt_ratio(row.dpfl), support::fmt_ratio(row.skil),
                 support::fmt_ratio(row.old_c)});
  }
  table.print();

  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("Skil beats the old Parix-C version at every p "
              "(the paper's headline observation)",
              skil_beats_old_c);
  shape_check("DPFL/Skil speedup stays in the 3..10 band the paper "
              "reports (around 6)",
              all_ratios_in_band);
  bool decreasing = true;
  for (std::size_t i = 1; i < measured_ratios.size(); ++i)
    if (measured_ratios[i] > measured_ratios[i - 1] + 0.75)
      decreasing = false;
  shape_check("DPFL/Skil ratio does not grow with p (communication "
              "evens the languages out)",
              decreasing);

  if (wants_run_artifacts(cli)) {
    const int p = 16;
    const auto traced =
        traced_rerun([&] { return apps::shpaths_skil(p, n, seed); });
    write_run_artifacts(cli, traced.run,
                        "shpaths_skil_p" + std::to_string(p) + "_n" +
                            std::to_string(n));
  }
  return 0;
}
