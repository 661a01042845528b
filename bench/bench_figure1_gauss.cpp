// Reproduces Figure 1: the Gaussian-elimination speedups of Skil over
// DPFL (left graphic) and slow-downs of Skil versus Parix-C (right
// graphic), plotted against the number of processors for every matrix
// size.
//
// Output: the two series printed as tables, ASCII renderings of both
// plots, a CSV of the series, and the paper's qualitative shape
// checks ("most of the speedups relative to DPFL are grouped around
// the factor 6, while only a few go below 5 ... small partitions ...
// communication overhead gains more importance"; "the slow-downs
// relative to C are mainly grouped around 2, in some cases (generally,
// for large networks) going down to 1").
//
// Usage: bench_figure1_gauss [--quick] [--csv=path] [--out-dir=dir]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gauss_sweep.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace skil;
  using namespace skil::bench;

  const support::Cli cli = parse_cli(argc, argv, {"quick", "csv", "out-dir"});
  const bool quick = cli.get_bool("quick");
  const std::uint64_t seed = 19960528;

  banner("Figure 1 -- Skil vs DPFL (left) and Skil vs Parix-C (right), "
         "Gaussian elimination");

  const auto ns = paper_ns(quick);
  const auto ps = paper_ps();
  const auto cells = run_gauss_grid(ns, ps, seed);

  auto find = [&](int p, int n) -> const GaussCell& {
    for (const auto& c : cells)
      if (c.p == p && c.n == n) return c;
    throw std::logic_error("missing cell");
  };

  // Series per n, x axis = processors.
  std::vector<std::string> labels;
  std::vector<double> xs(ps.begin(), ps.end());
  std::vector<std::vector<double>> speedups, slowdowns;
  for (int n : ns) {
    labels.push_back("n = " + std::to_string(n));
    std::vector<double> su, sd;
    for (int p : ps) {
      su.push_back(find(p, n).dpfl_over_skil());
      sd.push_back(find(p, n).skil_over_c());
    }
    speedups.push_back(su);
    slowdowns.push_back(sd);
  }

  std::vector<std::string> header{"n \\ p"};
  for (int p : ps) header.push_back(std::to_string(p));
  support::Table left(header);
  support::Table right(header);
  support::CsvWriter csv(out_path(cli, "csv", "bench_figure1_gauss.csv"),
                         {"n", "p", "speedup_vs_dpfl", "slowdown_vs_c"});
  for (std::size_t i = 0; i < ns.size(); ++i) {
    std::vector<std::string> lrow{std::to_string(ns[i])};
    std::vector<std::string> rrow{std::to_string(ns[i])};
    for (std::size_t j = 0; j < ps.size(); ++j) {
      lrow.push_back(support::fmt_fixed(speedups[i][j], 2));
      rrow.push_back(support::fmt_fixed(slowdowns[i][j], 2));
      csv.add_row({std::to_string(ns[i]), std::to_string(ps[j]),
                   support::fmt_fixed(speedups[i][j], 4),
                   support::fmt_fixed(slowdowns[i][j], 4)});
    }
    left.add_row(lrow);
    right.add_row(rrow);
  }

  std::printf("Relative speed-ups Skil vs. DPFL (left graphic):\n");
  left.print();
  std::printf("%s\n",
              support::ascii_plot(labels, xs, speedups, "processors",
                                  "speedup Skil vs DPFL")
                  .c_str());
  std::printf("Relative slow-downs Skil vs. C (right graphic):\n");
  right.print();
  std::printf("%s\n",
              support::ascii_plot(labels, xs, slowdowns, "processors",
                                  "slowdown Skil vs C")
                  .c_str());

  // Shape checks.
  std::printf("shape checks (see EXPERIMENTS.md):\n");
  int around6 = 0, total = 0, below_floor = 0;
  for (const auto& series : speedups)
    for (double v : series) {
      ++total;
      if (v >= 4.5) ++around6;
      if (v < 2.0) ++below_floor;
    }
  shape_check("most DPFL speedups are 'grouped around 6' (here: >= 4.5 "
              "for the majority of cells)",
              around6 * 2 >= total && below_floor == 0);

  // Small arrays on large networks lose efficiency: for the smallest
  // n, the speedup at the largest p must be below the speedup of the
  // largest n at the same p.
  const double small_n_large_p = speedups.front().back();
  const double large_n_large_p = speedups.back().back();
  shape_check("small partitions drop the DPFL speedup (smallest n at "
              "p=64 below largest n at p=64)",
              small_n_large_p < large_n_large_p);

  int near2 = 0, ctotal = 0;
  for (const auto& series : slowdowns)
    for (double v : series) {
      ++ctotal;
      if (v >= 0.8 && v <= 3.2) ++near2;
    }
  shape_check("Skil/C slow-downs lie in the paper's band (mainly "
              "around 2, down to ~1 for large networks)",
              near2 == ctotal);
  const double c_small_p = slowdowns.back().front();
  const double c_large_p = slowdowns.back().back();
  shape_check("for the largest n the slow-down falls from p=4 to p=64",
              c_large_p < c_small_p);
  return 0;
}
