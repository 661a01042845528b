// Reproduces the section 5.1 claim (ref [3]): "We have done the
// comparison between equally optimized C and Skil versions of the
// matrix multiplication algorithm, and obtained Skil times around 20%
// slower than direct C times."
//
// Usage: bench_s1_matmul_opt [--quick] [--csv=path] [--out-dir=dir]
#include <cstdio>

#include "apps/matmul.h"
#include "bench_common.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace skil;
  using namespace skil::bench;

  const support::Cli cli = parse_cli(argc, argv, {"quick", "csv", "out-dir"});
  const bool quick = cli.get_bool("quick");
  const std::uint64_t seed = 31337;

  banner("S1 -- equally optimized C vs Skil, classical matrix "
         "multiplication (paper: Skil ~20% slower)");

  const std::vector<int> ns = quick ? std::vector<int>{64, 128}
                                    : std::vector<int>{64, 128, 256, 384};
  const std::vector<int> ps = {4, 16, 64};

  support::Table table({"p", "n", "Skil [s]", "opt C [s]", "Skil/C"});
  support::CsvWriter csv(out_path(cli, "csv", "bench_s1_matmul.csv"),
                         {"p", "n", "skil_s", "c_s", "skil_over_c"});
  bool in_band = true;
  double worst = 0.0;
  for (int p : ps)
    for (int n : ns) {
      std::fprintf(stderr, "  running matmul p=%d n=%d ...\n", p, n);
      const double skil = apps::matmul_skil(p, n, seed).run.vtime_seconds();
      const double c = apps::matmul_c(p, n, seed).run.vtime_seconds();
      const double ratio = skil / c;
      worst = std::max(worst, ratio);
      if (ratio < 1.0 || ratio > 1.6) in_band = false;
      table.add_row({std::to_string(p), std::to_string(n),
                     support::fmt_fixed(skil, 3), support::fmt_fixed(c, 3),
                     support::fmt_fixed(ratio, 3)});
      csv.add_row({std::to_string(p), std::to_string(n),
                   support::fmt_fixed(skil, 5), support::fmt_fixed(c, 5),
                   support::fmt_fixed(ratio, 4)});
    }
  table.print();

  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("Skil is slower than equally optimized C but by less than "
              "60% (paper: around 20%)",
              in_band);
  shape_check("worst observed slow-down stays below 1.6x", worst < 1.6);
  return 0;
}
