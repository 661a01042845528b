// SUMMA matrix multiplication on split row/column communicators.
//
// SUMMA replaces Cannon's skewed rotations with one panel broadcast
// per k step along each grid row and column -- the workload the
// communicator-splitting API (Topology::split_rows/split_cols) and
// the size-adaptive broadcast exist for.  The bench sweeps the
// processor grid, compares against the equally optimized Cannon
// implementation (matmul_c), and A/Bs SKIL_COLL=tree vs auto on the
// same build.
//
// Usage: bench_summa [--n=256] [--csv=path] [--out-dir=dir]
//                    [--metrics-out[=path]] [--trace-out[=path]]
//
// --metrics-out / --trace-out re-run the largest auto cell traced and
// export its metrics (with the collective-counter block and
// critical-path summary) / Chrome trace JSON.
#include <cmath>
#include <cstdio>
#include <string>

#include "apps/matmul.h"
#include "bench_common.h"
#include "parix/coll.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

namespace {

/// Runs fn under the given process-default collective mode.
template <typename Fn>
auto with_mode(skil::parix::CollMode mode, Fn&& fn) {
  const skil::parix::CollMode saved = skil::parix::default_coll_mode();
  skil::parix::set_default_coll_mode(mode);
  auto result = fn();
  skil::parix::set_default_coll_mode(saved);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace skil;
  using namespace skil::bench;

  const support::Cli cli =
      parse_cli(argc, argv, {"n", "csv", "out-dir", "metrics-out",
                             "trace-out"});
  // Panels must be a few KB before the chunk-pipelined ring beats the
  // binomial tree; n = 256 gives 8 KB panels on the 8x8 grid.
  const int n = count_flag(cli, "n", 256);
  const std::uint64_t seed = 20260808;

  banner("SUMMA on split communicators vs Cannon rotations, n = " +
         std::to_string(n));

  support::Table table({"grid", "cannon [s]", "summa tree [s]",
                        "summa auto [s]", "tree/auto"});
  support::CsvWriter csv(out_path(cli, "csv", "bench_summa.csv"),
                         {"p", "variant", "seconds"});

  bool products_match = true;
  bool bits_identical = true;
  bool auto_never_loses = true;
  for (int p : {4, 16, 64}) {
    const auto cannon = apps::matmul_c(p, n, seed);
    const auto tree = with_mode(parix::CollMode::kTree,
                                [&] { return apps::matmul_summa(p, n, seed); });
    const auto adaptive = with_mode(parix::CollMode::kAuto, [&] {
      return apps::matmul_summa(p, n, seed);
    });

    const int size = apps::matmul_round_up(n, p);
    for (int i = 0; i < size; ++i)
      for (int j = 0; j < size; ++j) {
        if (std::fabs(cannon.product(i, j) - tree.product(i, j)) >
            1e-9 * (1.0 + std::fabs(cannon.product(i, j))))
          products_match = false;
        if (tree.product(i, j) != adaptive.product(i, j))
          bits_identical = false;
      }
    if (adaptive.run.vtime_us > tree.run.vtime_us * 1.0001)
      auto_never_loses = false;

    const double ratio = tree.run.vtime_us / adaptive.run.vtime_us;
    table.add_row({grid_label(p), secs(cannon.run.vtime_us, 3),
                   secs(tree.run.vtime_us, 3), secs(adaptive.run.vtime_us, 3),
                   support::fmt_fixed(ratio, 2)});
    csv.add_row({std::to_string(p), "cannon",
                 support::fmt_fixed(cannon.run.vtime_us * 1e-6, 5)});
    csv.add_row({std::to_string(p), "summa_tree",
                 support::fmt_fixed(tree.run.vtime_us * 1e-6, 5)});
    csv.add_row({std::to_string(p), "summa_auto",
                 support::fmt_fixed(adaptive.run.vtime_us * 1e-6, 5)});
  }
  table.print();

  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("SUMMA product matches Cannon (up to FP summation order)",
              products_match);
  shape_check("SUMMA product bit-identical under tree and auto",
              bits_identical);
  shape_check("auto never loses to the tree baseline", auto_never_loses);

  if (wants_run_artifacts(cli)) {
    const auto traced = traced_rerun([&] {
      return with_mode(parix::CollMode::kAuto,
                       [&] { return apps::matmul_summa(64, n, seed); });
    });
    write_run_artifacts(cli, traced.run, "summa_p64_n" + std::to_string(n));
  }
  return 0;
}
