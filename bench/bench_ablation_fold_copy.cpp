// Ablation A3: two implementation choices the paper motivates in
// section 3:
//  * array_fold combines partition results "along the edges of a
//    virtual tree topology" -- versus a naive linear (sequential
//    gather) combination;
//  * array_copy copies contiguous partitions wholesale -- versus a
//    "correspondingly parameterized array_map".
//
// Usage: bench_ablation_fold_copy [--elems=100000] [--csv=path] [--out-dir=dir]
//                                 [--metrics-out[=path]] [--trace-out[=path]]
//
// --metrics-out / --trace-out re-run the p = 16 tree fold once under
// full tracing after the sweeps and export its metrics / Chrome trace
// JSON (bench_common.h).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "parix/collectives.h"
#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

namespace {

using namespace skil;

/// Linear fold: every processor sends its partial to the root in rank
/// order, the root combines sequentially and broadcasts back.
template <class T, class BinOp>
T linear_allreduce(parix::Proc& proc, const parix::Topology& topo, T local,
                   BinOp op) {
  std::vector<T> all = parix::gather(proc, topo, topo.hw_of(0), local);
  T result = local;
  if (proc.id() == topo.hw_of(0)) {
    result = all[0];
    for (std::size_t i = 1; i < all.size(); ++i)
      result = op(result, all[i]);
  }
  parix::broadcast(proc, topo, topo.hw_of(0), result);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace skil::bench;
  const support::Cli cli =
      parse_cli(argc, argv, {"elems", "csv", "out-dir", "metrics-out",
                             "trace-out"});
  const int elems = count_flag(cli, "elems", 100000);

  banner("A3 -- tree fold vs linear fold; memcpy copy vs map copy");

  support::Table fold_table(
      {"p", "tree fold [ms]", "linear fold [ms]", "linear/tree"});
  support::CsvWriter csv(out_path(cli, "csv", "bench_ablation_fold_copy.csv"),
                         {"experiment", "p", "fast_ms", "slow_ms", "ratio"});

  bool tree_wins_large = true;
  for (int p : {4, 16, 64}) {
    parix::RunConfig config{p, parix::CostModel::t800()};
    // Fold a tiny per-processor value many times so the collective's
    // communication structure dominates.
    const int rounds = 64;
    const auto tree = parix::spmd_run(config, [&](parix::Proc& proc) {
      const parix::Topology topo(proc.machine(), parix::Distr::kDefault);
      double acc = proc.id();
      for (int r = 0; r < rounds; ++r)
        acc = parix::allreduce(proc, topo, acc,
                               [](double a, double b) { return a + b; });
    });
    const auto linear = parix::spmd_run(config, [&](parix::Proc& proc) {
      const parix::Topology topo(proc.machine(), parix::Distr::kDefault);
      double acc = proc.id();
      for (int r = 0; r < rounds; ++r)
        acc = linear_allreduce(proc, topo, acc,
                               [](double a, double b) { return a + b; });
    });
    const double ratio = linear.vtime_us / tree.vtime_us;
    if (p >= 16 && ratio < 1.2) tree_wins_large = false;
    fold_table.add_row({std::to_string(p),
                        support::fmt_fixed(tree.vtime_us / 1e3, 2),
                        support::fmt_fixed(linear.vtime_us / 1e3, 2),
                        support::fmt_fixed(ratio, 2)});
    csv.add_row({"fold", std::to_string(p),
                 support::fmt_fixed(tree.vtime_us / 1e3, 4),
                 support::fmt_fixed(linear.vtime_us / 1e3, 4),
                 support::fmt_fixed(ratio, 4)});
  }
  fold_table.print();

  support::Table copy_table(
      {"elems", "array_copy [ms]", "map copy [ms]", "map/copy"});
  bool copy_wins = true;
  for (int size : {elems / 10, elems}) {
    parix::RunConfig config{4, parix::CostModel::t800()};
    const auto fast = parix::spmd_run(config, [&](parix::Proc& proc) {
      auto a = array_create<double>(proc, 1, Size{size},
                                    [](Index ix) { return ix[0] * 1.0; });
      auto b = array_create<double>(proc, 1, Size{size},
                                    [](Index) { return 0.0; });
      for (int r = 0; r < 8; ++r) array_copy(a, b);
    });
    const auto slow = parix::spmd_run(config, [&](parix::Proc& proc) {
      auto a = array_create<double>(proc, 1, Size{size},
                                    [](Index ix) { return ix[0] * 1.0; });
      auto b = array_create<double>(proc, 1, Size{size},
                                    [](Index) { return 0.0; });
      for (int r = 0; r < 8; ++r) array_map(fn::identity, a, b);
    });
    const double ratio = slow.vtime_us / fast.vtime_us;
    if (ratio < 1.5) copy_wins = false;
    copy_table.add_row({std::to_string(size),
                        support::fmt_fixed(fast.vtime_us / 1e3, 2),
                        support::fmt_fixed(slow.vtime_us / 1e3, 2),
                        support::fmt_fixed(ratio, 2)});
    csv.add_row({"copy", std::to_string(size),
                 support::fmt_fixed(fast.vtime_us / 1e3, 4),
                 support::fmt_fixed(slow.vtime_us / 1e3, 4),
                 support::fmt_fixed(ratio, 4)});
  }
  copy_table.print();

  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("the tree fold beats the linear fold on larger networks",
              tree_wins_large);
  shape_check("contiguous array_copy beats the equivalent array_map",
              copy_wins);

  if (wants_run_artifacts(cli)) {
    const int p = 16;
    parix::RunConfig config{p, parix::CostModel::t800()};
    const auto traced = traced_rerun([&] {
      return parix::spmd_run(config, [&](parix::Proc& proc) {
        const parix::Topology topo(proc.machine(), parix::Distr::kDefault);
        double acc = proc.id();
        for (int r = 0; r < 64; ++r)
          acc = parix::allreduce(proc, topo, acc,
                                 [](double a, double b) { return a + b; });
      });
    });
    write_run_artifacts(cli, traced, "fold_tree_p" + std::to_string(p));
  }
  return 0;
}
