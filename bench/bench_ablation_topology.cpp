// Ablation A1: *why* does Skil beat the older C version in Table 1?
// The paper credits "virtual topologies" and "asynchronous
// communication".  This bench toggles the two ingredients (plus the
// hand-tuned inner loop) independently on the hand-written C shortest
// paths and shows each one's contribution.
//
// Usage: bench_ablation_topology [--n=120] [--p=16] [--csv=path]
//                                [--coll-csv=path] [--out-dir=dir]
//                                [--metrics-out[=path]] [--trace-out[=path]]
//
// Besides the paper's A1 ablation this bench also A/Bs the collective
// zoo (SKIL_COLL=tree vs auto) across every virtual-topology
// embedding, since the embeddings' hop distances drive the adaptive
// algorithm choice (--coll-csv).
//
// --metrics-out / --trace-out re-run the fully optimized C variant
// once under full tracing after the sweep and export its metrics /
// Chrome trace JSON (bench_common.h).
#include <cstdio>

#include "apps/shortest_paths.h"
#include "bench_common.h"
#include "parix/collectives.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace skil;
  using namespace skil::bench;

  const support::Cli cli =
      parse_cli(argc, argv, {"n", "p", "csv", "coll-csv", "out-dir",
                             "metrics-out", "trace-out"});
  const int n = count_flag(cli, "n", 120);
  const int p = count_flag(cli, "p", 16);
  const std::uint64_t seed = 555;

  banner("A1 -- ablation: virtual topology / asynchronous overlap / "
         "tuned loop (hand-written C shortest paths, p = " +
         std::to_string(p) + ", n = " + std::to_string(n) + ")");

  struct Variant {
    const char* name;
    apps::CImplOptions options;
  };
  const Variant variants[] = {
      {"old C (none)", {false, false, false}},
      {"+ virtual topology", {true, false, false}},
      {"+ async overlap", {false, true, false}},
      {"+ tuned loop", {false, false, true}},
      {"topology + async", {true, true, false}},
      {"fully optimized", {true, true, true}},
  };

  support::Table table({"variant", "time [s]", "vs old C", "comm share"});
  support::CsvWriter csv(out_path(cli, "csv", "bench_ablation_topology.csv"),
                         {"variant", "seconds", "speedup_vs_old",
                          "comm_share"});
  double old_time = 0.0;
  double skil_time = apps::shpaths_skil(p, n, seed).run.vtime_seconds();
  bool each_helps = true;
  double prev_combined = 1e300;
  for (const Variant& variant : variants) {
    const auto result = apps::shpaths_c_custom(p, n, seed, variant.options);
    const double secs_v = result.run.vtime_seconds();
    if (old_time == 0.0) old_time = secs_v;
    const double comm_share =
        result.run.total.comm_us /
        (result.run.total.comm_us + result.run.total.compute_us);
    table.add_row({variant.name, support::fmt_fixed(secs_v, 3),
                   support::fmt_fixed(old_time / secs_v, 3),
                   support::fmt_fixed(comm_share, 3)});
    csv.add_row({variant.name, support::fmt_fixed(secs_v, 5),
                 support::fmt_fixed(old_time / secs_v, 4),
                 support::fmt_fixed(comm_share, 4)});
    if (secs_v > old_time * 1.0001) each_helps = false;
    prev_combined = secs_v;
  }
  table.add_separator();
  table.add_row({"Skil (skeletons)", support::fmt_fixed(skil_time, 3),
                 support::fmt_fixed(old_time / skil_time, 3), ""});
  table.print();

  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("every single ingredient improves on the old version",
              each_helps);
  shape_check("Skil sits between the old and the fully optimized C "
              "(Table 1's observation)",
              skil_time < old_time && skil_time > prev_combined);

  // A2 -- the same embedding question for the collective zoo: each
  // virtual topology changes the hop distances the cost model charges,
  // so the size-adaptive selection (SKIL_COLL=auto) can pick a
  // different algorithm per embedding.  A/B tree vs auto on a
  // collective-heavy kernel over every embedding.
  banner("A2 -- collective algorithm vs embedding (allreduce of " +
         std::to_string(4096) + " doubles, p = " + std::to_string(p) + ")");
  const parix::Distr kEmbeddings[] = {
      parix::Distr::kDefault, parix::Distr::kRing, parix::Distr::kTorus2D,
      parix::Distr::kHypercube};
  support::Table coll_table({"embedding", "tree [s]", "auto [s]",
                             "tree/auto"});
  support::CsvWriter coll_csv(
      out_path(cli, "coll-csv", "bench_ablation_topology_coll.csv"),
      {"embedding", "mode", "seconds"});
  bool coll_auto_never_loses = true;
  for (parix::Distr embedding : kEmbeddings) {
    double vtimes[2] = {};
    const parix::CollMode modes[2] = {parix::CollMode::kTree,
                                      parix::CollMode::kAuto};
    for (int m = 0; m < 2; ++m) {
      parix::RunConfig config{p, parix::CostModel::t800()};
      config.coll = modes[m];
      const parix::RunResult run =
          parix::spmd_run(config, [&](parix::Proc& proc) {
            parix::Topology topo(proc.machine(), embedding);
            std::vector<double> v(4096, proc.id() + 1.0);
            (void)parix::allreduce_elems(
                proc, topo, std::move(v),
                [](double a, double b) { return a + b; },
                parix::CollOrder::kExact);
          });
      vtimes[m] = run.vtime_us;
      coll_csv.add_row({parix::distr_name(embedding),
                        std::string(parix::coll_mode_name(modes[m])),
                        support::fmt_fixed(run.vtime_us * 1e-6, 5)});
    }
    if (vtimes[1] > vtimes[0] * 1.0001) coll_auto_never_loses = false;
    coll_table.add_row({parix::distr_name(embedding), secs(vtimes[0], 3),
                        secs(vtimes[1], 3),
                        support::fmt_fixed(vtimes[0] / vtimes[1], 2)});
  }
  coll_table.print();
  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("auto never loses to tree on any embedding",
              coll_auto_never_loses);

  if (wants_run_artifacts(cli)) {
    const auto traced = traced_rerun([&] {
      return apps::shpaths_c_custom(p, n, seed, {true, true, true});
    });
    write_run_artifacts(cli, traced.run,
                        "shpaths_c_opt_p" + std::to_string(p) + "_n" +
                            std::to_string(n));
  }
  return 0;
}
