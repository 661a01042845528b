// Shortest paths in graphs (paper section 4.1) on a small random
// graph, printing the distance matrix and the three implementations'
// modeled runtimes.
//
//     ./shortest_paths [--procs=4] [--nodes=12] [--seed=7]
#include <cstdio>

#include "apps/shortest_paths.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/matrix.h"

int main(int argc, char** argv) try {
  using namespace skil;
  const support::Cli cli(argc, argv, {"procs", "nodes", "seed"});
  const int procs = cli.count("procs", 4);
  const int nodes = cli.count("nodes", 12);
  const std::uint64_t seed = cli.get_int("seed", 7);

  const auto skil_run = apps::shpaths_skil(procs, nodes, seed);
  const auto dpfl_run = apps::shpaths_dpfl(procs, nodes, seed);
  const auto old_c = apps::shpaths_c(procs, nodes, seed, false);
  const auto opt_c = apps::shpaths_c(procs, nodes, seed, true);

  const auto& d = skil_run.distances;
  std::printf("all-pairs shortest paths, %d nodes (padded to %d), "
              "%d processors\n\n    ",
              nodes, d.rows(), procs);
  for (int j = 0; j < nodes; ++j) std::printf("%5d", j);
  std::printf("\n");
  for (int i = 0; i < nodes; ++i) {
    std::printf("%3d ", i);
    for (int j = 0; j < nodes; ++j) {
      if (d(i, j) == support::kDistInf)
        std::printf("    -");
      else
        std::printf("%5u", d(i, j));
    }
    std::printf("\n");
  }

  std::printf("\nmodeled runtimes (T800 machine):\n");
  std::printf("  Skil skeletons : %10.3f ms\n",
              skil_run.run.vtime_us / 1e3);
  std::printf("  DPFL baseline  : %10.3f ms  (%.2fx Skil)\n",
              dpfl_run.run.vtime_us / 1e3,
              dpfl_run.run.vtime_us / skil_run.run.vtime_us);
  std::printf("  old Parix-C    : %10.3f ms  (%.2fx Skil)\n",
              old_c.run.vtime_us / 1e3,
              old_c.run.vtime_us / skil_run.run.vtime_us);
  std::printf("  optimized C    : %10.3f ms  (%.2fx Skil)\n",
              opt_c.run.vtime_us / 1e3,
              opt_c.run.vtime_us / skil_run.run.vtime_us);
  return 0;
} catch (const skil::support::ContractError& err) {
  return skil::support::report_cli_error(argv[0], err);
}
