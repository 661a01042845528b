// Heat diffusion with overlapping partition borders -- the paper's
// section 6 future work ("it should be possible to define overlapping
// areas for the single partitions, in order to reduce communication in
// operations which require more than one element at a time.  Such
// operations are used for instance in solving partial differential
// equations ...").
//
// A 1-D rod (stored as an n x 1 distributed array, one row block per
// processor) starts hot in the middle; each time step applies the
// explicit three-point heat kernel through array_map_stencil, which
// exchanges one halo row per neighbour per step.
//
//     ./heat_stencil [--procs=8] [--cells=64] [--steps=60]
//
// The library-grade version of this workload (no terminal art, plus a
// BENCH grid and golden vtimes) lives in src/apps/stencil_jacobi.h.
#include <cstdio>
#include <string>

#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/cli.h"
#include "support/error.h"

int main(int argc, char** argv) try {
  using namespace skil;
  const support::Cli cli(argc, argv, {"procs", "cells", "steps"});
  const int procs = cli.count("procs", 8);
  const int cells = cli.count("cells", 64);
  const int steps = cli.count("steps", 60);

  parix::RunConfig config{procs, parix::CostModel::t800()};
  const auto run = parix::spmd_run(config, [&](parix::Proc& proc) {
    const int rows_per_proc = (cells + procs - 1) / procs;
    const int padded = rows_per_proc * procs;
    auto temp = array_create<double>(
        proc, 2, Size{padded, 1}, Size{rows_per_proc, 1}, Index{-1, -1},
        [&](Index ix) {
          // A hot band in the middle third of the rod.
          return (ix[0] >= padded / 3 && ix[0] < 2 * padded / 3) ? 100.0
                                                                 : 0.0;
        },
        parix::Distr::kDefault);
    auto next = array_create<double>(proc, 2, Size{padded, 1},
                                     Size{rows_per_proc, 1}, Index{-1, -1},
                                     [](Index) { return 0.0; },
                                     parix::Distr::kDefault);

    auto kernel = [padded](const StencilView<double>& view, Index ix) {
      const int i = ix[0];
      const double up = view.get(i > 0 ? i - 1 : i, 0);
      const double down = view.get(i < padded - 1 ? i + 1 : i, 0);
      return 0.25 * up + 0.5 * view.get(i, 0) + 0.25 * down;
    };

    auto print_profile = [&](int step) {
      const std::vector<double> profile = array_gather_all(temp);
      if (proc.id() != 0) return;
      std::printf("t=%3d |", step);
      for (int i = 0; i < padded; i += std::max(1, padded / 64)) {
        const char* shades = " .:-=+*#%@";
        const int level =
            std::min(9, static_cast<int>(profile[i] / 100.0 * 9.99));
        std::printf("%c", shades[level]);
      }
      std::printf("|\n");
    };

    print_profile(0);
    for (int step = 1; step <= steps; ++step) {
      array_map_stencil(kernel, temp, next, /*halo=*/1);
      array_copy(next, temp);
      if (step % std::max(1, steps / 6) == 0) print_profile(step);
    }

    const double total = array_fold([](double v, Index) { return v; },
                                    fn::plus, temp);
    const double peak = array_fold([](double v, Index) { return v; },
                                   fn::max, temp);
    if (proc.id() == 0)
      std::printf("\nheat conserved: total = %.2f, peak = %.2f\n", total,
                  peak);
  });

  std::printf("modeled runtime: %.3f ms; halo messages: %llu\n",
              run.vtime_us / 1e3,
              static_cast<unsigned long long>(run.total.messages_sent));
  return 0;
} catch (const skil::support::ContractError& err) {
  return skil::support::report_cli_error(argv[0], err);
}
