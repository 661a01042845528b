// Gaussian elimination (paper section 4.2) as a linear-system solver:
// builds a random system that *requires* partial pivoting, solves it
// with the complete skeleton program (fold for the pivot search,
// permute_rows for the exchange, map + broadcast_part for the
// elimination), and verifies the residual.
//
//     ./gauss_solver [--procs=4] [--n=24] [--seed=3]
#include <cmath>
#include <cstdio>

#include "apps/gauss.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/matrix.h"

int main(int argc, char** argv) try {
  using namespace skil;
  const support::Cli cli(argc, argv, {"procs", "n", "seed"});
  const int procs = cli.count("procs", 4);
  const int n = cli.count("n", 24);
  const std::uint64_t seed = cli.get_int("seed", 3);

  std::printf("solving a %dx%d system (rows scrambled to force "
              "pivoting) on %d processors\n\n",
              n, n, procs);

  const auto with_pivot = apps::gauss_skil(procs, n, seed, /*pivoting=*/true);
  const auto ab = support::random_pivoting_system(n, seed);
  const std::vector<double> x(with_pivot.x.begin(), with_pivot.x.begin() + n);

  std::printf("solution x (first %d components):\n  ", std::min(n, 8));
  for (int i = 0; i < std::min(n, 8); ++i) std::printf("% .5f ", x[i]);
  std::printf("%s\n", n > 8 ? "..." : "");
  std::printf("residual ||Ax - b||_inf = %.3e\n\n", residual_inf(ab, x));

  // The paper's singular-matrix diagnostic.
  std::printf("and the error path: a singular matrix raises the paper's "
              "run-time error --\n");
  try {
    // The no-pivot variant on a matrix with a zero pivot: build it by
    // solving the scrambled system *without* pivoting, which hits a
    // ~zero pivot quickly for this workload only if truly singular;
    // instead demonstrate with pivoting on an actually singular
    // system via the sequential oracle.
    support::Matrix<double> singular(3, 4, 0.0);
    singular(0, 0) = 1.0;
    singular(1, 1) = 1.0;  // row 2 is all zeros -> singular
    support::seq_gauss_pivot(singular);
  } catch (const support::AppError& e) {
    std::printf("  caught AppError: \"%s\"\n\n", e.what());
  }

  std::printf("modeled runtimes (T800 machine):\n");
  const auto no_pivot = apps::gauss_skil(procs, n, seed, false);
  std::printf("  with pivot search : %9.3f ms\n",
              with_pivot.run.vtime_us / 1e3);
  std::printf("  without (paper's Table 2 variant): %9.3f ms  "
              "(pivoting costs %.2fx)\n",
              no_pivot.run.vtime_us / 1e3,
              with_pivot.run.vtime_us / no_pivot.run.vtime_us);
  return 0;
} catch (const skil::support::ContractError& err) {
  return skil::support::report_cli_error(argv[0], err);
}
