// Quickstart: the paper's section 2.4 example, end to end.
//
// "Assume we want to compare all elements of an array of floats A with
// some threshold value t and put the boolean (in C and Skil integer)
// results into another array B.  This can be done by the following
// call of the map skeleton:
//
//     array_map (above_thresh (t), A, B);"
//
// This program creates a distributed float array, maps the partially
// applied above_thresh over it, folds the hit count, and prints the
// run's virtual-time accounting.  Run it as:
//
//     ./quickstart [--procs=8] [--elems=32]
#include <cstdio>

#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/cli.h"
#include "support/error.h"

namespace {

using namespace skil;

// The paper's customizing function: the threshold arrives by partial
// application, the element and its index come from the skeleton.
int above_thresh(float thresh, float elem, Index /*ix*/) {
  return elem >= thresh ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const support::Cli cli(argc, argv, {"procs", "elems"});
  const int procs = cli.count("procs", 8);
  const int elems = cli.count("elems", 32);

  parix::RunConfig config{procs, parix::CostModel::t800()};
  const parix::RunResult run = parix::spmd_run(config, [&](parix::Proc& proc) {
    // A = array_create(1, {elems}, ..., init, DISTR_DEFAULT);
    DistArray<float> a = array_create<float>(
        proc, 1, Size{elems},
        [](Index ix) { return static_cast<float>(ix[0]) * 0.5f; });
    DistArray<int> b = array_create<int>(proc, 1, Size{elems},
                                         [](Index) { return 0; });

    // array_map(above_thresh(t), A, B): `partial` is Skil's partial
    // application -- the compiler instantiates the skeleton with
    // above_thresh inlined and the threshold lifted to a parameter.
    const float t = 7.0f;
    array_map(partial(above_thresh, t), a, b);

    // array_fold((+), ...): count the hits; every processor receives
    // the folded result.
    const int hits = array_fold([](int v, Index) { return v; }, fn::plus, b);

    if (proc.id() == 0) {
      std::printf("elements >= %.1f: %d of %d\n", t, hits, elems);
      const Bounds mine = b.part_bounds();
      std::printf("processor 0 owns rows %d..%d\n", mine.lower[0],
                  mine.upper[0] - 1);
    }

    array_destroy(a);
    array_destroy(b);
  });

  std::printf("modeled runtime on the 20 MHz transputer machine: %.3f ms\n",
              run.vtime_us / 1000.0);
  std::printf("messages sent: %llu (%llu bytes)\n",
              static_cast<unsigned long long>(run.total.messages_sent),
              static_cast<unsigned long long>(run.total.bytes_sent));
  return 0;
} catch (const skil::support::ContractError& err) {
  return skil::support::report_cli_error(argv[0], err);
}
