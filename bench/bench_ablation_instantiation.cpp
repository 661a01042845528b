// Ablation A2: the paper's section 2.4 argues that translating
// higher-order functions by *instantiation* (inlining + lifting +
// monomorphisation) beats the classical closure-based implementation,
// whose "run-time overheads ... lead to efficiency losses".
//
// This bench runs the same map/fold workload through three dispatch
// mechanisms and reports both the modeled (T800) time and the *host*
// wall time, showing that the effect is real on modern hardware too:
//   1. instantiated   -- skil::array_map with a template-inlined lambda;
//   2. closure        -- the same skeleton invoked through
//                        std::function (the mechanism Skil's compiler
//                        avoids), modeled with indirect-call prices;
//   3. graph reduction-- the DPFL baseline (closures + boxing).
//
// Usage: bench_ablation_instantiation [--elems=200000] [--csv=path] [--out-dir=dir]
//                                     [--metrics-out[=path]] [--trace-out[=path]]
//
// --metrics-out / --trace-out re-run the instantiated variant once
// under full tracing after the timed comparisons and export its
// metrics / Chrome trace JSON (bench_common.h).
#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "dpfl/dpfl.h"
#include "parix/runtime.h"
#include "skil/skil.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

namespace {

using namespace skil;

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace skil::bench;
  const support::Cli cli =
      parse_cli(argc, argv, {"elems", "csv", "out-dir", "metrics-out",
                             "trace-out"});
  const int elems = count_flag(cli, "elems", 200000);
  const int p = 4;

  banner("A2 -- instantiation vs closures for skeleton arguments "
         "(map + fold over " + std::to_string(elems) + " doubles)");

  parix::RunConfig config{p, parix::CostModel::t800()};
  double modeled[3] = {0, 0, 0};
  double wall[3] = {0, 0, 0};

  // 1. Instantiated: the template skeleton inlines the lambda.
  wall[0] = wall_seconds([&] {
    const auto run = parix::spmd_run(config, [&](parix::Proc& proc) {
      auto a = array_create<double>(proc, 1, Size{elems},
                                    [](Index ix) { return ix[0] * 0.5; });
      array_map([](double v) { return v * 1.0001 + 1.0; }, a, a);
      array_fold([](double v, Index) { return v; }, fn::plus, a);
    });
    modeled[0] = run.vtime_seconds();
  });

  // 2. Closure-based: same skeleton, but the functional argument is a
  // std::function and each application additionally pays the
  // indirect-call price the instantiation procedure eliminates.
  wall[1] = wall_seconds([&] {
    const auto run = parix::spmd_run(config, [&](parix::Proc& proc) {
      auto a = array_create<double>(proc, 1, Size{elems},
                                    [](Index ix) { return ix[0] * 0.5; });
      const std::function<double(double)> f = [](double v) {
        return v * 1.0001 + 1.0;
      };
      array_map([&proc, &f](double v) {
        proc.charge(parix::Op::kIndirectCall);
        return f(v);
      }, a, a);
      const std::function<double(double, double)> add =
          [](double x, double y) { return x + y; };
      array_fold([](double v, Index) { return v; },
                 [&proc, &add](double x, double y) {
                   proc.charge(parix::Op::kIndirectCall);
                   return add(x, y);
                 },
                 a);
    });
    modeled[1] = run.vtime_seconds();
  });

  // 3. DPFL: closures plus boxing/immutability.
  wall[2] = wall_seconds([&] {
    const auto run = parix::spmd_run(config, [&](parix::Proc& proc) {
      const dpfl::Closure<double(Index)> init(
          proc, [](Index ix) { return ix[0] * 0.5; });
      auto a = dpfl::fa_create<double>(proc, 1, Size{elems}, init);
      const dpfl::Closure<double(double, Index)> f(
          proc, [](double v, Index) { return v * 1.0001 + 1.0; });
      a = dpfl::fa_map(f, a);
      const dpfl::Closure<double(double, Index)> conv(
          proc, [](double v, Index) { return v; });
      const dpfl::Closure<double(double, double)> add(
          proc, [](double x, double y) { return x + y; });
      dpfl::fa_fold(conv, add, a);
    });
    modeled[2] = run.vtime_seconds();
  });

  const char* names[3] = {"instantiated (Skil)", "closures (std::function)",
                          "graph reduction (DPFL)"};
  support::Table table({"mechanism", "modeled T800 [s]", "vs instantiated",
                        "host wall [ms]", "host ratio"});
  support::CsvWriter csv(out_path(cli, "csv", "bench_ablation_instantiation.csv"),
                         {"mechanism", "modeled_s", "modeled_ratio",
                          "wall_ms", "wall_ratio"});
  for (int i = 0; i < 3; ++i) {
    table.add_row({names[i], support::fmt_fixed(modeled[i], 3),
                   support::fmt_fixed(modeled[i] / modeled[0], 2),
                   support::fmt_fixed(wall[i] * 1e3, 1),
                   support::fmt_fixed(wall[i] / wall[0], 2)});
    csv.add_row({names[i], support::fmt_fixed(modeled[i], 5),
                 support::fmt_fixed(modeled[i] / modeled[0], 4),
                 support::fmt_fixed(wall[i] * 1e3, 3),
                 support::fmt_fixed(wall[i] / wall[0], 4)});
  }
  table.print();

  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("closures cost more than instantiation in the model",
              modeled[1] > modeled[0] * 1.2);
  shape_check("graph reduction costs the most", modeled[2] > modeled[1]);

  if (wants_run_artifacts(cli)) {
    const auto traced = traced_rerun([&] {
      return parix::spmd_run(config, [&](parix::Proc& proc) {
        auto a = array_create<double>(proc, 1, Size{elems},
                                      [](Index ix) { return ix[0] * 0.5; });
        array_map([](double v) { return v * 1.0001 + 1.0; }, a, a);
        array_fold([](double v, Index) { return v; }, skil::fn::plus, a);
      });
    });
    write_run_artifacts(cli, traced,
                        "instantiation_p" + std::to_string(p) + "_e" +
                            std::to_string(elems));
  }
  return 0;
}
