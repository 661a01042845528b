// Collective-zoo microbench: per-(collective, algorithm, p, payload)
// virtual times for the size-adaptive collectives in parix/coll.h.
//
// The zoo's claim is twofold: (a) every algorithm family returns
// bit-identical array results (the adaptive selection is free to pick
// any of them), and (b) SKIL_COLL=auto never loses to the fixed tree
// baseline and wins big where the theory says it should -- large
// payloads at large p, where reduce-scatter pipelines beat the
// 2 log p store-and-forward tree.  Both claims are shape-checked here
// per cell.
//
// Usage: bench_coll_micro [--elems=65536] [--csv=path] [--out-dir=dir]
//                         [--metrics-out[=path]] [--trace-out[=path]]
//
// --metrics-out / --trace-out re-run the headline cell (allreduce of
// --elems doubles at p = 64 under SKIL_COLL=auto) traced and export
// its metrics / Chrome trace JSON, including the per-op collective
// counter block.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "parix/collectives.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"

namespace {

using namespace skil;

struct Cell {
  double vtime_us = 0.0;
  std::vector<std::uint64_t> bits;  ///< per-proc result fingerprint
  parix::RunResult run;
};

std::uint64_t fp_bits(std::uint64_t acc, double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return (acc * 1099511628211ULL) ^ u;
}

/// One microbench cell: `op` on p processors under `mode`.
Cell run_cell(const std::string& op, int p, parix::CollMode mode, int elems,
              parix::TraceMode trace = parix::TraceMode::kOff) {
  Cell cell;
  cell.bits.assign(p, 0);
  parix::RunConfig config{p, parix::CostModel::t800()};
  config.coll = mode;
  config.trace = trace;
  cell.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    parix::Topology topo(proc.machine(), parix::Distr::kDefault);
    std::uint64_t fp = 0;
    if (op == "allreduce-elems") {
      // Integer-valued doubles: their sums are exact in FP, so the
      // CollOrder::kExact reassociation contract holds bit-for-bit.
      std::vector<double> v(elems);
      for (int i = 0; i < elems; ++i)
        v[i] = static_cast<double>((proc.id() + 1) * (i % 1021));
      const std::vector<double> out = parix::allreduce_elems(
          proc, topo, std::move(v), [](double a, double b) { return a + b; },
          parix::CollOrder::kExact);
      for (double x : out) fp = fp_bits(fp, x);
    } else if (op == "allreduce-scalar") {
      double v = proc.id() + 1.0;
      for (int i = 0; i < 8; ++i)
        v = parix::allreduce(proc, topo, v,
                             [](double a, double b) { return a + b; });
      fp = fp_bits(fp, v);
    } else if (op == "allgather-scalar") {
      for (int i = 0; i < 8; ++i) {
        const std::vector<double> all =
            parix::allgather(proc, topo, proc.id() + i * 0.5);
        for (double x : all) fp = fp_bits(fp, x);
      }
    } else if (op == "bcast-large") {
      std::vector<double> v;
      if (proc.id() == 0) {
        v.resize(elems);
        for (int i = 0; i < elems; ++i) v[i] = i * 1e-3;
      }
      parix::broadcast(proc, topo, 0, v,
                       static_cast<std::size_t>(elems) * sizeof(double));
      for (double x : v) fp = fp_bits(fp, x);
    } else {
      SKIL_REQUIRE(false, "unknown microbench op: " + op);
    }
    cell.bits[proc.id()] = fp;  // per-proc slot, no race
  });
  cell.vtime_us = cell.run.vtime_us;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace skil;
  using namespace skil::bench;

  const support::Cli cli =
      parse_cli(argc, argv, {"elems", "csv", "out-dir", "metrics-out",
                             "trace-out"});
  const int elems = count_flag(cli, "elems", 65536);

  banner("collective zoo -- vtime per (op, algorithm, p); payload " +
         std::to_string(elems) + " doubles where applicable");

  const parix::CollMode kModes[] = {
      parix::CollMode::kTree, parix::CollMode::kRing, parix::CollMode::kRd,
      parix::CollMode::kAuto};
  const std::string kOps[] = {"allreduce-elems", "allreduce-scalar",
                              "allgather-scalar", "bcast-large"};
  const int kProcs[] = {16, 48, 64};

  support::Table table({"op", "p", "tree [s]", "ring [s]", "rd [s]",
                        "auto [s]", "tree/auto"});
  support::CsvWriter csv(out_path(cli, "csv", "bench_coll_micro.csv"),
                         {"op", "p", "mode", "seconds", "speedup_vs_tree"});

  bool auto_never_loses = true;
  bool bits_identical = true;
  double headline_ratio = 0.0;
  for (const std::string& op : kOps) {
    for (int p : kProcs) {
      double vtimes[4] = {};
      std::vector<std::uint64_t> baseline_bits;
      for (int m = 0; m < 4; ++m) {
        const Cell cell = run_cell(op, p, kModes[m], elems);
        vtimes[m] = cell.vtime_us;
        if (m == 0)
          baseline_bits = cell.bits;
        else if (cell.bits != baseline_bits)
          bits_identical = false;
        csv.add_row({op, std::to_string(p),
                     std::string(parix::coll_mode_name(kModes[m])),
                     support::fmt_fixed(cell.vtime_us * 1e-6, 5),
                     support::fmt_fixed(vtimes[0] / cell.vtime_us, 4)});
      }
      const double ratio = vtimes[0] / vtimes[3];
      if (vtimes[3] > vtimes[0] * 1.0001) auto_never_loses = false;
      if (op == "allreduce-elems" && p == 64) headline_ratio = ratio;
      table.add_row({op, std::to_string(p), secs(vtimes[0], 3),
                     secs(vtimes[1], 3), secs(vtimes[2], 3),
                     secs(vtimes[3], 3), support::fmt_fixed(ratio, 2)});
    }
    table.add_separator();
  }
  table.print();

  std::printf("\nshape checks (see EXPERIMENTS.md):\n");
  shape_check("array results bit-identical across all SKIL_COLL modes",
              bits_identical);
  shape_check("auto never loses to the tree baseline", auto_never_loses);
  shape_check("auto >= 1.5x faster than tree for the large allreduce at "
              "p = 64 (measured " +
                  support::fmt_fixed(headline_ratio, 2) + "x)",
              headline_ratio >= 1.5);

  if (wants_run_artifacts(cli)) {
    const Cell traced = run_cell("allreduce-elems", 64, parix::CollMode::kAuto,
                                 elems, parix::TraceMode::kFull);
    write_run_artifacts(cli, traced.run, "coll_allreduce_p64_auto");
  }
  return 0;
}
