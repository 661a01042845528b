// The runs whose virtual times tests/goldens/vtimes.json pins, in file
// order.  skil-goldens reruns every one of them; the tests that need a
// pinned run's body take it from here, so the list lives in one place.
//
//  * paper Table 2: Gauss without pivoting as Skil, DPFL and C, p in
//    {4, 16, 32, 64} x n in {64, ..., 640} (bench/gauss_sweep.h), each
//    under fuse off and on and under coll auto and tree;
//  * paper Table 1: shortest paths at n = 200, Skil and the old C at
//    every p from 2x2 to 8x8, DPFL on the even grids
//    (bench_table1_shpaths);
//  * 16 small cells (p <= 16, n <= 128) under coll tree, fuse off and
//    on, which also pin every processor's vtime and Stats.  Nine of
//    them are Table-2 tree twins;
//  * SUMMA and the Jacobi stencil under coll tree and auto;
//  * one isolated collective per algorithm family.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/gauss.h"
#include "apps/matmul.h"
#include "apps/shortest_paths.h"
#include "apps/stencil_jacobi.h"
#include "gauss_sweep.h"
#include "parix/charge_tape.h"
#include "parix/coll.h"
#include "parix/collectives.h"
#include "parix/runtime.h"

namespace skil::goldens {

/// Table 1's graph seed (bench_table1_shpaths); every other run uses
/// kSeed (bench_table2_gauss's).
inline constexpr std::uint64_t kTable1Seed = 20260704;
inline constexpr std::uint64_t kSeed = 19960528;

struct PinnedRun {
  /// The JSON members that name the run in the file; fuse and coll
  /// come last and are the modes the run takes.
  std::string key;
  parix::FuseMode fuse;
  parix::CollMode coll;
  /// Whether the entry also pins every processor's vtime and Stats.
  bool per_proc;
  std::function<parix::RunResult()> run;
};

// The collective cases: one isolated call each, under `mode`.

/// An exact elementwise allreduce of 4096 doubles.
inline parix::RunResult coll_allreduce_elems(parix::CollMode mode, int p,
                                             parix::Distr distr) {
  parix::RunConfig config{p, parix::CostModel::t800()};
  config.coll = mode;
  return parix::spmd_run(config, [&](parix::Proc& proc) {
    const parix::Topology topo(proc.machine(), distr);
    std::vector<double> v(4096);
    const int vr = topo.vrank_of(proc.id());
    for (int i = 0; i < 4096; ++i)
      v[i] = static_cast<double>((vr + 1) * (i % 1021));
    (void)parix::allreduce_elems(proc, topo, std::move(v),
                                 [](double a, double b) { return a + b; },
                                 parix::CollOrder::kExact);
  });
}

/// An allgather of one double per processor.
inline parix::RunResult coll_allgather(parix::CollMode mode, int p,
                                       parix::Distr distr) {
  parix::RunConfig config{p, parix::CostModel::t800()};
  config.coll = mode;
  return parix::spmd_run(config, [&](parix::Proc& proc) {
    const parix::Topology topo(proc.machine(), distr);
    (void)parix::allgather(proc, topo, proc.id() + 0.5);
  });
}

/// A broadcast of 8192 doubles from processor 0.
inline parix::RunResult coll_broadcast(parix::CollMode mode, int p,
                                       parix::Distr distr) {
  parix::RunConfig config{p, parix::CostModel::t800()};
  config.coll = mode;
  return parix::spmd_run(config, [&](parix::Proc& proc) {
    const parix::Topology topo(proc.machine(), distr);
    std::vector<double> v;
    if (proc.id() == 0) v.assign(8192, 1.25);
    parix::broadcast(proc, topo, 0, v, 8192 * sizeof(double));
  });
}

inline std::vector<PinnedRun> pinned_runs() {
  using parix::CollMode;
  using parix::FuseMode;
  using Body = std::function<parix::RunResult()>;
  std::vector<PinnedRun> runs;
  const auto add = [&runs](std::string key, FuseMode fuse, CollMode coll,
                           bool per_proc, Body run) {
    key += ", \"fuse\": \"" + std::string(parix::fuse_mode_name(fuse)) +
           "\", \"coll\": \"" + std::string(parix::coll_mode_name(coll)) +
           "\"";
    runs.push_back({std::move(key), fuse, coll, per_proc, std::move(run)});
  };
  const auto name = [](const std::string& app, const std::string& variant,
                       int p, const std::string& size) {
    return "\"app\": \"" + app + "\", \"variant\": \"" + variant +
           "\", \"p\": " + std::to_string(p) + ", " + size;
  };
  const auto n_is = [](int n) { return "\"n\": " + std::to_string(n); };
  // A small cell: coll tree, fuse off and on, per-processor detail.
  const auto small = [&](const std::string& key, Body run) {
    for (FuseMode fuse : {FuseMode::kOff, FuseMode::kOn})
      add(key, fuse, CollMode::kTree, true, run);
  };

  using GaussFn = parix::RunResult (*)(int, int);
  const std::pair<const char*, GaussFn> gauss[] = {
      {"skil",
       [](int p, int n) { return apps::gauss_skil(p, n, kSeed, false).run; }},
      {"dpfl", [](int p, int n) { return apps::gauss_dpfl(p, n, kSeed).run; }},
      {"c", [](int p, int n) { return apps::gauss_c(p, n, kSeed).run; }},
  };
  for (int p : bench::paper_ps())
    for (int n : bench::paper_ns(false))
      for (const auto& [variant, fn] : gauss)
        for (FuseMode fuse : {FuseMode::kOff, FuseMode::kOn})
          for (CollMode coll : {CollMode::kAuto, CollMode::kTree})
            add(name("gauss", variant, p, n_is(n)), fuse, coll,
                coll == CollMode::kTree &&
                    ((p == 4 && n <= 128) || (p == 16 && n == 64)),
                [fn, p, n] { return fn(p, n); });

  for (int q = 2; q <= 8; ++q) {
    const int p = q * q;
    const auto table1 = [&](const char* variant, Body run) {
      add(name("shpaths", variant, p, n_is(200)), FuseMode::kOff,
          CollMode::kAuto, false, std::move(run));
    };
    if (q % 2 == 0) {  // the paper measured DPFL on the even grids
      table1("dpfl",
             [p] { return apps::shpaths_dpfl(p, 200, kTable1Seed).run; });
    }
    table1("skil",
           [p] { return apps::shpaths_skil(p, 200, kTable1Seed).run; });
    table1("c_old", [p] {
      return apps::shpaths_c(p, 200, kTable1Seed, /*optimized=*/false).run;
    });
  }

  for (const auto& [p, n] : {std::pair{4, 32}, std::pair{16, 48}}) {
    small(name("shpaths", "skil", p, n_is(n)),
          [p, n] { return apps::shpaths_skil(p, n, kSeed).run; });
    small(name("shpaths", "dpfl", p, n_is(n)),
          [p, n] { return apps::shpaths_dpfl(p, n, kSeed).run; });
    small(name("shpaths", "c_opt", p, n_is(n)), [p, n] {
      return apps::shpaths_c(p, n, kSeed, /*optimized=*/true).run;
    });
  }
  small(name("gauss", "skil_pivot", 4, n_is(32)),
        [] { return apps::gauss_skil(4, 32, kSeed, /*pivoting=*/true).run; });

  for (CollMode coll : {CollMode::kTree, CollMode::kAuto}) {
    for (const auto& [p, n] : {std::pair{4, 64}, std::pair{16, 96}})
      add(name("matmul", "summa", p, n_is(n)), FuseMode::kOff, coll, false,
          [p, n] { return apps::matmul_summa(p, n, kSeed).run; });
    for (const auto& [p, cells] : {std::pair{8, 256}, std::pair{16, 512}})
      add(name("stencil", "jacobi", p,
               "\"cells\": " + std::to_string(cells) + ", \"steps\": 16"),
          FuseMode::kOff, coll, false,
          [p, cells] { return apps::stencil_jacobi(p, cells, 16).run; });
  }

  using parix::Distr;
  using CollFn = parix::RunResult (*)(CollMode, int, Distr);
  const auto collective = [&](const char* op, CollFn fn, int n,
                              const char* algorithm, CollMode mode, int p,
                              Distr distr) {
    add(std::string("\"app\": \"coll\", \"op\": \"") + op +
            "\", \"algorithm\": \"" + algorithm + "\", \"embedding\": \"" +
            (distr == Distr::kRing ? "ring" : "default") +
            "\", \"p\": " + std::to_string(p) + ", " + n_is(n),
        FuseMode::kOff, mode, false,
        [fn, mode, p, distr] { return fn(mode, p, distr); });
  };
  collective("allreduce_elems", coll_allreduce_elems, 4096, "tree",
             CollMode::kTree, 16, Distr::kDefault);
  collective("allreduce_elems", coll_allreduce_elems, 4096, "ring",
             CollMode::kRing, 16, Distr::kDefault);
  collective("allreduce_elems", coll_allreduce_elems, 4096, "rabenseifner",
             CollMode::kRd, 16, Distr::kDefault);
  collective("allgather", coll_allgather, 1, "tree", CollMode::kTree, 16,
             Distr::kRing);
  collective("allgather", coll_allgather, 1, "ring", CollMode::kRing, 16,
             Distr::kRing);
  collective("allgather", coll_allgather, 1, "rd", CollMode::kRd, 12,
             Distr::kDefault);
  collective("broadcast", coll_broadcast, 8192, "tree", CollMode::kTree, 16,
             Distr::kDefault);
  collective("broadcast", coll_broadcast, 8192, "ring", CollMode::kRing, 16,
             Distr::kDefault);
  return runs;
}

}  // namespace skil::goldens
