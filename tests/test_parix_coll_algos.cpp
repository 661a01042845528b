// Differential tests for the collective algorithm zoo
// (parix/coll.h, parix/collectives.h; DESIGN.md section 15).
//
// The zoo's contract has three legs, each pinned here:
//   1. Results: every (collective, algorithm family, embedding, p)
//      combination returns exactly what a naive oracle computes --
//      bit-identical across SKIL_COLL modes, including order-sensitive
//      FP operators (scalar allreduce replays the binomial-tree
//      bracketing; elementwise allreduce falls back to the tree unless
//      the caller declares CollOrder::kExact).
//   2. Virtual times: each algorithm's communication schedule is a
//      deterministic artefact, pinned per (op, algorithm, p) in
//      tests/goldens/vtimes.json (the goldens.* ctest entries).
//   3. Sub-communicators: split_rows/split_cols renumber ranks, keep
//      disjoint tag streams, and never cross-match concurrent row and
//      column collectives.
// SKIL_COLL=auto's pick rests on leg 2: its dry run must equal the
// real call across the whole grid (CollDryRunGrid, which covers every
// pinned case), and its decisions are pinned below.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "goldens/pinned_runs.h"
#include "parix/collectives.h"
#include "parix/runtime.h"

namespace {

using namespace skil::parix;

constexpr CollMode kAllModes[] = {CollMode::kTree, CollMode::kRing,
                                  CollMode::kRd, CollMode::kAuto};

/// An order-sensitive double per virtual rank: summing these in a
/// different bracketing changes the rounding, so bitwise agreement
/// across algorithm families proves they replay the same combine
/// order, not just "roughly the same sum".
double fuzz_value(int vrank, int salt) {
  const double x = 1.0 + 0.1 * vrank + 1e-4 * vrank * vrank;
  return x + 1e-9 * salt * (vrank % 7);
}

struct Case {
  int nprocs;
  Distr distr;
};

// Non-powers-of-two are first-class: the ring and Bruck algorithms
// must handle them, and Rabenseifner must fall back to the tree.
const Case kCases[] = {
    {2, Distr::kRing},      {3, Distr::kDefault},  {5, Distr::kRing},
    {7, Distr::kDefault},   {8, Distr::kHypercube}, {12, Distr::kTorus2D},
    {16, Distr::kTorus2D},  {31, Distr::kDefault}, {32, Distr::kHypercube},
    {48, Distr::kTorus2D},  {64, Distr::kHypercube},
};

class CollAlgos : public ::testing::TestWithParam<Case> {};

TEST_P(CollAlgos, ScalarAllreduceBitIdenticalAcrossModesForAnyOperator) {
  const auto [p, distr] = GetParam();
  const auto op = [](double a, double b) { return a + b; };
  // Naive oracle: the documented combine order is the binomial-tree
  // bracketing over virtual ranks, replayed here sequentially.
  std::vector<double> contributions(p);
  for (int v = 0; v < p; ++v) contributions[v] = fuzz_value(v, 1);
  const double expected =
      coll_detail::fold_tree_bracketing(contributions, op);

  for (CollMode mode : kAllModes) {
    std::vector<double> results(p);
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), distr);
      const double local = fuzz_value(topo.vrank_of(proc.id()), 1);
      results[proc.id()] = allreduce(proc, topo, local, op);
    });
    for (int id = 0; id < p; ++id)
      EXPECT_EQ(results[id], expected)
          << "mode " << coll_mode_name(mode) << " proc " << id;
  }
}

TEST_P(CollAlgos, AllgatherMatchesVrankOrderOracleInEveryMode) {
  const auto [p, distr] = GetParam();
  std::vector<double> oracle(p);
  for (int v = 0; v < p; ++v) oracle[v] = fuzz_value(v, 2);

  for (CollMode mode : kAllModes) {
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), distr);
      const auto all = allgather(
          proc, topo, fuzz_value(topo.vrank_of(proc.id()), 2));
      ASSERT_EQ(all.size(), oracle.size());
      for (int v = 0; v < p; ++v)
        EXPECT_EQ(all[v], oracle[v])
            << "mode " << coll_mode_name(mode) << " vrank " << v;
    });
  }
}

TEST_P(CollAlgos, HintedBroadcastDeliversRootBufferInEveryMode) {
  const auto [p, distr] = GetParam();
  const int n = 1000;  // not divisible by the chunk count
  std::vector<double> oracle(n);
  for (int i = 0; i < n; ++i) oracle[i] = fuzz_value(i % 97, 3);

  for (CollMode mode : kAllModes) {
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), distr);
      const int root = topo.hw_of(p / 2);
      std::vector<double> v;
      if (proc.id() == root) v = oracle;
      broadcast(proc, topo, root, v, n * sizeof(double));
      EXPECT_EQ(v, oracle) << "mode " << coll_mode_name(mode);
    });
  }
}

TEST_P(CollAlgos, ExactElementwiseAllreduceMatchesOracleInEveryMode) {
  const auto [p, distr] = GetParam();
  const int n = 513;  // not divisible by p, exercises ragged segments
  // Integer-valued doubles: the elementwise sums are exact in FP, so
  // the CollOrder::kExact reassociation contract holds bit-for-bit.
  std::vector<double> oracle(n, 0.0);
  for (int v = 0; v < p; ++v)
    for (int i = 0; i < n; ++i)
      oracle[i] += static_cast<double>((v + 1) * (i % 251));

  for (CollMode mode : kAllModes) {
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), distr);
      std::vector<double> local(n);
      const int v = topo.vrank_of(proc.id());
      for (int i = 0; i < n; ++i)
        local[i] = static_cast<double>((v + 1) * (i % 251));
      const auto out = allreduce_elems(
          proc, topo, std::move(local),
          [](double a, double b) { return a + b; }, CollOrder::kExact);
      EXPECT_EQ(out, oracle) << "mode " << coll_mode_name(mode);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CollAlgos, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "p" + std::to_string(info.param.nprocs) + "_" +
             std::string(distr_name(info.param.distr)).substr(6);
    });

// --- commutativity-sensitive fuzz -----------------------------------

TEST(CollOrderContract, ChainOnlyForcesTreeAndCountsFallbacks) {
  const int p = 16;
  const int n = 4096;  // large enough that kAuto would reassociate
  std::vector<double> tree_result;
  for (CollMode mode : kAllModes) {
    std::vector<double> result;
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    const RunResult run = spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kDefault);
      std::vector<double> local(n);
      for (int i = 0; i < n; ++i)
        local[i] = fuzz_value(topo.vrank_of(proc.id()), i % 31);
      // Default order: kChainOnly.  The FP rounding of the tree's
      // combine bracketing is part of the result.
      const auto out = allreduce_elems(
          proc, topo, std::move(local),
          [](double a, double b) { return a + b; });
      if (proc.id() == 0) result = out;
    });
    const int t = static_cast<int>(CollAlgo::kTree);
    const int ar = static_cast<int>(CollOp::kAllreduce);
    EXPECT_EQ(run.coll.calls[ar][t], static_cast<std::uint64_t>(p))
        << coll_mode_name(mode);
    for (int a = 1; a < kNumCollAlgos; ++a)
      EXPECT_EQ(run.coll.calls[ar][a], 0u)
          << coll_mode_name(mode) << " picked "
          << coll_algo_name(static_cast<CollAlgo>(a));
    // One counted fallback per processor whenever a reassociating
    // family was asked for but the operator forbids it.
    const std::uint64_t expected_fallbacks =
        mode == CollMode::kTree ? 0u : static_cast<std::uint64_t>(p);
    EXPECT_EQ(run.coll.order_fallbacks, expected_fallbacks)
        << coll_mode_name(mode);
    if (mode == CollMode::kTree)
      tree_result = result;
    else
      EXPECT_EQ(result, tree_result) << coll_mode_name(mode);
  }
}

TEST(CollOrderContract, ElementwiseAllreduceRejectsUnequalLengths) {
  // Contributions of different lengths are a caller error under every
  // family: each checks the size of what it receives rather than
  // writing past the shorter vector.
  for (CollMode mode : {CollMode::kTree, CollMode::kRing, CollMode::kRd}) {
    RunConfig config{2, CostModel::t800()};
    config.coll = mode;
    EXPECT_THROW(spmd_run(config,
                          [](Proc& proc) {
                            const Topology topo(proc.machine(),
                                                Distr::kDefault);
                            allreduce_elems(
                                proc, topo,
                                std::vector<int>(proc.id() == 0 ? 4 : 6, 1),
                                [](int a, int b) { return a + b; },
                                CollOrder::kExact);
                          }),
                 skil::support::Error)
        << coll_mode_name(mode);
  }
}

// --- counters --------------------------------------------------------

TEST(CollCounters, AttributeCallsBytesHopsAndStepsPerAlgorithm) {
  const int p = 8;
  const int ag = static_cast<int>(CollOp::kAllgather);
  struct Expect {
    CollMode mode;
    CollAlgo algo;
  };
  for (const auto& [mode, algo] : {Expect{CollMode::kTree, CollAlgo::kTree},
                                   Expect{CollMode::kRing, CollAlgo::kRing},
                                   Expect{CollMode::kRd,
                                          CollAlgo::kRecDouble}}) {
    RunConfig config{p, CostModel::t800()};
    config.coll = mode;
    const RunResult run = spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kRing);
      (void)allgather(proc, topo, proc.id() * 1.5);
    });
    EXPECT_EQ(run.coll.calls[ag][static_cast<int>(algo)],
              static_cast<std::uint64_t>(p))
        << coll_mode_name(mode);
    EXPECT_EQ(run.coll.calls_for(algo), run.coll.total_calls())
        << coll_mode_name(mode) << ": every call should resolve to "
        << coll_algo_name(algo);
    if (mode == CollMode::kRing) {
      // p-1 pass-around steps per processor, one payload per step.
      EXPECT_EQ(run.coll.steps[ag], static_cast<std::uint64_t>(p * (p - 1)));
      EXPECT_GT(run.coll.bytes[ag], 0u);
      // Every counted edge is at least one physical hop.
      EXPECT_GE(run.coll.hops[ag], run.coll.steps[ag]);
    }
  }
}

// --- per-algorithm vtimes -------------------------------------------
//
// Each algorithm's communication schedule -- the artefact the cost
// model prices -- is pinned per (op, algorithm, p) in
// tests/goldens/vtimes.json; the cases' bodies live with the list of
// pinned runs (tests/goldens/pinned_runs.h).

using skil::goldens::coll_allreduce_elems;

TEST(CollAlgoGoldens, ReassociatingFamiliesBeatTheTreeAtThisSize) {
  // The reason the zoo exists: at 32 KB payloads on 16 processors the
  // reduce-scatter pipelines are well under the 2 log p tree.
  const auto vtime = [](CollMode mode) {
    return coll_allreduce_elems(mode, 16, Distr::kDefault).vtime_us;
  };
  const double tree = vtime(CollMode::kTree);
  const double ring = vtime(CollMode::kRing);
  const double raben = vtime(CollMode::kRd);
  const double adaptive = vtime(CollMode::kAuto);
  EXPECT_LT(ring, tree);
  EXPECT_LT(raben, tree);
  // auto picks the best of the three estimates.
  EXPECT_LE(adaptive, std::min({tree, ring, raben}) * 1.0001);
}

// --- SKIL_COLL=auto decisions ---------------------------------------
//
// auto keeps the tree unless another algorithm is no worse on both one
// isolated call's completion time and the busiest member's per-call
// gap (collectives.h, "kAuto selection").  The completion term is a
// dry run of the call, so it must reproduce the runtime's vtime bit
// for bit; the decisions below are the ones the paper's Table 2 and
// the zoo's benches depend on.

using coll_detail::PickSite;

CollPickKey pick_key(PickSite site, std::uint64_t size, std::uint32_t elem,
                     Op kind = Op::kIntOp) {
  CollPickKey key;
  key.site = static_cast<std::uint8_t>(site);
  key.size = size;
  key.elem = elem;
  key.kind = static_cast<std::uint8_t>(kind);
  return key;
}

std::uint64_t schedule_sends(const coll_detail::Schedule& s) {
  std::uint64_t sends = 0;
  for (int m = 0; m < s.members(); ++m)
    for (const coll_detail::DryStep* st = s.begin(m); st != s.end(m); ++st)
      sends += st->kind == coll_detail::DryStep::kSend;
  return sends;
}

// One isolated call of every site and algorithm auto prices, at every
// p and embedding, over payload sizes and roots: the dry run must equal
// the real call's vtime bit for bit and send the same messages.  Roots
// away from vrank 0 shift every edge of a rooted call.

class CollDryRunGrid : public ::testing::TestWithParam<int> {
 protected:
  /// Runs `call` alone under the mode that forces `algo` and checks the
  /// dry run of `key` rooted at virtual rank `vroot` against it.
  template <class Call>
  void check(Distr distr, const CollPickKey& key, CollAlgo algo, int vroot,
             const Call& call) {
    const int p = GetParam();
    RunConfig config{p, CostModel::t800()};
    config.coll = algo == CollAlgo::kTree   ? CollMode::kTree
                  : algo == CollAlgo::kRing ? CollMode::kRing
                                            : CollMode::kRd;
    const RunResult run = spmd_run(config, [&](Proc& proc) {
      call(proc, Topology(proc.machine(), distr));
    });
    const Machine machine(p, config.cost);
    const Topology topo(machine, distr);
    const coll_detail::Schedule s =
        coll_detail::schedule_for(key, algo, p, machine.cost());
    const std::string what = std::string(distr_name(distr)) + " site " +
                             std::to_string(key.site) + " " +
                             std::string(coll_algo_name(algo)) + " size " +
                             std::to_string(key.size) + " root " +
                             std::to_string(vroot);
    EXPECT_EQ(coll_detail::completion_us(s, topo, machine.cost(), vroot),
              run.vtime_us)
        << what;
    EXPECT_EQ(schedule_sends(s), run.total.messages_sent) << what;
  }

  void check_vector_bcast(Distr distr, CollAlgo algo, std::size_t n,
                          int root) {
    check(distr, pick_key(PickSite::kBcastVector, n, sizeof(double)), algo,
          root, [&](Proc& proc, const Topology& topo) {
            std::vector<double> v;
            if (proc.id() == topo.hw_of(root)) v.assign(n, 2.5);
            broadcast(proc, topo, topo.hw_of(root), v, n * sizeof(double));
          });
  }
};

TEST_P(CollDryRunGrid, CompletionAndSendsEqualTheRealCall) {
  const int p = GetParam();
  const auto plus = [](double a, double b) { return a + b; };
  for (const Distr distr : {Distr::kDefault, Distr::kRing, Distr::kTorus2D,
                            Distr::kHypercube}) {
    if (distr == Distr::kHypercube && !coll_detail::is_pow2(p)) continue;
    for (const CollAlgo algo : {CollAlgo::kTree, CollAlgo::kRing}) {
      for (const int root : {0, p / 2, p - 1}) {
        for (const std::size_t n : {1, 17, 641, 8192})
          check_vector_bcast(distr, algo, n, root);
        check(distr, pick_key(PickSite::kBcastValue, sizeof(double), 0), algo,
              root, [&](Proc& proc, const Topology& topo) {
                double x = proc.id() == topo.hw_of(root) ? 2.5 : 0.0;
                broadcast(proc, topo, topo.hw_of(root), x);
              });
      }
    }
    for (const CollAlgo algo :
         {CollAlgo::kTree, CollAlgo::kRing, CollAlgo::kRecDouble}) {
      check(distr, pick_key(PickSite::kAllgather, sizeof(double), 0), algo, 0,
            [](Proc& proc, const Topology& topo) {
              (void)allgather(proc, topo, proc.id() + 0.5);
            });
      check(distr, pick_key(PickSite::kAllreduce, sizeof(double), 0), algo, 0,
            [&](Proc& proc, const Topology& topo) {
              (void)allreduce(proc, topo, proc.id() + 0.5, plus);
            });
    }
    std::vector<CollAlgo> elems_algos = {CollAlgo::kTree, CollAlgo::kRing};
    if (coll_detail::is_pow2(p)) elems_algos.push_back(CollAlgo::kRabenseifner);
    for (const CollAlgo algo : elems_algos) {
      for (const std::size_t n : {1, 513, 4096}) {
        check(distr,
              pick_key(PickSite::kAllreduceElems, n, sizeof(double),
                       Op::kFloatOp),
              algo, 0, [&](Proc& proc, const Topology& topo) {
                (void)allreduce_elems(proc, topo,
                                      std::vector<double>(n, proc.id() + 1.0),
                                      plus, CollOrder::kExact);
              });
      }
    }
  }
  if (p == 16) {
    for (const CollAlgo algo : {CollAlgo::kTree, CollAlgo::kRing})
      for (const int root : {5, 11})
        check_vector_bcast(Distr::kTorus2D, algo, 1000, root);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryP, CollDryRunGrid,
    ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 48, 64),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = "p";
      name += std::to_string(info.param);
      return name;
    });

TEST(CollAutoDryRun, GapTermMatchesTheLargeBroadcastArithmetic) {
  // 512 KB from one root at p = 64: every ring forwarder streams 16
  // chunks, four per link channel; the tree's root sends six whole
  // buffers, two on its busiest channel.
  const CostModel cost = CostModel::t800();
  const CollPickKey key =
      pick_key(PickSite::kBcastVector, 65536, sizeof(double));
  const double ring = coll_detail::gap_us(
      coll_detail::schedule_for(key, CollAlgo::kRing, 64, cost), cost);
  const double tree = coll_detail::gap_us(
      coll_detail::schedule_for(key, CollAlgo::kTree, 64, cost), cost);
  EXPECT_EQ(ring, 4 * (cost.msg_per_byte_us * (65536 / 16 * 8 + 8)));
  EXPECT_EQ(tree, 2 * (cost.msg_per_byte_us * (65536 * 8 + 8)));
  // A 5 KB pivot row: the ring's 16 x (startup + receive overhead)
  // per forwarder dwarfs the tree's busiest member.
  const CollPickKey row = pick_key(PickSite::kBcastVector, 641, sizeof(double));
  EXPECT_EQ(coll_detail::gap_us(
                coll_detail::schedule_for(row, CollAlgo::kRing, 64, cost),
                cost),
            16 * (cost.msg_startup_us + cost.recv_overhead_us));
  EXPECT_LT(coll_detail::gap_us(
                coll_detail::schedule_for(row, CollAlgo::kTree, 64, cost),
                cost),
            16 * (cost.msg_startup_us + cost.recv_overhead_us));
}

/// Processor 0 of a p-node machine under SKIL_COLL=auto, for calling
/// the pick functions directly.
struct AutoPicker {
  explicit AutoPicker(int p, CostModel cost = CostModel::t800())
      : machine(p, cost),
        proc(machine, 0),
        topo(machine, Distr::kDefault) {
    proc.set_coll_mode(CollMode::kAuto);
  }
  Machine machine;
  Proc proc;
  Topology topo;
};

TEST(CollAutoPick, Table2PivotRowsTakeTheTree) {
  // Skil's piv partition and C's pivot row are both one full row of
  // the padded extended system: (gauss_round_up(n, p) + 1) doubles.
  for (int p : {4, 16, 32, 64}) {
    AutoPicker ap(p);
    for (int n : {64, 128, 256, 384, 512, 640}) {
      const int width = (n + p - 1) / p * p + 1;
      for (int root = 0; root < p; ++root)
        EXPECT_EQ(coll_detail::pick_broadcast(ap.proc, ap.topo, root,
                                              width * sizeof(double),
                                              sizeof(double)),
                  CollAlgo::kTree)
            << "p " << p << " n " << n << " root " << root;
    }
  }
}

TEST(CollAutoPick, LargeBroadcastsKeepThePipelinedRing) {
  for (int p : {16, 48, 64}) {
    AutoPicker ap(p);
    EXPECT_EQ(coll_detail::pick_broadcast(ap.proc, ap.topo, 0,
                                          65536 * sizeof(double),
                                          sizeof(double)),
              CollAlgo::kRing)
        << "p " << p;
  }
}

TEST(CollAutoPick, SelectionStateIsPerRun) {
  // Free message software makes the ring's 16 small chunks cheaper
  // than the tree root's six whole rows, so that machine pipelines a
  // pivot row.  Its pick must not leak into a T800 run of the same
  // key, which keeps the tree.
  CostModel free_software = CostModel::t800();
  free_software.msg_startup_us = 0.0;
  free_software.recv_overhead_us = 0.0;
  const std::size_t row = 641 * sizeof(double);
  AutoPicker cheap(64, free_software);
  EXPECT_EQ(coll_detail::pick_broadcast(cheap.proc, cheap.topo, 0, row,
                                        sizeof(double)),
            CollAlgo::kRing);
  AutoPicker t800(64);
  EXPECT_EQ(coll_detail::pick_broadcast(t800.proc, t800.topo, 0, row,
                                        sizeof(double)),
            CollAlgo::kTree);
}

TEST(CollAutoPick, ScalarAllreduceKeepsBruck) {
  // Bruck's ceil(log2 p) rounds cost every member what the tree's root
  // pays (equal gap) and finish sooner.
  for (int p : {8, 16, 64}) {
    AutoPicker ap(p);
    EXPECT_EQ(coll_detail::pick_allreduce<double>(ap.proc, ap.topo),
              CollAlgo::kRecDouble)
        << "p " << p;
  }
}

TEST(CollAutoPick, ExactElementwiseAllreduceKeepsRabenseifner) {
  AutoPicker ap(16);
  EXPECT_EQ(coll_detail::pick_allreduce_elems(ap.proc, ap.topo, 4096,
                                              sizeof(double), Op::kFloatOp,
                                              CollOrder::kExact),
            CollAlgo::kRabenseifner);
}

TEST(CollAlgoGoldens, VtimeIsDeterministicPerMode) {
  for (CollMode mode : kAllModes) {
    const RunResult a = coll_allreduce_elems(mode, 12, Distr::kTorus2D);
    const RunResult b = coll_allreduce_elems(mode, 12, Distr::kTorus2D);
    EXPECT_EQ(a.vtime_us, b.vtime_us) << coll_mode_name(mode);
    EXPECT_EQ(a.total.messages_sent, b.total.messages_sent);
    EXPECT_EQ(a.total.bytes_sent, b.total.bytes_sent);
  }
}

// --- sub-communicators ----------------------------------------------

TEST(SplitComm, RowsAndColumnsRenumberRanksAndKeepDistinctIds) {
  RunConfig config{16, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    const Topology topo(proc.machine(), Distr::kTorus2D);
    const Topology row = topo.split_rows(proc.id());
    const Topology col = topo.split_cols(proc.id());
    const int my_row = topo.vrank_of(proc.id()) / topo.grid_cols();
    const int my_col = topo.vrank_of(proc.id()) % topo.grid_cols();

    EXPECT_EQ(row.nprocs(), topo.grid_cols());
    EXPECT_EQ(col.nprocs(), topo.grid_rows());
    EXPECT_EQ(row.vrank_of(proc.id()), my_col);
    EXPECT_EQ(col.vrank_of(proc.id()), my_row);
    EXPECT_TRUE(row.is_subgroup());
    EXPECT_NE(row.comm_id(), col.comm_id());
    EXPECT_EQ(row.comm_id(), 1 + my_row);
    EXPECT_EQ(col.comm_id(), 1 + topo.grid_rows() + my_col);
    for (int hw = 0; hw < 16; ++hw) {
      const int r = topo.vrank_of(hw) / topo.grid_cols();
      EXPECT_EQ(row.contains(hw), r == my_row) << "hw " << hw;
    }
  });
}

TEST(SplitComm, ConcurrentRowAndColumnCollectivesNeverCrossMatch) {
  // Every processor interleaves collectives on its row and column
  // subgroups.  The disjoint per-communicator tag streams are what
  // keeps a row message from satisfying a column recv -- under every
  // algorithm family, including the multi-step ring/Bruck schedules.
  for (CollMode mode : kAllModes) {
    RunConfig config{16, CostModel::t800()};
    config.coll = mode;
    spmd_run(config, [&](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kTorus2D);
      const Topology row = topo.split_rows(proc.id());
      const Topology col = topo.split_cols(proc.id());
      const int my_row = topo.vrank_of(proc.id()) / topo.grid_cols();
      const int my_col = topo.vrank_of(proc.id()) % topo.grid_cols();

      const int row_sum = allreduce(proc, row, 1 << topo.vrank_of(proc.id()),
                                    [](int a, int b) { return a + b; });
      const int col_sum = allreduce(proc, col, 1 << topo.vrank_of(proc.id()),
                                    [](int a, int b) { return a + b; });
      // Expected: sum of 2^vrank over the row (resp. column) members.
      int expect_row = 0, expect_col = 0;
      for (int c = 0; c < topo.grid_cols(); ++c)
        expect_row += 1 << (my_row * topo.grid_cols() + c);
      for (int r = 0; r < topo.grid_rows(); ++r)
        expect_col += 1 << (r * topo.grid_cols() + my_col);
      EXPECT_EQ(row_sum, expect_row) << coll_mode_name(mode);
      EXPECT_EQ(col_sum, expect_col) << coll_mode_name(mode);

      // A hinted panel broadcast on each, SUMMA-style, from the
      // diagonal member.
      std::vector<double> panel;
      if (my_col == my_row) panel.assign(256, 10.0 * my_row + 1.0);
      broadcast(proc, row, topo.at_grid(my_row, my_row), panel,
                256 * sizeof(double));
      ASSERT_EQ(panel.size(), 256u);
      EXPECT_EQ(panel[0], 10.0 * my_row + 1.0) << coll_mode_name(mode);

      const auto col_ids = allgather(proc, col, proc.id());
      ASSERT_EQ(static_cast<int>(col_ids.size()), topo.grid_rows());
      for (int r = 0; r < topo.grid_rows(); ++r)
        EXPECT_EQ(col_ids[r], topo.at_grid(r, my_col));
    });
  }
}

TEST(SplitComm, SubgroupVtimeIsDeterministicAcrossRuns) {
  auto run_once = [] {
    RunConfig config{16, CostModel::t800()};
    config.coll = CollMode::kAuto;
    return spmd_run(config, [](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kTorus2D);
      const Topology row = topo.split_rows(proc.id());
      const Topology col = topo.split_cols(proc.id());
      std::vector<double> v(512, proc.id() + 1.0);
      v = allreduce_elems(proc, row, std::move(v),
                          [](double a, double b) { return a + b; },
                          CollOrder::kExact);
      v = allreduce_elems(proc, col, std::move(v),
                          [](double a, double b) { return a + b; },
                          CollOrder::kExact);
    });
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.vtime_us, b.vtime_us);
  EXPECT_EQ(a.total.messages_sent, b.total.messages_sent);
}

}  // namespace
