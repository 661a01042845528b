// Tests for the collective operations over every topology kind.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "parix/collectives.h"
#include "parix/runtime.h"

namespace {

using namespace skil::parix;

struct Case {
  int nprocs;
  Distr distr;
};

class Collectives : public ::testing::TestWithParam<Case> {};

TEST_P(Collectives, BroadcastReachesEveryProcessorFromEveryRoot) {
  const auto [p, distr] = GetParam();
  RunConfig config{p, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    for (int root = 0; root < proc.nprocs(); ++root) {
      int value = proc.id() == root ? 1000 + root : -1;
      broadcast(proc, topo, root, value);
      EXPECT_EQ(value, 1000 + root);
    }
  });
}

TEST_P(Collectives, ReduceSumsToRoot) {
  const auto [p, distr] = GetParam();
  RunConfig config{p, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    const int expected = p * (p - 1) / 2;
    for (int root = 0; root < std::min(p, 4); ++root) {
      const int result = reduce(proc, topo, root, proc.id(),
                                [](int a, int b) { return a + b; });
      if (proc.id() == root) {
        EXPECT_EQ(result, expected);
      }
    }
  });
}

TEST_P(Collectives, AllreduceGivesEveryoneTheResult) {
  const auto [p, distr] = GetParam();
  RunConfig config{p, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    const int maxed = allreduce(proc, topo, proc.id() * 3,
                                [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(maxed, (p - 1) * 3);
  });
}

TEST_P(Collectives, ScanComputesInclusivePrefixInVrankOrder) {
  const auto [p, distr] = GetParam();
  RunConfig config{p, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    const int vrank = topo.vrank_of(proc.id());
    const int prefix = scan_inclusive(proc, topo, vrank + 1,
                                      [](int a, int b) { return a + b; });
    EXPECT_EQ(prefix, (vrank + 1) * (vrank + 2) / 2);
  });
}

TEST_P(Collectives, GatherCollectsInVrankOrder) {
  const auto [p, distr] = GetParam();
  RunConfig config{p, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    const int root = topo.hw_of(p - 1);
    const auto all =
        gather(proc, topo, root, 100 + topo.vrank_of(proc.id()));
    if (proc.id() == root) {
      ASSERT_EQ(static_cast<int>(all.size()), p);
      for (int v = 0; v < p; ++v) EXPECT_EQ(all[v], 100 + v);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(Collectives, AllgatherGivesEveryoneEverything) {
  const auto [p, distr] = GetParam();
  RunConfig config{p, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    const auto all = allgather(proc, topo, topo.vrank_of(proc.id()) * 2);
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int v = 0; v < p; ++v) EXPECT_EQ(all[v], 2 * v);
  });
}

TEST_P(Collectives, AllToAllDeliversPersonalisedPayloads) {
  const auto [p, distr] = GetParam();
  RunConfig config{p, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    const int me = topo.vrank_of(proc.id());
    std::vector<int> outgoing(p);
    for (int v = 0; v < p; ++v) outgoing[v] = me * 1000 + v;
    const auto incoming = all_to_all(proc, topo, std::move(outgoing));
    ASSERT_EQ(static_cast<int>(incoming.size()), p);
    for (int v = 0; v < p; ++v) EXPECT_EQ(incoming[v], v * 1000 + me);
  });
}

TEST_P(Collectives, RingShiftMovesPayloadOneStep) {
  const auto [p, distr] = GetParam();
  RunConfig config{p, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    const int vrank = topo.vrank_of(proc.id());
    const int received = ring_shift(proc, topo, vrank);
    EXPECT_EQ(received, (vrank + p - 1) % p);
  });
}

TEST_P(Collectives, BarrierSynchronisesVirtualClocks) {
  const auto [p, distr] = GetParam();
  if (p == 1) return;
  RunConfig config{p, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) {
    const Topology topo(proc.machine(), distr);
    const double straggler = 1e6;  // one slow processor
    if (proc.id() == p / 2) proc.charge_us(straggler);
    barrier(proc, topo);
    EXPECT_GE(proc.vtime(), straggler);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Collectives,
    ::testing::Values(Case{1, Distr::kDefault}, Case{2, Distr::kRing},
                      Case{3, Distr::kDefault}, Case{4, Distr::kTorus2D},
                      Case{5, Distr::kRing}, Case{6, Distr::kTorus2D},
                      Case{7, Distr::kDefault}, Case{8, Distr::kHypercube},
                      Case{9, Distr::kTorus2D}, Case{12, Distr::kRing},
                      Case{16, Distr::kTorus2D}, Case{16, Distr::kHypercube},
                      Case{25, Distr::kTorus2D}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = "p";
      name += std::to_string(info.param.nprocs);
      name += "_";
      name += std::string(distr_name(info.param.distr)).substr(6);
      return name;
    });

/// p and engine of the vector broadcasts below.
struct EngineCase {
  int p;
  ExecutionEngine engine;
};

class BroadcastInto : public ::testing::TestWithParam<EngineCase> {};

TEST_P(BroadcastInto, NonRootVectorsOfAnyLengthEndAsTheRootsContent) {
  const auto [p, engine] = GetParam();
  RunConfig config{p, CostModel::t800()};
  config.engine = engine;
  config.coll = CollMode::kTree;
  spmd_run(config, [p](Proc& proc) {
    const Topology topo(proc.machine(), Distr::kDefault);
    for (int root = 0; root < p; ++root) {
      std::vector<double> content(6 + static_cast<std::size_t>(root % 4));
      for (std::size_t j = 0; j < content.size(); ++j)
        content[j] = (root + 1.0) / static_cast<double>(j + 3);
      // Both broadcast overloads; non-root vectors start empty,
      // shorter or longer than the root's.
      for (const bool hinted : {false, true}) {
        std::vector<double> v = content;
        if (proc.id() != root)
          v.assign(std::vector<std::size_t>{0, 2, 40}[proc.id() % 3], -1.5);
        const double* root_storage = v.data();
        if (hinted)
          broadcast(proc, topo, root, v, content.size() * sizeof(double));
        else
          broadcast(proc, topo, root, v);
        ASSERT_EQ(v.size(), content.size()) << "root " << root;
        EXPECT_EQ(std::memcmp(v.data(), content.data(),
                              content.size() * sizeof(double)),
                  0)
            << "root " << root << (hinted ? ", hinted" : "");
        if (proc.id() == root) {
          EXPECT_EQ(v.data(), root_storage);
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    PerEngine, BroadcastInto,
    ::testing::Values(EngineCase{2, ExecutionEngine::kThreads},
                      EngineCase{3, ExecutionEngine::kThreads},
                      EngineCase{5, ExecutionEngine::kThreads},
                      EngineCase{8, ExecutionEngine::kThreads},
                      EngineCase{64, ExecutionEngine::kThreads},
                      EngineCase{2, ExecutionEngine::kPooled},
                      EngineCase{3, ExecutionEngine::kPooled},
                      EngineCase{5, ExecutionEngine::kPooled},
                      EngineCase{8, ExecutionEngine::kPooled},
                      EngineCase{64, ExecutionEngine::kPooled}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      std::string name = "p";
      name += std::to_string(info.param.p);
      name += info.param.engine == ExecutionEngine::kThreads ? "_threads"
                                                             : "_pooled";
      return name;
    });

TEST(TorusRotate, FullCycleRestoresPayloads) {
  RunConfig config{9, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    const Topology topo(proc.machine(), Distr::kTorus2D);
    int payload = proc.id();
    for (int step = 0; step < topo.grid_cols(); ++step)
      payload = torus_rotate(proc, topo, payload, 0, 1);
    EXPECT_EQ(payload, proc.id());  // went all the way around the row
  });
}

TEST(TorusRotate, SingleStepMovesAlongGridRow) {
  RunConfig config{4, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    const Topology topo(proc.machine(), Distr::kTorus2D);
    const int received = torus_rotate(proc, topo, proc.id(), 0, 1);
    // We sent to the right neighbour, so we received from the left one.
    EXPECT_EQ(received, topo.torus_neighbor(proc.id(), 0, -1));
  });
}

TEST(Collectives, VtimeIsDeterministicUnderContention) {
  auto run_once = [] {
    RunConfig config{16, CostModel::t800()};
    return spmd_run(config, [](Proc& proc) {
      const Topology topo(proc.machine(), Distr::kTorus2D);
      int value = allreduce(proc, topo, proc.id(),
                            [](int a, int b) { return a + b; });
      broadcast(proc, topo, 3, value);
      gather(proc, topo, 0, value);
    });
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.vtime_us, b.vtime_us);
  EXPECT_EQ(a.total.messages_sent, b.total.messages_sent);
  EXPECT_EQ(a.total.bytes_sent, b.total.bytes_sent);
}

}  // namespace
