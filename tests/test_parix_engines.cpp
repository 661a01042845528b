// Tests for the execution engines: the RunConfig engine override,
// bulk-charge identity, the pooled scheduler's deadlock detection and
// park/wake protocol at several carrier counts, nested runs, and the
// templated spmd_run overload.  That both engines reproduce every
// pinned virtual time is checked by ctest's goldens.defaults and
// goldens.threads (tests/goldens/vtimes.json).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "apps/gauss.h"
#include "apps/shortest_paths.h"
#include "apps/stencil_jacobi.h"
#include "parix/runtime.h"
#include "support/error.h"
#include "with_knobs.h"

namespace {

using namespace skil;
using namespace skil::parix;

using skil::testing::with_carriers;
using skil::testing::with_engine;

// Carrier counts the pooled-scheduler tests run at: one carrier (no
// stealing), two, four, and eight, which exceeds a 4-thread host's
// admission cap so that standby carriers take part.
constexpr int kCarrierCounts[] = {1, 2, 4, 8};

// --- differential determinism ---------------------------------------------

TEST(EngineDifferential, ExplicitRunConfigEngineOverridesDefault) {
  auto body = [](Proc& proc) {
    proc.charge(Op::kFloatOp, 100 * (proc.id() + 1));
    const int next = (proc.id() + 1) % proc.nprocs();
    const int prev = (proc.id() + proc.nprocs() - 1) % proc.nprocs();
    proc.send<double>(next, 1, proc.id() * 1.5);
    proc.recv<double>(prev, 1);
  };
  RunConfig threads_config{6, CostModel::t800(), ExecutionEngine::kThreads};
  RunConfig pooled_config{6, CostModel::t800(), ExecutionEngine::kPooled};
  const RunResult threads = spmd_run(threads_config, body);
  const RunResult pooled = spmd_run(pooled_config, body);
  EXPECT_EQ(threads.proc_vtimes, pooled.proc_vtimes);
}

// --- bulk cost accounting -------------------------------------------------

TEST(ChargeElems, BitIdenticalToPlainCharge) {
  // charge_elems(kind, elems, ops) must equal charge(kind, elems * ops)
  // to the last bit: one multiply, one addition, same order.
  RunConfig config{1, CostModel::t800()};
  const RunResult plain = spmd_run(config, [](Proc& proc) {
    proc.charge(Op::kFloatOp, 37 * 19);
    proc.charge(Op::kIntOp, 1001);
    proc.charge(Op::kCopyWord, 2 * 12345);
  });
  const RunResult bulk = spmd_run(config, [](Proc& proc) {
    proc.charge_elems(Op::kFloatOp, 37, 19);
    proc.charge_elems(Op::kIntOp, 1001);
    proc.charge_elems(Op::kCopyWord, 12345, 2);
  });
  EXPECT_EQ(plain.vtime_us, bulk.vtime_us);
  EXPECT_EQ(plain.total.ops, bulk.total.ops);
  EXPECT_EQ(plain.total.compute_us, bulk.total.compute_us);
}

// --- pooled-engine specifics ----------------------------------------------

TEST(PooledEngine, DetectsAllProcessorsBlockedAsDeadlock) {
  // Both processors wait for a message nobody sends.  The pooled
  // scheduler sees every carrier idle with nothing queued, so every
  // live fiber is parked, and poisons the machine instead of hanging
  // until the mailbox timeout.
  RunConfig config{2, CostModel::t800(), ExecutionEngine::kPooled};
  for (const int carriers : kCarrierCounts) {
    SCOPED_TRACE(carriers);
    EXPECT_THROW(with_carriers(carriers,
                               [&] {
                                 return spmd_run(config, [](Proc& proc) {
                                   proc.recv<int>(1 - proc.id(), 42);
                                 });
                               }),
                 support::RuntimeFault);
  }
}

TEST(PooledEngine, LateSenderIsNotADeadlock) {
  // Processor 0 first collects one message from every other processor,
  // so all of them are parked in recv, then busy-loops on the host
  // before it answers.  Its carrier runs it the whole time, so the
  // other carriers going idle must not call the machine deadlocked.
  const RunConfig threads_config{4, CostModel::t800(),
                                 ExecutionEngine::kThreads};
  const RunConfig pooled_config{4, CostModel::t800(), ExecutionEngine::kPooled};
  const auto body = [](Proc& proc) {
    if (proc.id() == 0) {
      for (int src = 1; src < proc.nprocs(); ++src) proc.recv<int>(src, 1);
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
      while (std::chrono::steady_clock::now() < until) {
      }
      for (int dest = 1; dest < proc.nprocs(); ++dest)
        proc.send<int>(dest, 2, 10 * dest);
    } else {
      proc.send<int>(0, 1, proc.id());
      EXPECT_EQ(proc.recv<int>(0, 2), 10 * proc.id());
    }
  };
  const RunResult threads = spmd_run(threads_config, body);
  for (const int carriers : kCarrierCounts) {
    SCOPED_TRACE(carriers);
    const RunResult pooled =
        with_carriers(carriers, [&] { return spmd_run(pooled_config, body); });
    EXPECT_EQ(pooled.proc_vtimes, threads.proc_vtimes);
  }
}

TEST(PooledEngine, StencilParkWakeStressMatchesThreads) {
  // The stencil parks most: 64 fibers exchange one halo row with each
  // neighbour per step, so every step parks and wakes most of them.
  // Temperatures and per-processor vtimes must equal the threads
  // engine's at every carrier count.
  const auto stencil = [] { return apps::stencil_jacobi(64, 1024, 200); };
  const apps::StencilResult threads =
      with_engine(ExecutionEngine::kThreads, stencil);
  ASSERT_FALSE(threads.temps.empty());
  for (const int carriers : kCarrierCounts) {
    SCOPED_TRACE(carriers);
    const apps::StencilResult pooled = with_carriers(carriers, [&] {
      return with_engine(ExecutionEngine::kPooled, stencil);
    });
    EXPECT_EQ(pooled.temps, threads.temps);
    EXPECT_EQ(pooled.run.proc_vtimes, threads.run.proc_vtimes);
  }
}

TEST(PooledEngine, SurvivesManyMoreProcessorsThanHostThreads) {
  RunConfig config{64, CostModel::t800(), ExecutionEngine::kPooled};
  const RunResult r = spmd_run(config, [](Proc& proc) {
    const int next = (proc.id() + 1) % proc.nprocs();
    const int prev = (proc.id() + proc.nprocs() - 1) % proc.nprocs();
    proc.send<int>(next, 1, proc.id());
    EXPECT_EQ(proc.recv<int>(prev, 1), prev);
  });
  EXPECT_EQ(r.proc_vtimes.size(), 64u);
}

TEST(PooledEngine, NestedSpmdRunFallsBackToThreads) {
  // A body that itself calls spmd_run must not deadlock the pool.
  RunConfig outer{2, CostModel::t800(), ExecutionEngine::kPooled};
  const RunResult r = spmd_run(outer, [](Proc& proc) {
    RunConfig inner{2, CostModel::t800(), ExecutionEngine::kPooled};
    const RunResult nested = spmd_run(inner, [](Proc& inner_proc) {
      inner_proc.charge(Op::kIntOp, 10);
    });
    proc.charge_us(nested.vtime_us);
  });
  EXPECT_GT(r.vtime_us, 0.0);
}

TEST(PooledEngine, NestedRunCountsOnlyItsOwnSettleAndFusion) {
  // Settle and fusion counts live on each Proc and are summed per run,
  // so an outer run reports none of a nested run's counts, and the
  // nested run reports exactly what the same run reports alone.  Both
  // Gauss runs take the threads engine (the nested one falls back to
  // it), so each starts from fresh per-thread settle memos.
  const FuseMode saved = default_fuse_mode();
  set_default_fuse_mode(FuseMode::kOn);
  const auto gauss = [] { return apps::gauss_skil(4, 64, 7, false).run; };
  const RunResult solo = with_engine(ExecutionEngine::kThreads, gauss);
  RunResult inner;
  RunConfig outer{2, CostModel::t800(), ExecutionEngine::kPooled};
  const RunResult r = spmd_run(outer, [&](Proc& proc) {
    if (proc.id() == 0) inner = gauss();
  });
  set_default_fuse_mode(saved);
  EXPECT_EQ(r.settle, SettleCounters{});
  EXPECT_EQ(r.fusion, FusionCounters{});
  EXPECT_GT(solo.settle.closed_runs, 0u);
  EXPECT_GT(solo.fusion.fused, 0u);
  EXPECT_EQ(inner.settle, solo.settle);
  EXPECT_EQ(inner.fusion, solo.fusion);
}

TEST(PooledEngine, RepeatedRunsReuseThePool) {
  // Many small runs exercise fiber recycling; vtimes stay identical.
  RunConfig config{8, CostModel::t800(), ExecutionEngine::kPooled};
  auto body = [](Proc& proc) {
    const int next = (proc.id() + 1) % proc.nprocs();
    const int prev = (proc.id() + proc.nprocs() - 1) % proc.nprocs();
    proc.send<int>(next, 1, proc.id());
    proc.recv<int>(prev, 1);
  };
  const RunResult first = spmd_run(config, body);
  for (int i = 0; i < 20; ++i) {
    const RunResult again = spmd_run(config, body);
    ASSERT_EQ(first.proc_vtimes, again.proc_vtimes);
  }
}

// --- templated spmd_run ---------------------------------------------------

TEST(SpmdRunTemplated, InvokesArbitraryCallablesWithoutStdFunction) {
  struct Body {
    std::atomic<int>* count;
    void operator()(Proc& proc) const {
      count->fetch_add(proc.id() + 1);
    }
  };
  std::atomic<int> count{0};
  RunConfig config{4, CostModel::t800()};
  spmd_run(config, Body{&count});
  EXPECT_EQ(count.load(), 1 + 2 + 3 + 4);
}

TEST(SpmdRunTemplated, MutableLambdaStateIsPerCallNotPerProc) {
  // The templated overload passes one callable object shared by all
  // processors (same as the std::function path) -- captures must be
  // read-only or synchronised.
  std::atomic<int> hits{0};
  RunConfig config{3, CostModel::t800()};
  const RunResult r = spmd_run(config, [&hits](Proc& proc) {
    hits.fetch_add(1);
    proc.charge(Op::kIntOp, 5);
  });
  EXPECT_EQ(hits.load(), 3);
  EXPECT_EQ(r.proc_vtimes.size(), 3u);
}

}  // namespace
