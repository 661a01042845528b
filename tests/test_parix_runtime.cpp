// Tests for the SPMD runtime: messaging, virtual time, determinism,
// failure propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "parix/runtime.h"
#include "support/error.h"

namespace {

using namespace skil::parix;

TEST(Machine, NearSquareMeshShapes) {
  EXPECT_EQ(near_square_mesh(1).rows, 1);
  EXPECT_EQ(near_square_mesh(64).rows, 8);
  EXPECT_EQ(near_square_mesh(64).cols, 8);
  EXPECT_EQ(near_square_mesh(32).rows, 4);
  EXPECT_EQ(near_square_mesh(32).cols, 8);
  EXPECT_EQ(near_square_mesh(7).rows, 1);
  EXPECT_EQ(near_square_mesh(7).cols, 7);
  EXPECT_EQ(near_square_mesh(12).rows, 3);
  EXPECT_EQ(near_square_mesh(12).cols, 4);
}

TEST(Machine, ManhattanHops) {
  Machine m(16, CostModel::t800());  // 4x4 mesh
  EXPECT_EQ(m.hops(0, 0), 0);
  EXPECT_EQ(m.hops(0, 1), 1);
  EXPECT_EQ(m.hops(0, 4), 1);
  EXPECT_EQ(m.hops(0, 5), 2);
  EXPECT_EQ(m.hops(0, 15), 6);
  EXPECT_EQ(m.hops(15, 0), 6);
}

TEST(SpmdRun, RunsBodyOnEveryProcessor) {
  std::vector<std::atomic<int>> hits(8);
  RunConfig config{8, CostModel::t800()};
  spmd_run(config, [&](Proc& proc) { hits[proc.id()].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SpmdRun, PingPongDeliversPayloads) {
  RunConfig config{2, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    if (proc.id() == 0) {
      proc.send<int>(1, 7, 12345);
      EXPECT_EQ(proc.recv<int>(1, 8), 54321);
    } else {
      EXPECT_EQ(proc.recv<int>(0, 7), 12345);
      proc.send<int>(0, 8, 54321);
    }
  });
}

TEST(SpmdRun, VectorPayloadsMoveIntact) {
  RunConfig config{2, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    if (proc.id() == 0) {
      std::vector<double> v{1.5, 2.5, 3.5};
      proc.send<std::vector<double>>(1, 1, std::move(v));
    } else {
      const auto v = proc.recv<std::vector<double>>(0, 1);
      ASSERT_EQ(v.size(), 3u);
      EXPECT_DOUBLE_EQ(v[1], 2.5);
    }
  });
}

TEST(SpmdRun, MessagesWithSameTagKeepFifoOrderPerSender) {
  RunConfig config{2, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    if (proc.id() == 0) {
      for (int i = 0; i < 10; ++i) proc.send<int>(1, 3, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(proc.recv<int>(0, 3), i);
    }
  });
}

TEST(SpmdRun, TagsDisambiguateOutOfOrderReceives) {
  RunConfig config{2, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    if (proc.id() == 0) {
      proc.send<int>(1, 100, 1);
      proc.send<int>(1, 200, 2);
    } else {
      EXPECT_EQ(proc.recv<int>(0, 200), 2);  // later tag first
      EXPECT_EQ(proc.recv<int>(0, 100), 1);
    }
  });
}

TEST(SpmdRun, TypeMismatchOnReceiveFaults) {
  RunConfig config{2, CostModel::t800()};
  EXPECT_THROW(spmd_run(config,
                        [](Proc& proc) {
                          if (proc.id() == 0) {
                            proc.send<int>(1, 5, 1);
                          } else {
                            proc.recv<double>(0, 5);  // wrong type
                          }
                        }),
               skil::support::RuntimeFault);
}

TEST(SpmdRun, ExceptionInOneProcessorUnblocksPeers) {
  RunConfig config{4, CostModel::t800()};
  try {
    spmd_run(config, [](Proc& proc) {
      if (proc.id() == 3) throw skil::support::AppError("boom");
      // Peers block on a receive that will never be satisfied; the
      // poison mechanism must wake them so the run terminates.
      proc.recv<int>((proc.id() + 1) % 4, 9999);
    });
    FAIL() << "expected an exception";
  } catch (const skil::support::Error& e) {
    // The first recorded failure may be the AppError or a poisoned
    // receive, depending on scheduling; both carry the poison reason
    // or the original message.
    SUCCEED() << e.what();
  }
}

// --- virtual time ---------------------------------------------------------

TEST(VirtualTime, ChargeAccumulatesModelUnits) {
  RunConfig config{1, CostModel::t800()};
  const auto result = spmd_run(config, [](Proc& proc) {
    proc.charge(Op::kIntOp, 100);
    proc.charge(Op::kFloatOp, 10);
  });
  const CostModel cm = CostModel::t800();
  EXPECT_DOUBLE_EQ(result.vtime_us, 100 * cm.int_op_us + 10 * cm.float_op_us);
}

TEST(VirtualTime, ReceiveWaitsForArrival) {
  const CostModel cm = CostModel::t800();
  RunConfig config{2, cm};
  // The message's arrival, timed as Proc times it: sent once the sender
  // has been busy for 1000 integer ops, over one hop of free links.
  LinkChannels links;
  const double arrival =
      cm.time_send(links, 1000 * cm.int_op_us, sizeof(int), 1,
                   SendMode::kAsync)
          .arrival;
  const auto result = spmd_run(config, [&](Proc& proc) {
    if (proc.id() == 0) {
      proc.charge(Op::kIntOp, 1000);  // sender is busy first
      proc.send<int>(1, 1, 7);
    } else {
      proc.recv<int>(0, 1);
      // Receiver idles until the message arrives.
      EXPECT_GE(proc.vtime(), arrival);
    }
  });
  EXPECT_GT(result.vtime_us, 1000 * cm.int_op_us);
}

TEST(VirtualTime, AsyncSenderOnlyPaysStartup) {
  const CostModel cm = CostModel::t800();
  RunConfig config{2, cm};
  spmd_run(config, [&](Proc& proc) {
    if (proc.id() == 0) {
      std::vector<char> big(100000);
      proc.send_mode<std::vector<char>>(1, 1, std::move(big),
                                        SendMode::kAsync);
      EXPECT_DOUBLE_EQ(proc.vtime(), cm.msg_startup_us);
    } else {
      proc.recv<std::vector<char>>(0, 1);
    }
  });
}

TEST(VirtualTime, SyncSenderWaitsForDelivery) {
  const CostModel cm = CostModel::t800();
  RunConfig config{2, cm};
  spmd_run(config, [&](Proc& proc) {
    if (proc.id() == 0) {
      std::vector<char> big(100000);
      const std::size_t bytes = big.size() + 8;
      proc.send_mode<std::vector<char>>(1, 1, std::move(big), SendMode::kSync);
      EXPECT_DOUBLE_EQ(proc.vtime(), cm.transfer_us(bytes, 1));
      // It waits for the payload to stream, not just for the startup
      // an asynchronous sender pays.
      EXPECT_GT(proc.vtime(), cm.msg_startup_us + cm.msg_per_byte_us * 100000);
    } else {
      proc.recv<std::vector<char>>(0, 1);
    }
  });
}

TEST(VirtualTime, DeterministicAcrossRuns) {
  // The virtual time must not depend on host thread scheduling.
  auto run_once = [] {
    RunConfig config{8, CostModel::t800()};
    return spmd_run(config, [](Proc& proc) {
      // Irregular computation plus a ring of messages.
      proc.charge(Op::kIntOp, 100 * (proc.id() + 1));
      const int next = (proc.id() + 1) % proc.nprocs();
      const int prev = (proc.id() + proc.nprocs() - 1) % proc.nprocs();
      proc.send<int>(next, 1, proc.id());
      EXPECT_EQ(proc.recv<int>(prev, 1), prev);
      proc.charge(Op::kFloatOp, 7 * proc.id());
      proc.send<int>(prev, 2, proc.id());
      EXPECT_EQ(proc.recv<int>(next, 2), next);
    });
  };
  const auto first = run_once();
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto again = run_once();
    EXPECT_EQ(first.vtime_us, again.vtime_us);
    EXPECT_EQ(first.proc_vtimes, again.proc_vtimes);
  }
}

TEST(Stats, CountsMessagesAndOps) {
  RunConfig config{2, CostModel::t800()};
  const auto result = spmd_run(config, [](Proc& proc) {
    proc.charge(Op::kAlloc, 3);
    if (proc.id() == 0) proc.send<int>(1, 1, 5);
    if (proc.id() == 1) proc.recv<int>(0, 1);
  });
  EXPECT_EQ(result.total.messages_sent, 1u);
  EXPECT_EQ(result.total.messages_received, 1u);
  EXPECT_EQ(result.total.ops[static_cast<int>(Op::kAlloc)], 6u);
  EXPECT_GT(result.total.bytes_sent, 0u);
  EXPECT_GT(result.total.compute_us, 0.0);
  EXPECT_GT(result.total.comm_us, 0.0);
}

TEST(Stats, WallClockIsMeasured) {
  RunConfig config{2, CostModel::t800()};
  const auto result = spmd_run(config, [](Proc&) {});
  EXPECT_GE(result.wall_seconds, 0.0);
}

TEST(CostModelDefaults, SyncVariantDiffersOnlyInSendMode) {
  const CostModel async = CostModel::t800();
  const CostModel sync = CostModel::t800_sync();
  EXPECT_EQ(async.default_send_mode, SendMode::kAsync);
  EXPECT_EQ(sync.default_send_mode, SendMode::kSync);
  EXPECT_DOUBLE_EQ(async.msg_startup_us, sync.msg_startup_us);
}

}  // namespace
