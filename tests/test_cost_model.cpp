// Tests pinning down the cost model's structural properties (the
// calibration constants themselves are documented in DESIGN.md; these
// tests check relationships, not absolute values).
#include <gtest/gtest.h>

#include "apps/gauss.h"
#include "apps/matmul.h"
#include "apps/shortest_paths.h"
#include "apps/stencil_jacobi.h"
#include "parix/cost_model.h"

namespace {

using namespace skil::parix;
namespace apps = skil::apps;

TEST(CostModel, UnitLookupMatchesFields) {
  const CostModel cm = CostModel::t800();
  EXPECT_DOUBLE_EQ(cm.unit(Op::kIntOp), cm.int_op_us);
  EXPECT_DOUBLE_EQ(cm.unit(Op::kFloatOp), cm.float_op_us);
  EXPECT_DOUBLE_EQ(cm.unit(Op::kCall), cm.call_us);
  EXPECT_DOUBLE_EQ(cm.unit(Op::kIndirectCall), cm.indirect_call_us);
  EXPECT_DOUBLE_EQ(cm.unit(Op::kAlloc), cm.alloc_us);
  EXPECT_DOUBLE_EQ(cm.unit(Op::kCopyWord), cm.copy_word_us);
}

TEST(CostModel, TransferGrowsWithBytesAndHops) {
  const CostModel cm = CostModel::t800();
  EXPECT_LT(cm.transfer_us(8, 1), cm.transfer_us(8000, 1));
  EXPECT_LT(cm.transfer_us(8, 1), cm.transfer_us(8, 5));
  // One hop carries no store-and-forward penalty beyond startup.
  EXPECT_DOUBLE_EQ(cm.transfer_us(0, 1), cm.msg_startup_us);
  EXPECT_DOUBLE_EQ(cm.transfer_us(0, 0), cm.msg_startup_us);
  EXPECT_DOUBLE_EQ(cm.transfer_us(0, 3), cm.msg_startup_us +
                                             2 * cm.msg_per_hop_us);
}

TEST(CostModel, MechanismOrdering) {
  // The language-mechanism hierarchy the reproduction relies on:
  // instantiated-call residual < plain element ops < graph-reduction
  // apply; a nursery cell allocation is cheap, a reducer application
  // is not.
  const CostModel cm = CostModel::t800();
  EXPECT_LT(cm.call_us, cm.int_op_us);
  EXPECT_LT(cm.int_op_us, cm.float_op_us + 1e-12);
  EXPECT_LT(cm.float_op_us, cm.indirect_call_us + 1e-12);
  EXPECT_LT(cm.alloc_us, cm.indirect_call_us);
  EXPECT_LT(cm.copy_word_us, cm.call_us);
}

TEST(CostModel, MessageStartupDominatesSmallMessages) {
  // Parix software overhead: a small message is almost all startup --
  // the regime in which small partitions on large networks lose
  // efficiency (paper section 5.2's discussion of Figure 1).
  const CostModel cm = CostModel::t800();
  EXPECT_GT(cm.msg_startup_us, 100 * cm.msg_per_byte_us);
}

/// `c` with all ten constants doubled.
CostModel doubled(CostModel c) {
  for (double* k : {&c.int_op_us, &c.float_op_us, &c.call_us,
                    &c.indirect_call_us, &c.alloc_us, &c.copy_word_us,
                    &c.msg_startup_us, &c.msg_per_byte_us, &c.msg_per_hop_us,
                    &c.recv_overhead_us})
    *k *= 2.0;
  return c;
}

TEST(CostModel, EveryAppVtimeIsHomogeneousInTheConstants) {
  // Virtual time is a sum, max and product of the constants with
  // counts, and doubling is exact in binary FP, so doubling every
  // constant must double every app's vtime bit for bit.  This keeps
  // the model linear (what an exact per-constant share of a vtime
  // rests on) and SKIL_COLL=auto's picks invariant under the scale.
  struct App {
    const char* name;
    double (*vtime_us)(int p, const CostModel& cost);
  };
  const App kApps[] = {
      {"gauss_skil",
       [](int p, const CostModel& c) {
         return apps::gauss_skil(p, 32, 7, false, c).run.vtime_us;
       }},
      {"gauss_skil_pivoting",
       [](int p, const CostModel& c) {
         return apps::gauss_skil(p, 32, 7, true, c).run.vtime_us;
       }},
      {"gauss_dpfl",
       [](int p, const CostModel& c) {
         return apps::gauss_dpfl(p, 32, 7, c).run.vtime_us;
       }},
      {"gauss_c",
       [](int p, const CostModel& c) {
         return apps::gauss_c(p, 32, 7, c).run.vtime_us;
       }},
      {"shpaths_skil",
       [](int p, const CostModel& c) {
         return apps::shpaths_skil(p, 16, 7, c).run.vtime_us;
       }},
      {"shpaths_dpfl",
       [](int p, const CostModel& c) {
         return apps::shpaths_dpfl(p, 16, 7, c).run.vtime_us;
       }},
      {"shpaths_c_optimized",
       [](int p, const CostModel& c) {
         return apps::shpaths_c(p, 16, 7, true, c).run.vtime_us;
       }},
      {"shpaths_c_old_sync",
       [](int p, const CostModel& c) {
         return apps::shpaths_c(p, 16, 7, false, c).run.vtime_us;
       }},
      {"matmul_skil",
       [](int p, const CostModel& c) {
         return apps::matmul_skil(p, 16, 7, c).run.vtime_us;
       }},
      {"matmul_dpfl",
       [](int p, const CostModel& c) {
         return apps::matmul_dpfl(p, 16, 7, c).run.vtime_us;
       }},
      {"matmul_c",
       [](int p, const CostModel& c) {
         return apps::matmul_c(p, 16, 7, c).run.vtime_us;
       }},
      {"matmul_summa",
       [](int p, const CostModel& c) {
         return apps::matmul_summa(p, 16, 7, c).run.vtime_us;
       }},
      {"stencil_jacobi",
       [](int p, const CostModel& c) {
         return apps::stencil_jacobi(p, 64, 10, c).run.vtime_us;
       }},
  };
  const CostModel base = CostModel::t800();
  const CostModel twice = doubled(base);
  for (const int p : {4, 16})
    for (const App& app : kApps)
      EXPECT_EQ(app.vtime_us(p, twice), 2.0 * app.vtime_us(p, base))
          << app.name << " p " << p;
}

TEST(Stats, AggregationSums) {
  Stats a, b;
  a.ops[0] = 5;
  a.messages_sent = 2;
  a.bytes_sent = 100;
  a.compute_us = 1.5;
  b.ops[0] = 7;
  b.messages_received = 3;
  b.comm_us = 2.5;
  a += b;
  EXPECT_EQ(a.ops[0], 12u);
  EXPECT_EQ(a.messages_sent, 2u);
  EXPECT_EQ(a.messages_received, 3u);
  EXPECT_EQ(a.bytes_sent, 100u);
  EXPECT_DOUBLE_EQ(a.compute_us, 1.5);
  EXPECT_DOUBLE_EQ(a.comm_us, 2.5);
}

}  // namespace
