// Tests for the charge-tape specialization layer (parix/charge_tape.h,
// Proc::replay, DESIGN.md section 8).
//
// The load-bearing property: the tape path must reproduce the
// interpretive path's virtual times BIT-FOR-BIT.  A tape that merely
// lands "close" has reassociated the dependent FP-add chain and changed
// the scientific artefact.  Here that is pinned per replay and per
// settlement walk; on the applications, goldens.interp_pooled and
// goldens.interp_threads check every pinned run under the interpretive
// path against tests/goldens/vtimes.json, every processor's vtime and
// Stats included.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "apps/gauss.h"
#include "goldens/pinned_runs.h"
#include "parix/charge_tape.h"
#include "parix/executor.h"
#include "parix/runtime.h"
#include "support/error.h"
#include "with_knobs.h"

namespace {

using namespace skil;
using namespace skil::parix;

using skil::testing::with_charge_path;
using skil::testing::with_engine;

// --- replay identity ------------------------------------------------------

TEST(ChargeTapeReplay, IdenticalToPerElementChargeSequence) {
  // replay(tape, times) must equal the hand-rolled charge loop to the
  // last bit: same multiplies, same adds, same order.
  ChargeTape tape;
  tape.charge(Op::kFloatOp, 2);
  tape.charge(Op::kFloatOp);
  tape.charge(Op::kIndirectCall);
  tape.charge(Op::kAlloc, 2);
  tape.charge(Op::kCopyWord, 4);

  RunConfig config{1, CostModel::t800()};
  const RunResult interp = spmd_run(config, [&](Proc& proc) {
    for (int t = 0; t < 12345; ++t)
      for (const ChargeTape::Entry& e : tape.entries())
        proc.charge(e.kind, e.count);
  });
  const RunResult taped = spmd_run(config, [&](Proc& proc) {
    proc.replay(tape, 12345);
  });
  EXPECT_EQ(interp.vtime_us, taped.vtime_us);
  EXPECT_EQ(interp.total.compute_us, taped.total.compute_us);
  EXPECT_EQ(interp.total.ops, taped.total.ops);
}

TEST(ChargeTapeReplay, InterleavedReplaysExtendTheSameChain) {
  // Splitting one loop's replays (as data-dependent skeleton loops do:
  // replay(tape, tapped) per map call) must still walk one chain.
  ChargeTape tape;
  tape.charge(Op::kFloatOp, 2);
  tape.charge(Op::kFloatOp);

  RunConfig config{1, CostModel::t800()};
  const RunResult whole = spmd_run(config, [&](Proc& proc) {
    proc.replay(tape, 1000);
  });
  const RunResult split = spmd_run(config, [&](Proc& proc) {
    proc.replay(tape, 1);
    proc.replay(tape, 998);
    proc.replay(tape, 1);
  });
  EXPECT_EQ(whole.vtime_us, split.vtime_us);
  EXPECT_EQ(whole.total.ops, split.total.ops);
}

TEST(ChargeTapeReplay, ZeroTimesAndEmptyTapeAreNoOps) {
  ChargeTape tape;
  tape.charge(Op::kFloatOp, 3);
  ChargeTape empty;

  RunConfig config{1, CostModel::t800()};
  const RunResult r = spmd_run(config, [&](Proc& proc) {
    proc.charge(Op::kIntOp, 7);
    proc.replay(tape, 0);
    proc.replay(empty, 12345);
  });
  const RunResult plain = spmd_run(config, [](Proc& proc) {
    proc.charge(Op::kIntOp, 7);
  });
  EXPECT_EQ(r.vtime_us, plain.vtime_us);
  EXPECT_EQ(r.total.ops, plain.total.ops);
}

TEST(ChargeTapeReplay, ChargeElemsEntryMatchesMultipliedCharge) {
  // ChargeTape::charge_elems must fold into one entry exactly like
  // Proc::charge_elems folds into one charge.
  ChargeTape bulk;
  bulk.charge_elems(Op::kCopyWord, 123, 2);
  ChargeTape plain;
  plain.charge(Op::kCopyWord, 246);
  ASSERT_EQ(bulk.size(), 1u);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(bulk.entries()[0].kind, plain.entries()[0].kind);
  EXPECT_EQ(bulk.entries()[0].count, plain.entries()[0].count);
}

// --- deferred ledger ------------------------------------------------------

TEST(DeferredLedger, SettlementPointsPreserveTheChain) {
  // replay() now defers; every observation point (charge, send, recv,
  // vtime read) must fold the pending records in exactly the order an
  // eager replay would have walked.
  ChargeTape tape;
  tape.charge(Op::kFloatOp, 2);
  tape.charge(Op::kFloatOp);
  tape.charge(Op::kCall);

  RunConfig config{2, CostModel::t800()};
  auto deferred_body = [&](Proc& proc) {
    const int peer = 1 - proc.id();
    proc.replay(tape, 300);           // pending across the send
    proc.send<int>(peer, 7, proc.id());
    proc.replay(tape, 200);           // pending across the recv
    (void)proc.recv<int>(peer, 7);
    proc.replay(tape, 100);           // pending until the final read
  };
  auto eager_body = [&](Proc& proc) {
    const int peer = 1 - proc.id();
    for (int t = 0; t < 300; ++t)
      for (const ChargeTape::Entry& e : tape.entries())
        proc.charge(e.kind, e.count);
    proc.send<int>(peer, 7, proc.id());
    for (int t = 0; t < 200; ++t)
      for (const ChargeTape::Entry& e : tape.entries())
        proc.charge(e.kind, e.count);
    (void)proc.recv<int>(peer, 7);
    for (int t = 0; t < 100; ++t)
      for (const ChargeTape::Entry& e : tape.entries())
        proc.charge(e.kind, e.count);
  };
  const RunResult deferred = spmd_run(config, deferred_body);
  const RunResult eager = spmd_run(config, eager_body);
  EXPECT_EQ(deferred.proc_vtimes, eager.proc_vtimes);
  ASSERT_EQ(deferred.proc_stats.size(), eager.proc_stats.size());
  for (std::size_t p = 0; p < eager.proc_stats.size(); ++p)
    EXPECT_EQ(deferred.proc_stats[p], eager.proc_stats[p]);
}

TEST(DeferredLedger, DeferredChargesMatchEagerCharges) {
  // The DeferredCharges sink (taped skeleton tails) must settle to the
  // same chain as the eager charges it replaces, in order, including
  // when it coalesces into a pending replay's trailing record.
  ChargeTape tape;
  tape.charge(Op::kFloatOp, 3);

  RunConfig config{1, CostModel::t800()};
  const RunResult deferred = spmd_run(config, [&](Proc& proc) {
    proc.replay(tape, 999);
    DeferredCharges sink(proc);
    sink.charge(Op::kIndirectCall, 50);
    sink.charge_elems(Op::kAlloc, 50, 2);
    sink.charge(Op::kCopyWord, 7);
  });
  const RunResult eager = spmd_run(config, [&](Proc& proc) {
    for (int t = 0; t < 999; ++t) proc.charge(Op::kFloatOp, 3);
    proc.charge(Op::kIndirectCall, 50);
    proc.charge_elems(Op::kAlloc, 50, 2);
    proc.charge(Op::kCopyWord, 7);
  });
  EXPECT_EQ(deferred.vtime_us, eager.vtime_us);
  EXPECT_EQ(deferred.total, eager.total);
}

// --- multi-carrier settlement ---------------------------------------------

TEST(MultiCarrier, TapeRunsSettleClosedFormAtOneAndFourCarriers) {
  // Work stealing migrates fibers, and the ledgers they settle, between
  // carriers; the tape path must still retire its charges through the
  // closed-form walk rather than silently fall back to the plain chain.
  // (goldens.carriers1 and goldens.carriers4 check every pinned vtime.)
  for (int carriers : {1, 4}) {
    SCOPED_TRACE(carriers);
    executor_set_carriers(carriers);
    const RunResult r = with_engine(ExecutionEngine::kPooled, [] {
      return with_charge_path(ChargePath::kTape, [] {
        return apps::gauss_skil(16, 64, goldens::kSeed, false).run;
      });
    });
    EXPECT_GT(r.settle.closed_runs, 0u);
  }
  executor_set_carriers(0);  // restore the SKIL_CARRIERS / hw default
}

TEST(MultiCarrier, SetCarriersRoundTripsAndRejectsBadCounts) {
  executor_set_carriers(3);
  EXPECT_EQ(executor_carriers(), 3);
  executor_set_carriers(0);
  EXPECT_GE(executor_carriers(), 1);
  EXPECT_THROW(executor_set_carriers(-1), support::ContractError);
  EXPECT_THROW(executor_set_carriers(257), support::ContractError);
}

// --- algebraic settlement: closed-form walk vs plain-chain oracle ---------

// Twin-ledger differential: appends the same records to two ledgers,
// settles one via settle_algebraic and the other via the plain-chain
// settle() oracle, and requires bit-identical clocks and stats
// (EXPECT_EQ on double is exact equality).  This is the load-bearing
// exactness predicate of DESIGN.md section 12: the ulp walk must land
// on the same bits as executing every dependent add.
struct SettleFixture {
  std::array<double, kOpKinds> unit{};
  /// What every settle_algebraic call of this fixture counted.
  SettleCounters counters;

  SettleFixture() {
    const CostModel cost = CostModel::t800();
    for (int k = 0; k < kOpKinds; ++k)
      unit[k] = cost.unit(static_cast<Op>(k));
  }

  void expect_algebraic_matches_chain(const ChargeTape& tape,
                                      std::uint64_t times, double start_vt) {
    ChargeLedger alg, ora;
    alg.append_replay(tape, unit.data(), times);
    ora.append_replay(tape, unit.data(), times);
    double vt_a = start_vt, vt_o = start_vt;
    Stats st_a, st_o;
    alg.settle_algebraic(vt_a, st_a, counters);
    ora.settle(vt_o, st_o);
    EXPECT_EQ(vt_a, vt_o);
    EXPECT_EQ(st_a, st_o);
    EXPECT_TRUE(alg.empty());
    EXPECT_TRUE(ora.empty());
  }
};

TEST(AlgebraicSettle, T800UnitsAcrossManyStartClocksAndCounts) {
  SettleFixture fx;
  ChargeTape tape;
  tape.charge(Op::kFloatOp, 2);
  tape.charge(Op::kIntOp, 3);
  tape.charge(Op::kCall);
  for (double start : {0.0, 1.0, 1000.0, 1000.5, 123456.78125, 1e9}) {
    SCOPED_TRACE(start);
    for (std::uint64_t times : {1ull, 3ull, 4ull, 5ull, 1000ull, 65537ull}) {
      SCOPED_TRACE(times);
      fx.expect_algebraic_matches_chain(tape, times, start);
    }
  }
}

TEST(AlgebraicSettle, RepresentabilityBoundaryAtTwoPow53) {
  // Above 2^53 the clock's ulp exceeds 1.0 and small addends start
  // rounding; the walk must re-probe at the binade crossing and keep
  // matching the chain bit-for-bit through and beyond it.
  SettleFixture fx;
  fx.unit[static_cast<int>(Op::kFloatOp)] = 1.5;
  ChargeTape tape;
  tape.charge(Op::kFloatOp);
  const double two53 = 9007199254740992.0;  // 2^53
  for (double start : {two53 - 4096.0, two53 - 3.0, two53, two53 + 2.0,
                       9.9e15, 1e16}) {
    SCOPED_TRACE(start);
    fx.expect_algebraic_matches_chain(tape, 10000, start);
  }
}

TEST(AlgebraicSettle, RoundHalfEvenTieCases) {
  // Exact .5-ulp ties are the only data dependence of the period
  // delta; exercise both tie behaviours in the ulp-1.0 binade
  // [2^52, 2^53).
  SettleFixture fx;
  const double two52 = 4503599627370496.0;  // 2^52
  {
    // addend 0.5 = an exact half-ulp tie every add: even clocks are
    // fixed points (round-to-even stays), odd clocks take one step up
    // then stick.
    SettleFixture half = fx;
    half.unit[static_cast<int>(Op::kFloatOp)] = 0.5;
    ChargeTape tape;
    tape.charge(Op::kFloatOp);
    half.expect_algebraic_matches_chain(tape, 100000, two52 + 100.0);
    half.expect_algebraic_matches_chain(tape, 100000, two52 + 101.0);
  }
  {
    // addend 1.5: the fractional half ties on every add but the
    // resolution alternates with parity (even -> +2, odd -> +1), the
    // odd/odd paired-walk case.
    SettleFixture sesqui = fx;
    sesqui.unit[static_cast<int>(Op::kFloatOp)] = 1.5;
    ChargeTape tape;
    tape.charge(Op::kFloatOp);
    sesqui.expect_algebraic_matches_chain(tape, 100000, two52 + 100.0);
    sesqui.expect_algebraic_matches_chain(tape, 100000, two52 + 101.0);
  }
}

TEST(AlgebraicSettle, SubnormalAndZeroStartClocks) {
  // The walk's ulp domain extends down into the subnormals (ebits ==
  // 0 maps to m = raw bits); climbing out of the subnormal range into
  // the normal binades must stay exact.
  SettleFixture fx;
  fx.unit[static_cast<int>(Op::kFloatOp)] = 4.9406564584124654e-324;  // min subnormal
  ChargeTape tape;
  tape.charge(Op::kFloatOp, 3);
  for (double start : {0.0, 4.9406564584124654e-324,
                       2.2250738585072014e-308 /* DBL_MIN */}) {
    SCOPED_TRACE(start);
    fx.expect_algebraic_matches_chain(tape, 50000, start);
  }
}

TEST(AlgebraicSettle, NegativeAndNonFiniteAddendsPinToTheChain) {
  // A negative or +inf addend breaks the monotone ulp model; the
  // record must be flagged chain_only at append time and settle
  // through the plain chain, still bit-identical to the oracle.
  SettleFixture neg;
  neg.unit[static_cast<int>(Op::kFloatOp)] = -2.5;
  ChargeTape tape;
  tape.charge(Op::kFloatOp);
  tape.charge(Op::kIntOp);
  {
    ChargeLedger led;
    led.append_replay(tape, neg.unit.data(), 100);
    ASSERT_EQ(led.records().size(), 1u);
    EXPECT_TRUE(led.records()[0].chain_only);
  }
  neg.expect_algebraic_matches_chain(tape, 1000, 1000.0);

  SettleFixture inf;
  inf.unit[static_cast<int>(Op::kFloatOp)] =
      std::numeric_limits<double>::infinity();
  inf.expect_algebraic_matches_chain(tape, 100, 1000.0);
}

TEST(AlgebraicSettle, FuzzRandomTapesClocksAndUnits) {
  // LCG-driven sweep over tape shapes, repetition counts, start clocks
  // and (positive, finite) unit tables, including fractional units
  // that tie frequently.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    SettleFixture fx;
    for (int k = 0; k < kOpKinds; ++k)
      fx.unit[k] = static_cast<double>(next() % 4096) * 0.03125;  // 0..128, /32
    ChargeTape tape;
    const int entries = 1 + static_cast<int>(next() % 5);
    for (int i = 0; i < entries; ++i)
      tape.charge(static_cast<Op>(next() % kOpKinds), 1 + next() % 7);
    const std::uint64_t times = 1 + next() % 20000;
    const double start =
        static_cast<double>(next() % 2000000) * 0.5 +
        (round % 4 == 0 ? 9.007e15 : 0.0);  // sometimes near 2^53
    fx.expect_algebraic_matches_chain(tape, times, start);
  }
}

// --- cross-replay memo and tape identity ----------------------------------

TEST(SettleMemo, RepeatedReplaysOfOneTapeHitTheMemo) {
  // The same tape settled repeatedly (the sweep's per-element replay
  // pattern) must serve its period deltas from the memo after the
  // first probe -- and stay bit-identical to the chain oracle from
  // every distinct start clock.
  SettleFixture fx;
  ChargeTape tape;
  tape.charge(Op::kFloatOp, 3);
  tape.charge(Op::kIntOp, 2);
  for (int i = 0; i < 16; ++i) {
    SCOPED_TRACE(i);
    fx.expect_algebraic_matches_chain(tape, 5000, 1000.0 + 3.0 * i);
  }
  EXPECT_GT(fx.counters.memo_hits, 0u);
  EXPECT_GT(fx.counters.closed_adds + fx.counters.memo_adds, 0u);
}

TEST(TapeIdentity, CopiesGetFreshIdsMovesTransferThem) {
  ChargeTape a;
  a.charge(Op::kFloatOp);
  const std::uint64_t id_a = a.id();
  EXPECT_NE(id_a, 0u);

  ChargeTape copy(a);
  EXPECT_NE(copy.id(), id_a);

  ChargeTape assigned;
  assigned = a;
  EXPECT_NE(assigned.id(), id_a);
  EXPECT_NE(assigned.id(), copy.id());

  ChargeTape moved(std::move(a));
  EXPECT_EQ(moved.id(), id_a);
  // The moved-from tape is re-armed with a fresh identity: its
  // (previously recorded) id must never be reusable for new content.
  EXPECT_NE(a.id(), id_a);  // NOLINT(bugprone-use-after-move)
}

TEST(TapeIdentity, CoalescedChargeRecordsDropTheTapeId) {
  // append_charge growing a times==1 replay record changes the entry
  // sequence behind the record's (tape_id, n) name; the identity must
  // be dropped so the memo can never serve deltas for the wrong
  // sequence.
  SettleFixture fx;
  ChargeTape tape;
  tape.charge(Op::kFloatOp, 2);
  ChargeLedger led;
  led.append_replay(tape, fx.unit.data(), 1);
  ASSERT_EQ(led.records().size(), 1u);
  EXPECT_EQ(led.records()[0].tape_id, tape.id());
  led.append_charge(Op::kIntOp, 1, fx.unit[static_cast<int>(Op::kIntOp)]);
  ASSERT_EQ(led.records().size(), 1u);  // coalesced
  EXPECT_EQ(led.records()[0].tape_id, 0u);
}

// --- strict switch parsing ------------------------------------------------

TEST(ChargePathParsing, AcceptsTheTwoKnownNames) {
  EXPECT_EQ(parse_charge_path("interp"), ChargePath::kInterp);
  EXPECT_EQ(parse_charge_path("tape"), ChargePath::kTape);
}

TEST(ChargePathParsing, RejectsUnknownNamesListingAcceptedValues) {
  try {
    parse_charge_path("fast");
    FAIL() << "expected ContractError";
  } catch (const support::ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SKIL_CHARGE"), std::string::npos);
    EXPECT_NE(what.find("fast"), std::string::npos);
    EXPECT_NE(what.find("interp, tape"), std::string::npos);
  }
  EXPECT_THROW(parse_charge_path(""), support::ContractError);
  EXPECT_THROW(parse_charge_path("Tape"), support::ContractError);
}

TEST(EngineParsing, AcceptsTheTwoKnownNames) {
  EXPECT_EQ(parse_execution_engine("threads"), ExecutionEngine::kThreads);
  EXPECT_EQ(parse_execution_engine("pooled"), ExecutionEngine::kPooled);
}

TEST(EngineParsing, RejectsUnknownNamesListingAcceptedValues) {
  try {
    parse_execution_engine("fibers");
    FAIL() << "expected ContractError";
  } catch (const support::ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SKIL_ENGINE"), std::string::npos);
    EXPECT_NE(what.find("fibers"), std::string::npos);
    EXPECT_NE(what.find("threads, pooled"), std::string::npos);
  }
  EXPECT_THROW(parse_execution_engine(""), support::ContractError);
}

// --- default selection ----------------------------------------------------

TEST(ChargePathDefault, SetDefaultRoundTrips) {
  const ChargePath saved = default_charge_path();
  set_default_charge_path(ChargePath::kInterp);
  EXPECT_EQ(default_charge_path(), ChargePath::kInterp);
  set_default_charge_path(ChargePath::kTape);
  EXPECT_EQ(default_charge_path(), ChargePath::kTape);
  set_default_charge_path(saved);
}

}  // namespace
