// Differential fuzz for the deferred charge ledger and its algebraic
// settlement.
//
// Random compositions of taped skeletons (skil array_map_taped, dpfl
// fa_map_taped / fa_fold_taped) interleaved with eager skeletons
// (array_zip, array_fold, array_copy -- each an extra settlement
// point) run over random processor counts and array shapes, three
// ways:
//
//   1. interpretive charging on the threads engine,
//   2. taped charging on the pooled engine with one carrier,
//   3. taped charging on the pooled engine with four carriers (work
//      stealing migrates fibers, and their ledgers, between carriers).
//
// All three must produce bit-identical per-processor virtual times and
// operation statistics: the taped variants are chain-identical to the
// interpretive ones by construction (DESIGN.md section 8), deferral
// only moves *when* the same adds execute (section 10), and the
// closed-form walk lands on the bits the plain chain would (section
// 12).  The shapes deliberately mix ragged small grids (empty
// partitions, odd remainders) with partitions large enough that the
// deferred maps become long walkable replay records, and the
// settlement counters assert the closed-form path really ran.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "dpfl/dpfl.h"
#include "parix/charge_tape.h"
#include "parix/executor.h"
#include "parix/runtime.h"
#include "skil/skil.h"

namespace {

using namespace skil;

struct TapeEntrySpec {
  parix::Op kind;
  std::uint64_t count;
};

enum StepKind {
  kSkilMap = 0,
  kSkilZip,
  kSkilFold,
  kSkilCopy,
  kDpflMap,
  kDpflFold,
  kStepKinds
};

struct StepSpec {
  int kind = kSkilMap;
  std::vector<TapeEntrySpec> tape;  // used by the taped step kinds
};

struct ProgramSpec {
  int p = 2;
  int rows = 1;
  int cols = 1;
  std::vector<StepSpec> steps;
};

/// Derives a random program from a seed.  The generator is the only
/// source of randomness: the same spec then drives all three runs.
ProgramSpec make_program(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  static constexpr parix::Op kOps[] = {
      parix::Op::kIntOp,        parix::Op::kFloatOp, parix::Op::kCall,
      parix::Op::kIndirectCall, parix::Op::kAlloc,   parix::Op::kCopyWord,
  };
  ProgramSpec prog;
  static constexpr int kProcs[] = {2, 4, 8};
  prog.p = kProcs[rng() % 3];
  if (rng() % 2 == 0) {
    // Ragged: remainders and empty partitions.
    prog.rows = 1 + static_cast<int>(rng() % 13);
    prog.cols = 1 + static_cast<int>(rng() % 9);
  } else {
    // Large enough that a deferred map over the local partition
    // replays its tape thousands of times.
    prog.rows = prog.p * (24 + static_cast<int>(rng() % 20));
    prog.cols = 17 + static_cast<int>(rng() % 16);
  }
  const int nsteps = 3 + static_cast<int>(rng() % 6);
  for (int s = 0; s < nsteps; ++s) {
    StepSpec step;
    step.kind = static_cast<int>(rng() % kStepKinds);
    const int len = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < len; ++i)
      step.tape.push_back(
          TapeEntrySpec{kOps[rng() % 6], 1 + rng() % 4});
    prog.steps.push_back(std::move(step));
  }
  return prog;
}

/// Executes the program.  `taped` selects the tape-specialized
/// skeleton variants (deferred ledger, algebraic settlement); the
/// interpretive variants charge the identical sequences eagerly
/// per element.
parix::RunResult run_program(const ProgramSpec& prog, bool taped) {
  parix::RunConfig config{prog.p, parix::CostModel::t800()};
  return parix::spmd_run(config, [&](parix::Proc& proc) {
    const auto charge_eager = [&proc](const std::vector<TapeEntrySpec>& t) {
      for (const TapeEntrySpec& e : t) proc.charge(e.kind, e.count);
    };
    const auto build_tape = [](const std::vector<TapeEntrySpec>& t) {
      parix::ChargeTape tape;
      for (const TapeEntrySpec& e : t) tape.charge(e.kind, e.count);
      return tape;
    };

    const Size shape{prog.rows, prog.cols};
    auto a = array_create<double>(
        proc, 2, shape,
        [](Index ix) { return 1.0 + 0.25 * ix[0] - 0.125 * ix[1]; });
    auto b = array_create<double>(proc, 2, shape, [](Index) { return 0.0; });
    const dpfl::Closure<double(Index)> finit(
        proc, [](Index ix) { return 0.5 * ix[0] + ix[1]; });
    auto f = dpfl::fa_create<double>(proc, 2, shape, finit);

    for (const StepSpec& step : prog.steps) {
      switch (step.kind) {
        case kSkilMap: {
          // One tape drives two consecutive map calls (a -> b, then
          // b -> a): the second replay settles against the memo entry
          // the first one probed, giving the settlement fuzz its
          // cross-replay cache hit/miss interleavings.
          if (taped) {
            const parix::ChargeTape tape = build_tape(step.tape);
            array_map_taped(
                [](const double& v, Index ix, std::uint64_t& tapped) {
                  ++tapped;
                  return v * 0.5 + 0.0625 * ix[0] - 0.03125 * ix[1];
                },
                tape, a, b);
            array_map_taped(
                [](const double& v, Index ix, std::uint64_t& tapped) {
                  ++tapped;
                  return v * 0.5 + 0.0625 * ix[0] - 0.03125 * ix[1];
                },
                tape, b, a);
          } else {
            const auto map_fn = [&](const double& v, Index ix) {
              charge_eager(step.tape);
              return v * 0.5 + 0.0625 * ix[0] - 0.03125 * ix[1];
            };
            array_map(map_fn, a, b);
            array_map(map_fn, b, a);
          }
          break;
        }
        case kSkilZip:
          array_zip([](double x, double y) { return 0.5 * (x + y); }, a, b, b);
          std::swap(a, b);
          break;
        case kSkilFold:
          (void)array_fold([](double v) { return v; },
                           [](double x, double y) { return x + y; }, a);
          break;
        case kSkilCopy:
          array_copy(a, b);
          std::swap(a, b);
          break;
        case kDpflMap: {
          if (taped) {
            // Mirror the closure record the interpretive path
            // allocates when it constructs map_f.
            proc.charge(parix::Op::kAlloc);
            const parix::ChargeTape tape = build_tape(step.tape);
            f = dpfl::fa_map_taped(
                [](const double& v, Index ix, std::uint64_t& tapped) {
                  ++tapped;
                  return v * 0.5 + 0.015625 * ix[1];
                },
                tape, f);
          } else {
            const dpfl::Closure<double(double, Index)> map_f(
                proc, [&](double v, Index ix) {
                  charge_eager(step.tape);
                  return v * 0.5 + 0.015625 * ix[1];
                });
            f = dpfl::fa_map(map_f, f);
          }
          break;
        }
        case kDpflFold: {
          if (taped) {
            // Two closure records: conv_f and fold_f.
            proc.charge(parix::Op::kAlloc);
            proc.charge(parix::Op::kAlloc);
            const parix::ChargeTape tape = build_tape(step.tape);
            (void)dpfl::fa_fold_taped(
                [](const double& v, Index ix, std::uint64_t& tapped) {
                  ++tapped;
                  return v + 0.25 * ix[0];
                },
                [](double x, double y) { return x + y; }, tape, f);
          } else {
            const dpfl::Closure<double(double, Index)> conv(
                proc, [&](double v, Index ix) {
                  charge_eager(step.tape);
                  return v + 0.25 * ix[0];
                });
            const dpfl::Closure<double(double, double)> fold(
                proc, [](double x, double y) { return x + y; });
            (void)dpfl::fa_fold(conv, fold, f);
          }
          break;
        }
        default:
          FAIL() << "unknown step kind " << step.kind;
      }
    }
  });
}

template <class Fn>
parix::RunResult with_engine(parix::ExecutionEngine engine, Fn&& fn) {
  const parix::ExecutionEngine saved = parix::default_execution_engine();
  parix::set_default_execution_engine(engine);
  parix::RunResult result = fn();
  parix::set_default_execution_engine(saved);
  return result;
}

TEST(SettleFuzz, TapeOnPooledBitIdenticalToInterpAtOneAndFourCarriers) {
  // The programs mix walkable replay records with eager steps whose
  // append_charge records are chain-bound, and reuse each step's tape
  // across processors and map calls, so one run exercises probe (memo
  // miss), memo hit, plain-chain and mixed interleavings of all three.
  // Both taped runs must agree with interp to the last bit.
  const parix::SettleCounters before = parix::settle_counters();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const ProgramSpec prog = make_program(seed * 0xD1B54A32D192ED03ull + 5);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " p=" << prog.p << " " << prog.rows
                 << "x" << prog.cols << " steps=" << prog.steps.size());

    const parix::RunResult interp = with_engine(
        parix::ExecutionEngine::kThreads,
        [&] { return run_program(prog, /*taped=*/false); });

    parix::executor_set_carriers(1);
    const parix::RunResult tape_one = with_engine(
        parix::ExecutionEngine::kPooled,
        [&] { return run_program(prog, /*taped=*/true); });

    parix::executor_set_carriers(4);
    const parix::RunResult tape_four = with_engine(
        parix::ExecutionEngine::kPooled,
        [&] { return run_program(prog, /*taped=*/true); });
    parix::executor_set_carriers(0);

    ASSERT_EQ(interp.proc_vtimes.size(), static_cast<std::size_t>(prog.p));
    ASSERT_EQ(tape_one.proc_vtimes.size(), interp.proc_vtimes.size());
    ASSERT_EQ(tape_four.proc_vtimes.size(), interp.proc_vtimes.size());
    for (int pid = 0; pid < prog.p; ++pid) {
      SCOPED_TRACE(::testing::Message() << "proc " << pid);
      EXPECT_EQ(interp.proc_vtimes[pid], tape_one.proc_vtimes[pid]);
      EXPECT_EQ(interp.proc_vtimes[pid], tape_four.proc_vtimes[pid]);
      EXPECT_EQ(interp.proc_stats[pid], tape_one.proc_stats[pid]);
      EXPECT_EQ(interp.proc_stats[pid], tape_four.proc_stats[pid]);
    }
  }
  // The identities above would be vacuous if the algebraic engine had
  // declined every record: the counters must show closed-form walks,
  // cross-replay memo traffic (the same tape settles once per
  // processor and map call), and chain-bound records all really ran.
  const parix::SettleCounters after = parix::settle_counters();
  EXPECT_GT(after.closed_runs, before.closed_runs);
  EXPECT_GT(after.memo_hits, before.memo_hits);
  EXPECT_GT(after.closed_adds + after.memo_adds,
            before.closed_adds + before.memo_adds);
  EXPECT_GT(after.chain_records, before.chain_records);
}

}  // namespace
