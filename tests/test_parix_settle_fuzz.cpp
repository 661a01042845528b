// Differential fuzz for the deferred charge ledger and its algebraic
// settlement.
//
// Random compositions of taped skeletons (skil array_map_taped, dpfl
// fa_map_taped, both driven by row kernels; the Skil map runs between
// two arrays or in place, and the DPFL map is handed its array by copy,
// by its last handle -- updating in place -- or by move while a second
// handle holds the partition) interleaved with eager
// skeletons (array_zip, array_fold, array_copy, fa_fold -- each an
// extra settlement point) run over random processor counts, array
// shapes and topologies, three ways:
//
//   1. interpretive charging on the threads engine,
//   2. taped charging on the pooled engine with one carrier,
//   3. taped charging on the pooled engine with four carriers (work
//      stealing migrates fibers, and their ledgers, between carriers).
//
// All three must produce bit-identical per-processor virtual times,
// operation statistics and array contents: the taped variants are
// chain-identical to the interpretive ones by construction (DESIGN.md
// section 8), deferral only moves *when* the same adds execute
// (section 10), and the closed-form walk lands on the bits the plain
// chain would (section 12).  Each map is active on a row-dependent
// column window only, so a row kernel must place its run by
// col_begin: 2-D partitions (and DISTR_TORUS2D's folded placement)
// start runs at col_begin > 0, and a misplaced window moves both the
// tapped count and the mapped values.  The shapes deliberately mix
// ragged small grids (empty partitions, odd remainders) with
// partitions large enough that the deferred maps become long walkable
// replay records, and the settlement counters assert the closed-form
// path really ran.
#include <gtest/gtest.h>

#include <algorithm>
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

/// How a taped DPFL map step receives its array.
enum Handoff {
  kCopyIn = 0,  // f passed as an lvalue: shared, fresh partition
  kMoveIn,      // std::move(f), the last handle: updated in place
  kMoveShared,  // std::move(f) while a second handle stays alive
};

struct StepSpec {
  int kind = kSkilMap;
  int handoff = kCopyIn;  // used by the taped kDpflMap steps
  bool in_place = false;  // used by the kSkilMap steps: a -> a
  std::vector<TapeEntrySpec> tape;  // used by the taped step kinds
  // A map is active on the columns [lo, lo + width) of each row, with
  // lo = (row * mul + add) % cols and width < cols: every row keeps an
  // inactive column, so a map taps fewer elements than it maps.
  int mul = 0;
  int add = 0;
  int width = 0;
};

struct ProgramSpec {
  int p = 2;
  int rows = 1;
  int cols = 1;
  parix::Distr distr = parix::Distr::kDefault;
  std::vector<StepSpec> steps;

  bool active(const StepSpec& step, int row, int col) const {
    const int lo = (row * step.mul + step.add) % cols;
    return col >= lo && col < lo + step.width;
  }
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
  if (rng() % 3 == 0) prog.distr = parix::Distr::kTorus2D;
  const int nsteps = 3 + static_cast<int>(rng() % 6);
  for (int s = 0; s < nsteps; ++s) {
    StepSpec step;
    step.kind = static_cast<int>(rng() % kStepKinds);
    step.mul = static_cast<int>(rng() % 7);
    step.add = static_cast<int>(rng() % prog.cols);
    step.width = static_cast<int>(rng() % prog.cols);
    const int len = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < len; ++i)
      step.tape.push_back(
          TapeEntrySpec{kOps[rng() % 6], 1 + rng() % 4});
    prog.steps.push_back(std::move(step));
  }
  // A separate stream, so the programs above stay those of the seed:
  // half the taped DPFL maps take f by move, a third of those while a
  // second handle keeps the partition shared.
  std::mt19937_64 handoff_rng(seed ^ 0x5DEECE66Dull);
  for (StepSpec& step : prog.steps) {
    const int draw = static_cast<int>(handoff_rng() % 6);
    step.handoff = draw < 3 ? kCopyIn : draw < 5 ? kMoveIn : kMoveShared;
  }
  // A third stream, so both of the above stay those of the seed: half
  // the Skil maps run in place, as Gauss's unfused phases do.
  std::mt19937_64 in_place_rng(seed ^ 0x9E3779B97F4A7C15ull);
  for (StepSpec& step : prog.steps) step.in_place = in_place_rng() % 2 == 0;
  return prog;
}

/// What one run of a program produced: the timing artefacts, the final
/// Skil and DPFL arrays (gathered on processor 0), the taped maps'
/// tapped and mapped element counts, and how many non-empty DPFL
/// partitions a taped map updated in place or freshly.
struct Outcome {
  parix::RunResult run;
  std::vector<double> skil;
  std::vector<double> dpfl;
  std::uint64_t tapped = 0;
  std::uint64_t mapped = 0;
  std::uint64_t in_place = 0;
  std::uint64_t fresh = 0;
};

double skil_map_f(double v, int row, int col) {
  return v * 0.5 + 0.0625 * row - 0.03125 * col;
}
double dpfl_map_f(double v, int, int col) { return v * 0.5 + 0.015625 * col; }

/// Executes the program.  `taped` selects the tape-specialized
/// skeleton variants (deferred ledger, algebraic settlement); the
/// interpretive variants charge the identical sequences eagerly
/// per active element.
Outcome run_program(const ProgramSpec& prog, bool taped) {
  Outcome out;
  // Per-processor tallies of the taped maps (each slot is written by its
  // own processor only).
  std::vector<std::uint64_t> tapped(prog.p, 0);
  std::vector<std::uint64_t> mapped(prog.p, 0);
  std::vector<std::uint64_t> in_place(prog.p, 0);
  std::vector<std::uint64_t> fresh(prog.p, 0);
  parix::RunConfig config{prog.p, parix::CostModel::t800()};
  out.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    const auto charge_eager = [&proc](const std::vector<TapeEntrySpec>& t) {
      for (const TapeEntrySpec& e : t) proc.charge(e.kind, e.count);
    };
    const auto build_tape = [](const std::vector<TapeEntrySpec>& t) {
      parix::ChargeTape tape;
      for (const TapeEntrySpec& e : t) tape.charge(e.kind, e.count);
      return tape;
    };
    // Row kernel of a taped map step: the step's active window gets
    // fn, the rest of the run keeps its values.
    const auto window_kernel = [&](const StepSpec& step, auto fn) {
      return [&, fn](int row, int c0, const double* src, double* dst,
                     int count) -> std::uint64_t {
        std::uint64_t active = 0;
        for (int j = 0; j < count; ++j) {
          const bool on = prog.active(step, row, c0 + j);
          dst[j] = on ? fn(src[j], row, c0 + j) : src[j];
          active += on ? 1 : 0;
        }
        tapped[proc.id()] += active;
        mapped[proc.id()] += static_cast<std::uint64_t>(count);
        return active;
      };
    };
    // Interpretive twin: charges the tape per active element.
    const auto window_body = [&](const StepSpec& step, auto fn) {
      return [&, fn](double v, Index ix) {
        if (!prog.active(step, ix[0], ix[1])) return v;
        charge_eager(step.tape);
        return fn(v, ix[0], ix[1]);
      };
    };

    const Size shape{prog.rows, prog.cols};
    auto a = array_create<double>(
        proc, 2, shape,
        [](Index ix) { return 1.0 + 0.25 * ix[0] - 0.125 * ix[1]; },
        prog.distr);
    auto b = array_create<double>(
        proc, 2, shape, [](Index) { return 0.0; }, prog.distr);
    const dpfl::Closure<double(Index)> finit(
        proc, [](Index ix) { return 0.5 * ix[0] + ix[1]; });
    auto f = dpfl::fa_create<double>(proc, 2, shape, finit, prog.distr);

    for (const StepSpec& step : prog.steps) {
      switch (step.kind) {
        case kSkilMap: {
          // In place: the paper's in-situ replacement, src == dst in
          // every row run.
          if (step.in_place) {
            if (taped)
              array_map_taped(window_kernel(step, skil_map_f),
                              build_tape(step.tape), a, a);
            else
              array_map(window_body(step, skil_map_f), a, a);
            break;
          }
          // Otherwise one tape drives two consecutive map calls (a -> b,
          // then b -> a): the second replay settles against the memo
          // entry the first one probed, giving the settlement fuzz its
          // cross-replay cache hit/miss interleavings.
          if (taped) {
            const parix::ChargeTape tape = build_tape(step.tape);
            array_map_taped(window_kernel(step, skil_map_f), tape, a, b);
            array_map_taped(window_kernel(step, skil_map_f), tape, b, a);
          } else {
            array_map(window_body(step, skil_map_f), a, b);
            array_map(window_body(step, skil_map_f), b, a);
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
            const auto kernel = window_kernel(step, dpfl_map_f);
            const double* before = f.local().data();
            if (step.handoff == kCopyIn) {
              f = dpfl::fa_map_taped<double>(kernel, tape, f);
            } else if (step.handoff == kMoveIn) {
              f = dpfl::fa_map_taped<double>(kernel, tape, std::move(f));
            } else {
              // The held handle must keep the old values: the map
              // falls back to a fresh partition.
              const dpfl::FArray<double> held = f;
              const std::vector<double> old_values = held.local();
              f = dpfl::fa_map_taped<double>(kernel, tape, std::move(f));
              EXPECT_EQ(held.local(), old_values);
            }
            if (!f.local().empty()) {
              const bool same = f.local().data() == before;
              EXPECT_EQ(same, step.handoff == kMoveIn);
              (same ? in_place : fresh)[proc.id()] += 1;
            }
          } else {
            const dpfl::Closure<double(double, Index)> map_f(
                proc, window_body(step, dpfl_map_f));
            f = dpfl::fa_map(map_f, f);
          }
          break;
        }
        case kDpflFold: {
          // An eager settlement point in both arms: the fold's tree
          // merge settles the ledger the taped maps deferred into.
          const dpfl::Closure<double(double, Index)> conv(
              proc, [](double v, Index ix) { return v + 0.25 * ix[0]; });
          const dpfl::Closure<double(double, double)> fold(
              proc, [](double x, double y) { return x + y; });
          (void)dpfl::fa_fold(conv, fold, f);
          break;
        }
        default:
          FAIL() << "unknown step kind " << step.kind;
      }
    }
    std::vector<double> skil = array_gather_root(a);
    std::vector<double> dpfl = dpfl::fa_gather_root(f);
    if (proc.id() == 0) {
      out.skil = std::move(skil);
      out.dpfl = std::move(dpfl);
    }
  });
  for (int pid = 0; pid < prog.p; ++pid) {
    out.tapped += tapped[pid];
    out.mapped += mapped[pid];
    out.in_place += in_place[pid];
    out.fresh += fresh[pid];
  }
  return out;
}

template <class Fn>
Outcome with_engine(parix::ExecutionEngine engine, Fn&& fn) {
  const parix::ExecutionEngine saved = parix::default_execution_engine();
  parix::set_default_execution_engine(engine);
  Outcome result = fn();
  parix::set_default_execution_engine(saved);
  return result;
}

TEST(SettleFuzz, TapeOnPooledBitIdenticalToInterpAtOneAndFourCarriers) {
  // The programs mix walkable replay records with eager steps whose
  // append_charge records are chain-bound, and reuse each step's tape
  // across processors and map calls, so one run exercises probe (memo
  // miss), memo hit, plain-chain and mixed interleavings of all three.
  // Both taped runs must agree with interp to the last bit.
  parix::SettleCounters settled;
  std::uint64_t tapped = 0;
  std::uint64_t mapped = 0;
  std::uint64_t in_place = 0;
  std::uint64_t fresh = 0;
  int torus_programs = 0;
  int skil_maps[2] = {0, 0};  // two-array, in place
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const ProgramSpec prog = make_program(seed * 0xD1B54A32D192ED03ull + 5);
    const bool torus = prog.distr == parix::Distr::kTorus2D;
    torus_programs += torus ? 1 : 0;
    for (const StepSpec& step : prog.steps)
      if (step.kind == kSkilMap) ++skil_maps[step.in_place ? 1 : 0];
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " p=" << prog.p << " " << prog.rows
                 << "x" << prog.cols << (torus ? " torus" : "")
                 << " steps=" << prog.steps.size());

    const Outcome interp = with_engine(
        parix::ExecutionEngine::kThreads,
        [&] { return run_program(prog, /*taped=*/false); });

    parix::executor_set_carriers(1);
    const Outcome tape_one = with_engine(
        parix::ExecutionEngine::kPooled,
        [&] { return run_program(prog, /*taped=*/true); });

    parix::executor_set_carriers(4);
    const Outcome tape_four = with_engine(
        parix::ExecutionEngine::kPooled,
        [&] { return run_program(prog, /*taped=*/true); });
    parix::executor_set_carriers(0);

    ASSERT_EQ(interp.run.proc_vtimes.size(),
              static_cast<std::size_t>(prog.p));
    ASSERT_EQ(tape_one.run.proc_vtimes.size(), interp.run.proc_vtimes.size());
    ASSERT_EQ(tape_four.run.proc_vtimes.size(),
              interp.run.proc_vtimes.size());
    for (int pid = 0; pid < prog.p; ++pid) {
      SCOPED_TRACE(::testing::Message() << "proc " << pid);
      EXPECT_EQ(interp.run.proc_vtimes[pid], tape_one.run.proc_vtimes[pid]);
      EXPECT_EQ(interp.run.proc_vtimes[pid], tape_four.run.proc_vtimes[pid]);
      EXPECT_EQ(interp.run.proc_stats[pid], tape_one.run.proc_stats[pid]);
      EXPECT_EQ(interp.run.proc_stats[pid], tape_four.run.proc_stats[pid]);
    }
    EXPECT_EQ(interp.skil, tape_one.skil);
    EXPECT_EQ(interp.skil, tape_four.skil);
    EXPECT_EQ(interp.dpfl, tape_one.dpfl);
    EXPECT_EQ(interp.dpfl, tape_four.dpfl);
    EXPECT_EQ(tape_one.tapped, tape_four.tapped);
    settled += interp.run.settle;
    settled += tape_one.run.settle;
    settled += tape_four.run.settle;
    tapped += tape_one.tapped;
    mapped += tape_one.mapped;
    in_place += tape_one.in_place + tape_four.in_place;
    fresh += tape_one.fresh + tape_four.fresh;
  }
  // The windows must really select: some elements tapped, some not,
  // and some programs placed on the torus.  Both kinds of Skil map, and
  // both fa_map_taped branches on non-empty partitions, must have run.
  EXPECT_GT(tapped, 0u);
  EXPECT_LT(tapped, mapped);
  EXPECT_GT(torus_programs, 0);
  EXPECT_GT(skil_maps[0], 0);
  EXPECT_GT(skil_maps[1], 0);
  EXPECT_GT(in_place, 0u);
  EXPECT_GT(fresh, 0u);
  // The identities above would be vacuous if the algebraic engine had
  // declined every record: the counters must show closed-form walks,
  // cross-replay memo traffic (the same tape settles once per
  // processor and map call), and chain-bound records all really ran.
  EXPECT_GT(settled.closed_runs, 0u);
  EXPECT_GT(settled.memo_hits, 0u);
  EXPECT_GT(settled.closed_adds + settled.memo_adds, 0u);
  EXPECT_GT(settled.chain_records, 0u);
}

}  // namespace
