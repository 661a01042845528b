#include "apps/gauss.h"

#include <cmath>
#include <utility>

#include "dpfl/dpfl.h"
#include "parix/charge_tape.h"
#include "parix/collectives.h"
#include "skil/skil.h"

namespace skil::apps {

namespace {

using support::linear_system_entry;
using support::pivoting_system_entry;

/// Extended-system entry with padding: rows/columns beyond the
/// original n form an identity block with zero right-hand side, so the
/// first n solution components match the unpadded system.
double gauss_entry(int n, int n_eff, std::uint64_t seed, bool pivoting,
                   int i, int j) {
  if (i >= n) {
    if (j == i) return 1.0;
    return 0.0;
  }
  if (j >= n && j < n_eff) return 0.0;
  const int jj = j == n_eff ? n : j;  // right-hand side column
  return pivoting ? pivoting_system_entry(n, seed, i, jj)
                  : linear_system_entry(n, seed, i, jj);
}

}  // namespace

int gauss_round_up(int n, int nprocs) {
  return ((n + nprocs - 1) / nprocs) * nprocs;
}

namespace {

/// Shared implementation: the entry function supplies the padded
/// size x (size+1) extended matrix.
template <class EntryFn>
GaussResult gauss_skil_impl(int nprocs, int size, EntryFn&& entry,
                            bool pivoting, parix::CostModel cost) {
  const int rows_per_proc = size / nprocs;
  GaussResult result;
  parix::RunConfig config{nprocs, cost};

  // The paper's customizing argument functions, written as the
  // free-standing functions the Skil program uses and supplied to the
  // skeletons via partial application.
  auto make_elemrec = [](double v, Index ix) {
    return ElemRec{v, ix[0], ix[1]};
  };
  auto max_abs_in_col = [](int k, ElemRec e1, ElemRec e2) {
    // Maximum over the elements of column k only; other elements act
    // as the identity.  The row tie-break keeps the fold commutative.
    if (e1.col != k) return e2;
    if (e2.col != k) return e1;
    const double a1 = std::fabs(e1.val);
    const double a2 = std::fabs(e2.val);
    if (a1 != a2) return a1 > a2 ? e1 : e2;
    return e1.row <= e2.row ? e1 : e2;
  };
  auto switch_rows = [](int r1, int r2, int row) {
    if (row == r1) return r2;
    if (row == r2) return r1;
    return row;
  };
  auto copy_pivot = [](const DistArray<double>& b, int k, double v,
                       Index ix) {
    // If this processor's partition of b contains the pivot row,
    // return its (normalised) element for the piv row; otherwise keep
    // the old value.
    const Bounds bds = b.part_bounds();
    if (bds.lower[0] <= k && k < bds.upper[0]) {
      b.proc().charge(parix::Op::kFloatOp);  // the division
      return b.get_elem(Index{k, ix[1]}) / b.get_elem(Index{k, k});
    }
    return v;
  };
  auto eliminate = [](int k, const DistArray<double>& b,
                      const DistArray<double>& piv, double v, Index ix) {
    if (ix[0] == k || ix[1] < k) return v;
    const int my_piv_row = piv.part_bounds().lower[0];
    b.proc().charge(parix::Op::kFloatOp, 2);  // multiply and subtract
    return v - b.get_elem(Index{ix[0], k}) *
                   piv.get_elem(Index{my_piv_row, ix[1]});
  };
  auto normalize = [](const DistArray<double>& a, int last_col, double v,
                      Index ix) {
    if (ix[1] != last_col) return v;
    a.proc().charge(parix::Op::kFloatOp);
    return v / a.get_elem(Index{ix[0], ix[0]});
  };

  // Charge tapes of the three customizing functions above: the exact
  // per-active-element charge sequence each interpretive body books
  // (tests/test_parix_charge_tape.cpp pins the two paths bit-for-bit).
  // Both operands of the interp bodies' binary expressions charge the
  // identical (kFloatOp, 1), so their unspecified evaluation order
  // cannot move the chain.
  //
  // Built once here and never mutated, each tape keeps one stable
  // identity (ChargeTape::id) across every elimination step's replay
  // -- which is what lets the settlement memo (DESIGN.md section 12)
  // reuse one probed period delta for the whole sweep instead of
  // re-probing per replay.  Rebuilding a tape inside the step loop
  // would still be bit-exact, just memo-cold (fresh id per replay).
  const bool taped =
      parix::default_charge_path() == parix::ChargePath::kTape;
  parix::ChargeTape pivot_tape;   // the division, then two get_elem reads
  pivot_tape.charge(parix::Op::kFloatOp);
  pivot_tape.charge(parix::Op::kFloatOp);
  pivot_tape.charge(parix::Op::kFloatOp);
  parix::ChargeTape elim_tape;    // multiply+subtract, then two reads
  elim_tape.charge(parix::Op::kFloatOp, 2);
  elim_tape.charge(parix::Op::kFloatOp);
  elim_tape.charge(parix::Op::kFloatOp);
  parix::ChargeTape norm_tape;    // the division, then one read
  norm_tape.charge(parix::Op::kFloatOp);
  norm_tape.charge(parix::Op::kFloatOp);

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    auto init_f = [&](Index ix) { return entry(ix[0], ix[1]); };
    auto zero = [](Index) { return 0.0; };

    // a, b: size x (size+1); piv: p x (size+1), one row per processor.
    DistArray<double> a = array_create<double>(
        proc, 2, Size{size, size + 1}, Size{rows_per_proc, size + 1},
        Index{-1, -1}, init_f, parix::Distr::kDefault);
    DistArray<double> b = array_create<double>(
        proc, 2, Size{size, size + 1}, Size{rows_per_proc, size + 1},
        Index{-1, -1}, zero, parix::Distr::kDefault);
    DistArray<double> piv = array_create<double>(
        proc, 2, Size{nprocs, size + 1}, Size{1, size + 1}, Index{-1, -1},
        zero, parix::Distr::kDefault);

    // Fusion (DESIGN.md section 13): the step's copy|pivot|eliminate
    // composition collapses into one in-place region pass over `a`,
    // eliding the full-matrix copy into `b`, the non-owner pivot-map
    // traversals, and the inactive-region elimination tail.  Requires
    // the tape charge path (the interpretive bodies charge element by
    // element and cannot be re-associated).
    const bool fuse_on = proc.fuse_mode() == parix::FuseMode::kOn;
    const bool fusing = proc.fusing();

    for (int k = 0; k < size; ++k) {
      const parix::TraceSpan step(proc, "gauss pivot round", k);
      if (fuse_on && !fusing)
        parix::note_fusion_rejected(parix::FusionReject::kPath);
      bool step_fused = fusing;
      if (pivoting) {
        const ElemRec e =
            array_fold(make_elemrec, partial(max_abs_in_col, k), a);
        if (std::fabs(e.val) == 0.0)
          throw support::AppError("Matrix is singular");
        if (e.row != k) {
          // A permuting step re-shapes the data flow: the fused
          // in-place elimination assumes source and target rows
          // coincide, which the row swap breaks.  Reject (kShape)
          // and run the step through the ordinary two-array path.
          if (fusing)
            parix::note_fusion_rejected(parix::FusionReject::kShape);
          step_fused = false;
          array_permute_rows(a, partial(switch_rows, e.row, k), b);
        } else if (!step_fused) {
          array_copy(a, b);
        }
      } else if (!step_fused) {
        array_copy(a, b);
      }
      if (step_fused) {
        // Fused pivot map: only the owner of row k computes anything
        // (non-owner writes were dead -- the broadcast below
        // overwrites every other partition of piv), and it reads the
        // pivot row from `a` directly since the copy was elided.
        const Bounds ab = a.part_bounds();
        const int arow0 = ab.lower[0];
        const int aw = ab.extent(1);
        if (arow0 <= k && k < ab.upper[0]) {
          const double* krow =
              a.local().data() + static_cast<std::size_t>(k - arow0) * aw;
          double* prow = piv.local().data();  // one row, col0 = 0
          for (int j = 0; j <= size; ++j) prow[j] = krow[j] / krow[k];
          proc.replay(pivot_tape, static_cast<std::uint64_t>(size + 1));
          parix::DeferredCharges deferred(proc);
          detail::array_map_charge_tail<double>(
              deferred, static_cast<std::uint64_t>(size + 1));
        }
      } else if (taped) {
        // Flat replay kernel: the reads the interp body performs
        // through the charged get_elem macro become raw partition
        // loads (the tape carries the charges).  The owner test and
        // the pivot-row base resolve once per step, not per element.
        const Bounds bb = b.part_bounds();
        const bool owner = bb.lower[0] <= k && k < bb.upper[0];
        const double* krow =
            owner ? b.local().data() +
                        static_cast<std::size_t>(k - bb.lower[0]) *
                            bb.extent(1)
                  : nullptr;
        array_map_taped(
            [owner, krow, k](double v, Index ix, std::uint64_t& tapped) {
              if (!owner) return v;
              ++tapped;
              return krow[ix[1]] / krow[k];
            },
            pivot_tape, piv, piv);
      } else {
        array_map(partial(copy_pivot, std::cref(b), k), piv, piv);
      }
      array_broadcast_part(piv, Index{k / rows_per_proc, 0});
      if (step_fused) {
        // Fused elimination: in place on `a` over the active region
        // only (rows != k, columns >= k), with the column-k factor
        // hoisted per row before the sweep.  Bit-identity with the
        // two-array path: the factor is the pre-update a[i][k] (the
        // value the unfused kernel reads from the `b` copy), and
        // prow[k] == krow[k]/krow[k] == 1.0 exactly, so the j == k
        // update lands on the identical bits.
        const Bounds ab = a.part_bounds();
        const int arow0 = ab.lower[0];
        const int aw = ab.extent(1);
        double* ad = a.local().data();
        const double* prow = piv.local().data();
        std::uint64_t active = 0;
        for (int i = arow0; i < ab.upper[0]; ++i) {
          if (i == k) continue;
          double* row = ad + static_cast<std::size_t>(i - arow0) * aw;
          const double factor = row[k];
          for (int j = k; j <= size; ++j) row[j] -= factor * prow[j];
          active += static_cast<std::uint64_t>(size + 1 - k);
        }
        proc.replay(elim_tape, active);
        parix::DeferredCharges deferred(proc);
        detail::array_map_charge_tail<double>(deferred, active);
        parix::note_fusion_fused(/*barriers=*/0, /*tapes=*/1);
      } else if (taped) {
        const Bounds bb = b.part_bounds();
        const int brow0 = bb.lower[0];
        const int bw = bb.extent(1);
        const double* bd = b.local().data();
        const double* prow = piv.local().data();  // one row, col0 = 0
        array_map_taped(
            [bd, prow, brow0, bw, k](double v, Index ix,
                                     std::uint64_t& tapped) {
              if (ix[0] == k || ix[1] < k) return v;
              ++tapped;
              return v - bd[static_cast<std::size_t>(ix[0] - brow0) * bw + k] *
                             prow[ix[1]];
            },
            elim_tape, b, a);
      } else {
        array_map(partial(eliminate, k, std::cref(b), std::cref(piv)), b, a);
      }
    }
    if (fuse_on && !fusing)
      parix::note_fusion_rejected(parix::FusionReject::kPath);
    if (fusing) {
      // Fused normalize|gather: divide the right-hand-side column in
      // place (the diagonal read is never clobbered -- it sits left
      // of the written column) and gather from `a`, eliding the full
      // normalize pass into `b` and its inactive-element tail.
      const Bounds ab = a.part_bounds();
      const int arow0 = ab.lower[0];
      const int aw = ab.extent(1);
      double* ad = a.local().data();
      std::uint64_t active = 0;
      for (int i = arow0; i < ab.upper[0]; ++i) {
        double* row = ad + static_cast<std::size_t>(i - arow0) * aw;
        row[size] /= row[i];
        ++active;
      }
      proc.replay(norm_tape, active);
      parix::DeferredCharges deferred(proc);
      detail::array_map_charge_tail<double>(deferred, active);
      parix::note_fusion_fused(/*barriers=*/0, /*tapes=*/1);
    } else if (taped) {
      const Bounds ab = a.part_bounds();
      const int arow0 = ab.lower[0];
      const int aw = ab.extent(1);
      const double* ad = a.local().data();
      array_map_taped(
          [ad, arow0, aw, size](double v, Index ix, std::uint64_t& tapped) {
            if (ix[1] != size) return v;
            ++tapped;
            return v / ad[static_cast<std::size_t>(ix[0] - arow0) * aw +
                          ix[0]];
          },
          norm_tape, a, b);
    } else {
      array_map(partial(normalize, std::cref(a), size), a, b);
    }

    const std::vector<double> solved = array_gather_root(fusing ? a : b);
    if (proc.id() == 0) {
      result.x.resize(size);
      for (int i = 0; i < size; ++i)
        result.x[i] = solved[static_cast<std::size_t>(i) * (size + 1) + size];
    }

    array_destroy(a);
    array_destroy(b);
    array_destroy(piv);
  });
  return result;
}

}  // namespace

GaussResult gauss_skil(int nprocs, int n, std::uint64_t seed, bool pivoting,
                       parix::CostModel cost) {
  const int size = gauss_round_up(n, nprocs);
  return gauss_skil_impl(
      nprocs, size,
      [&](int i, int j) { return gauss_entry(n, size, seed, pivoting, i, j); },
      pivoting, cost);
}

GaussResult gauss_skil_matrix(int nprocs, const support::Matrix<double>& ab,
                              bool pivoting, parix::CostModel cost) {
  const int n = ab.rows();
  SKIL_REQUIRE(ab.cols() == n + 1,
               "gauss_skil_matrix: the system must be n x (n+1)");
  SKIL_REQUIRE(n % nprocs == 0,
               "gauss_skil_matrix: nprocs must divide the matrix size");
  return gauss_skil_impl(
      nprocs, n, [&](int i, int j) { return ab(i, j); }, pivoting, cost);
}

GaussResult gauss_dpfl(int nprocs, int n, std::uint64_t seed,
                       parix::CostModel cost) {
  const int size = gauss_round_up(n, nprocs);
  const int rows_per_proc = size / nprocs;
  GaussResult result;
  parix::RunConfig config{nprocs, cost};

  // DPFL charge tapes, recorded through the same sink-templated
  // helpers the interpretive closure bodies charge through (fn.h,
  // farray.h), so the sequences cannot drift apart.
  const bool taped =
      parix::default_charge_path() == parix::ChargePath::kTape;
  using DArray = dpfl::FArray<double>;
  parix::ChargeTape pivot_tape;  // boxed division + two boxed reads
  dpfl::charge_boxed_arith(pivot_tape, 1);
  DArray::append_get_elem_charges(pivot_tape);
  DArray::append_get_elem_charges(pivot_tape);
  parix::ChargeTape elim_tape;   // boxed multiply+subtract + two reads
  dpfl::charge_boxed_arith(elim_tape, 2);
  DArray::append_get_elem_charges(elim_tape);
  DArray::append_get_elem_charges(elim_tape);
  parix::ChargeTape norm_tape;   // boxed division + one boxed read
  dpfl::charge_boxed_arith(norm_tape, 1);
  DArray::append_get_elem_charges(norm_tape);

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    using dpfl::Closure;
    using dpfl::FArray;

    const Closure<double(Index)> init_f(proc, [&](Index ix) {
      return gauss_entry(n, size, seed, /*pivoting=*/false, ix[0], ix[1]);
    });
    const Closure<double(Index)> zero(proc, [](Index) { return 0.0; });

    FArray<double> a = dpfl::fa_create<double>(
        proc, 2, Size{size, size + 1}, init_f, parix::Distr::kDefault,
        Size{rows_per_proc, size + 1});
    FArray<double> piv = dpfl::fa_create<double>(
        proc, 2, Size{nprocs, size + 1}, zero, parix::Distr::kDefault,
        Size{1, size + 1});

    // Fusion (DESIGN.md section 13): DPFL's persistent-update
    // discipline makes every step allocate a fresh partition; under
    // fusing the intermediate provably has no other observer
    // (use_count == 1), so the update happens in place over the
    // active region -- functional deforestation, with the eliminated
    // stage's boxing and allocation charges gone from the chain.
    const bool fuse_on = proc.fuse_mode() == parix::FuseMode::kOn;
    const bool fusing = proc.fusing();

    for (int k = 0; k < size; ++k) {
      const parix::TraceSpan step(proc, "gauss pivot round", k);
      if (fuse_on && !fusing)
        parix::note_fusion_rejected(parix::FusionReject::kPath);
      // copy_pivot: normalised pivot-row elements into this
      // processor's piv row when it owns the pivot row.
      std::vector<double>* pmut =
          fusing ? piv.mutable_local_if_unique() : nullptr;
      if (pmut != nullptr) {
        // Fused pivot map: owner-only, in place in the uniquely owned
        // partition (non-owner writes were dead -- the broadcast
        // overwrites them).  The closure record is still built.
        proc.charge(parix::Op::kAlloc);
        const Bounds ab = a.part_bounds();
        if (ab.lower[0] <= k && k < ab.upper[0]) {
          const double* krow =
              a.local().data() +
              static_cast<std::size_t>(k - ab.lower[0]) * ab.extent(1);
          double* prow = pmut->data();  // one row, col0 = 0
          for (int j = 0; j <= size; ++j) prow[j] = krow[j] / krow[k];
          proc.replay(pivot_tape, static_cast<std::uint64_t>(size + 1));
          dpfl::charge_apply(proc, static_cast<std::uint64_t>(size + 1));
          proc.charge(dpfl::op_kind<double>(),
                      static_cast<std::uint64_t>(size + 1));
        }
        parix::note_fusion_fused(/*barriers=*/0, /*tapes=*/1);
      } else if (taped) {
        // The closure record the interp path allocates when it
        // constructs the copy_pivot Closure, charged at the same
        // program point.  As in gauss_skil_impl, the kernel reads the
        // partition raw -- the tape carries the boxed-access charges.
        proc.charge(parix::Op::kAlloc);
        const Bounds ab = a.part_bounds();
        const bool owner = ab.lower[0] <= k && k < ab.upper[0];
        const double* krow =
            owner ? a.local().data() +
                        static_cast<std::size_t>(k - ab.lower[0]) *
                            ab.extent(1)
                  : nullptr;
        piv = dpfl::fa_map_taped(
            [owner, krow, k](double v, Index ix, std::uint64_t& tapped) {
              if (!owner) return v;
              ++tapped;
              return krow[ix[1]] / krow[k];
            },
            pivot_tape, piv);
      } else {
        const Closure<double(double, Index)> copy_pivot(
            proc, [&a, k, &proc](double v, Index ix) {
              const Bounds bds = a.part_bounds();
              if (bds.lower[0] <= k && k < bds.upper[0]) {
                dpfl::charge_boxed_arith(proc, 1);
                return a.get_elem(Index{k, ix[1]}) / a.get_elem(Index{k, k});
              }
              return v;
            });
        piv = dpfl::fa_map(copy_pivot, piv);
      }
      piv = dpfl::fa_broadcast_part(piv, Index{k / rows_per_proc, 0});

      std::vector<double>* amut =
          fusing ? a.mutable_local_if_unique() : nullptr;
      if (amut != nullptr) {
        // Fused elimination: the fresh partition the persistent
        // update would build has no observer but `a` itself, so the
        // update happens in place over the active region with the
        // column-k factor hoisted per row (bit-identity as in
        // gauss_skil_impl: prow[k] == 1.0 exactly).  The `source`
        // alias is deliberately not created -- it would pin the old
        // partition alive and force the copy.
        proc.charge(parix::Op::kAlloc);  // eliminate closure record
        const Bounds sb = a.part_bounds();
        const int srow0 = sb.lower[0];
        const int sw = sb.extent(1);
        double* ad = amut->data();
        const double* prow = piv.local().data();
        std::uint64_t active = 0;
        for (int i = srow0; i < sb.upper[0]; ++i) {
          if (i == k) continue;
          double* row = ad + static_cast<std::size_t>(i - srow0) * sw;
          const double factor = row[k];
          for (int j = k; j <= size; ++j) row[j] -= factor * prow[j];
          active += static_cast<std::uint64_t>(size + 1 - k);
        }
        proc.replay(elim_tape, active);
        dpfl::charge_apply(proc, active);
        proc.charge(dpfl::op_kind<double>(), active);
        parix::note_fusion_fused(/*barriers=*/0, /*tapes=*/1);
        continue;
      }
      if (fusing)  // shared storage: cannot deforest in place
        parix::note_fusion_rejected(parix::FusionReject::kShape);
      const FArray<double> source = a;
      const FArray<double> pivot_rows = piv;
      if (taped) {
        proc.charge(parix::Op::kAlloc);  // eliminate closure record
        const Bounds sb = source.part_bounds();
        const int srow0 = sb.lower[0];
        const int sw = sb.extent(1);
        const double* sd = source.local().data();
        const double* prow = pivot_rows.local().data();  // one row
        a = dpfl::fa_map_taped(
            [sd, prow, srow0, sw, k](double v, Index ix,
                                     std::uint64_t& tapped) {
              if (ix[0] == k || ix[1] < k) return v;
              ++tapped;
              return v - sd[static_cast<std::size_t>(ix[0] - srow0) * sw + k] *
                             prow[ix[1]];
            },
            elim_tape, a);
      } else {
        const Closure<double(double, Index)> eliminate(
            proc, [source, pivot_rows, k, &proc](double v, Index ix) {
              if (ix[0] == k || ix[1] < k) return v;
              const int my_piv_row = pivot_rows.part_bounds().lower[0];
              dpfl::charge_boxed_arith(proc, 2);
              return v - source.get_elem(Index{ix[0], k}) *
                             pivot_rows.get_elem(Index{my_piv_row, ix[1]});
            });
        a = dpfl::fa_map(eliminate, a);
      }
    }

    if (fuse_on && !fusing)
      parix::note_fusion_rejected(parix::FusionReject::kPath);
    std::vector<double>* amut =
        fusing ? a.mutable_local_if_unique() : nullptr;
    if (amut != nullptr) {
      // Fused normalize: right-hand-side column divided in place (the
      // diagonal read sits left of the written column), active
      // elements only.
      proc.charge(parix::Op::kAlloc);  // normalize closure record
      const Bounds fb = a.part_bounds();
      const int frow0 = fb.lower[0];
      const int fw = fb.extent(1);
      double* ad = amut->data();
      std::uint64_t active = 0;
      for (int i = frow0; i < fb.upper[0]; ++i) {
        double* row = ad + static_cast<std::size_t>(i - frow0) * fw;
        row[size] /= row[i];
        ++active;
      }
      proc.replay(norm_tape, active);
      dpfl::charge_apply(proc, active);
      proc.charge(dpfl::op_kind<double>(), active);
      parix::note_fusion_fused(/*barriers=*/0, /*tapes=*/1);
    } else if (taped) {
      if (fusing)
        parix::note_fusion_rejected(parix::FusionReject::kShape);
      const FArray<double> final_a = a;
      proc.charge(parix::Op::kAlloc);  // normalize closure record
      const Bounds fb = final_a.part_bounds();
      const int frow0 = fb.lower[0];
      const int fw = fb.extent(1);
      const double* fd = final_a.local().data();
      a = dpfl::fa_map_taped(
          [fd, frow0, fw, size](double v, Index ix, std::uint64_t& tapped) {
            if (ix[1] != size) return v;
            ++tapped;
            return v / fd[static_cast<std::size_t>(ix[0] - frow0) * fw +
                          ix[0]];
          },
          norm_tape, a);
    } else {
      const FArray<double> final_a = a;
      const Closure<double(double, Index)> normalize(
          proc, [final_a, size, &proc](double v, Index ix) {
            if (ix[1] != size) return v;
            dpfl::charge_boxed_arith(proc, 1);
            return v / final_a.get_elem(Index{ix[0], ix[0]});
          });
      a = dpfl::fa_map(normalize, a);
    }

    std::vector<double> flat = dpfl::fa_gather_root(a);
    if (proc.id() == 0) {
      result.x.resize(size);
      for (int i = 0; i < size; ++i)
        result.x[i] = flat[static_cast<std::size_t>(i) * (size + 1) + size];
    }
  });
  return result;
}

GaussResult gauss_c(int nprocs, int n, std::uint64_t seed,
                    parix::CostModel cost) {
  const int size = gauss_round_up(n, nprocs);
  const int rows_per_proc = size / nprocs;
  const int width = size + 1;
  GaussResult result;
  parix::RunConfig config{nprocs, cost};

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    // Hand-written message-passing C: in-place elimination over the
    // active region only, one tree broadcast of the (normalised) pivot
    // row per step, no copies and no per-element dispatch.
    const parix::Topology topo(proc.machine(), parix::Distr::kDefault);
    const int me = proc.id();
    const int row0 = me * rows_per_proc;

    std::vector<double> local(static_cast<std::size_t>(rows_per_proc) *
                              width);
    for (int i = 0; i < rows_per_proc; ++i)
      for (int j = 0; j < width; ++j)
        local[static_cast<std::size_t>(i) * width + j] =
            gauss_entry(n, size, seed, /*pivoting=*/false, row0 + i, j);
    proc.charge(parix::Op::kFloatOp, local.size());

    for (int k = 0; k < size; ++k) {
      const parix::TraceSpan step(proc, "gauss pivot round", k);
      const int owner = k / rows_per_proc;
      // The broadcast ships the full normalised row (columns below k
      // are already zero); restricting it to the active columns would
      // complicate the code for little gain, so the hand-written
      // program -- like the skeleton's array_broadcast_part -- moves
      // whole rows.
      std::vector<double> pivrow(width);
      if (me == owner) {
        const double* row =
            &local[static_cast<std::size_t>(k - row0) * width];
        const double inv = 1.0 / row[k];
        for (int j = 0; j < width; ++j) pivrow[j] = row[j] * inv;
        proc.charge(parix::Op::kFloatOp,
                    static_cast<std::uint64_t>(width) + 1);
      }
      // The baseline uses the communication library's broadcast, like
      // the skeleton does (Parix shipped broadcast primitives; a flat
      // owner-sends-to-everyone loop would serialise 63 sends'
      // software startup and is slower than the paper's reported C
      // times at small n, so their C cannot have used one).  The row
      // width is uniform, so every member can pass the same size hint;
      // SKIL_COLL=auto keeps these rows on the tree, whose per-call
      // gap beats the pipelined ring's at every Table-2 size.
      parix::broadcast(proc, topo, owner, pivrow,
                       pivrow.size() * sizeof(double));

      for (int i = 0; i < rows_per_proc; ++i) {
        if (row0 + i == k) {
          // The pivot row itself is only normalised.
          double* row = &local[static_cast<std::size_t>(i) * width];
          for (int j = k; j < width; ++j) row[j] = pivrow[j];
          continue;
        }
        double* row = &local[static_cast<std::size_t>(i) * width];
        const double factor = row[k];
        for (int j = k; j < width; ++j) row[j] -= factor * pivrow[j];
      }
      // Three element operations (load, fused multiply-subtract,
      // store) per active element.
      proc.charge(parix::Op::kFloatOp,
                  3 * static_cast<std::uint64_t>(rows_per_proc) *
                      (width - k));
    }

    // x_i = a(i, n) / a(i, i); with the normalised pivot rows the
    // diagonal is already 1.
    std::vector<double> x_local(rows_per_proc);
    for (int i = 0; i < rows_per_proc; ++i)
      x_local[i] = local[static_cast<std::size_t>(i) * width + size] /
                   local[static_cast<std::size_t>(i) * width + row0 + i];
    proc.charge(parix::Op::kFloatOp, static_cast<std::uint64_t>(rows_per_proc));

    std::vector<std::vector<double>> parts =
        parix::gather(proc, topo, 0, std::move(x_local));
    if (me == 0) {
      result.x.reserve(size);
      for (auto& part : parts)
        result.x.insert(result.x.end(), part.begin(), part.end());
    }
  });
  return result;
}

}  // namespace skil::apps
