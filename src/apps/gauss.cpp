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

// Row kernels of the three Gauss phases, each written once for Skil and
// DPFL.  The tape path runs every kernel in place, fused or not; fusion
// picks only the charges (DESIGN.md section 13).  So a kernel has
// array_map_taped's row-run signature but is called with src == dst: it
// rewrites the active elements of one row run x[0..count), starting at
// global column c0, leaves the rest as they are and returns the active
// count.  Gauss's row blocks span whole rows, so every run holds its
// row's column-k factor and diagonal.

/// copy_pivot: pivot row `krow` (nullptr off its owner) over its
/// diagonal.
auto pivot_kernel(const double* krow, int k) {
  return [krow, k](int, int c0, const double*, double* x,
                   int count) -> std::uint64_t {
    if (krow == nullptr) return 0;
    for (int j = 0; j < count; ++j) x[j] = krow[c0 + j] / krow[k];
    return static_cast<std::uint64_t>(count);
  };
}

/// eliminate: rows other than k lose f times the pivot row `prow` over
/// the columns >= k, f being the row's column-k entry.
auto eliminate_kernel(const double* prow, int k) {
  return [prow, k](int row, int c0, const double*, double* x,
                   int count) -> std::uint64_t {
    if (row == k) return 0;
    const int lo = k - c0;
    const double f = x[lo];
    for (int j = lo; j < count; ++j) x[j] -= f * prow[c0 + j];
    return static_cast<std::uint64_t>(count - lo);
  };
}

/// normalize: the right-hand side (a row's last column) over the
/// diagonal.
constexpr auto normalize_kernel = [](int row, int c0, const double*,
                                     double* x, int count) -> std::uint64_t {
  x[count - 1] /= x[row - c0];
  return 1;
};

/// Runs a row kernel in place over a partition; returns the active
/// count.
template <class Kernel>
std::uint64_t map_in_place(const Kernel& kernel,
                           const std::vector<RowRun>& runs, double* data) {
  std::uint64_t active = 0;
  for (const RowRun& run : runs) {
    active += kernel(run.row, run.col_begin, data, data, run.col_count);
    data += run.col_count;
  }
  return active;
}

/// One taped Skil phase, in place on `arr`.  Unfused it books the
/// program's array_map (its span, the tape per active element, the
/// tail over the whole partition); fused, the region pass's tape and
/// tail per active element, and nothing for an idle `owner_only` pass.
template <class Kernel>
void skil_phase(bool fused, const Kernel& kernel,
                const parix::ChargeTape& tape, DistArray<double>& arr,
                bool owner_only = false) {
  if (!fused) return array_map_taped(kernel, tape, arr, arr);
  const std::uint64_t active =
      map_in_place(kernel, arr.my_runs(), arr.local().data());
  if (owner_only && active == 0) return;
  arr.proc().replay(tape, active);
  parix::DeferredCharges deferred(arr.proc());
  detail::array_map_charge_tail<double>(deferred, active);
}

/// One taped DPFL phase on `arr`, handed over as its last handle: the
/// closure record, then the kernel in place.  Unfused it books the
/// program's fa_map (fa_map_taped, in place on the last handle); fused,
/// the tape, apply and element op per active element, and nothing for
/// an idle `owner_only` pass.
template <class Kernel>
dpfl::FArray<double> dpfl_phase(bool fusing, const Kernel& kernel,
                                const parix::ChargeTape& tape,
                                dpfl::FArray<double> arr,
                                bool owner_only = false) {
  parix::Proc& proc = arr.proc();
  std::vector<double>* mine = arr.mutable_local_if_unique();
  SKIL_ASSERT(mine != nullptr,
              "gauss_dpfl: a phase needs the last handle to its array");
  proc.charge(parix::Op::kAlloc);
  if (!fusing) return dpfl::fa_map_taped<double>(kernel, tape, std::move(arr));
  const std::uint64_t active =
      map_in_place(kernel, arr.my_runs(), mine->data());
  if (!owner_only || active > 0) {
    proc.replay(tape, active);
    dpfl::charge_apply(proc, active);
    proc.charge(dpfl::op_kind<double>(), active);
  }
  proc.fusion().note_fused(/*barriers=*/0, /*tapes=*/1);
  return arr;
}

/// Row k of `arr`'s partition, or nullptr off its owner.
template <class Array>
const double* owned_row(const Array& arr, int k) {
  const Bounds bds = arr.part_bounds();
  if (k < bds.lower[0] || k >= bds.upper[0]) return nullptr;
  return arr.local().data() +
         static_cast<std::size_t>(k - bds.lower[0]) * bds.extent(1);
}

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
    const Size shape{size, size + 1};
    const Size block{rows_per_proc, size + 1};

    // a, b: size x (size+1); piv: p x (size+1), one row per processor.
    // The tape path maps in place on `a` and reads `b` only after a
    // permuting step; elsewhere b's creation and copies are charged,
    // not performed (DESIGN.md section 8).
    DistArray<double> a = array_create<double>(
        proc, 2, shape, block, Index{-1, -1}, init_f, parix::Distr::kDefault);
    DistArray<double> b;
    if (taped && !pivoting)
      detail::create_pass<double>(proc, a.local().size(), [] {});
    else
      b = array_create<double>(proc, 2, shape, block, Index{-1, -1}, zero,
                               parix::Distr::kDefault);
    DistArray<double> piv = array_create<double>(
        proc, 2, Size{nprocs, size + 1}, Size{1, size + 1}, Index{-1, -1},
        zero, parix::Distr::kDefault);

    // Fusion (DESIGN.md section 13): the step's copy|pivot|eliminate
    // composition is charged as one region pass over `a`, eliding the
    // copy into `b`, the non-owner pivot maps and the inactive
    // elimination tail.  Requires the tape charge path.
    const bool fuse_on = proc.fuse_mode() == parix::FuseMode::kOn;
    const bool fusing = proc.fusing();

    for (int k = 0; k < size; ++k) {
      const parix::TraceSpan step(proc, "gauss pivot round", k);
      if (fuse_on && !fusing)
        proc.fusion().note_rejected(parix::FusionReject::kPath);
      bool step_fused = fusing;
      bool copy = !fusing;  // the program's array_copy(a, b)
      if (pivoting) {
        const ElemRec e =
            array_fold(make_elemrec, partial(max_abs_in_col, k), a);
        if (std::fabs(e.val) == 0.0)
          throw support::AppError("Matrix is singular");
        if (e.row != k) {
          // The row swap moves rows between partitions: the step runs
          // unfused (kShape), permuting into `b`, and the tape path then
          // maps the permuted rows in place.
          if (fusing)
            proc.fusion().note_rejected(parix::FusionReject::kShape);
          step_fused = copy = false;
          array_permute_rows(a, partial(switch_rows, e.row, k), b);
          if (taped) std::swap(a, b);
        }
      }
      if (copy && taped)
        detail::copy_pass<double>(proc, a.local().size(), [] {});
      else if (copy)
        array_copy(a, b);
      // copy_pivot reads the pivot row from `b`, the tape path from
      // `a`, which holds the same values.  Fused, non-owners book
      // nothing: the broadcast below overwrites their writes.
      if (taped)
        skil_phase(step_fused, pivot_kernel(owned_row(a, k), k), pivot_tape,
                   piv, /*owner_only=*/true);
      else
        array_map(partial(copy_pivot, std::cref(b), k), piv, piv);
      array_broadcast_part(piv, Index{k / rows_per_proc, 0});
      // Elimination.  In place, the factor is still the pre-update
      // a[i][k], and prow[k] == krow[k]/krow[k] == 1.0 exactly, so the
      // j == k update lands on the bits the map from `b` writes.
      if (taped) {
        skil_phase(step_fused, eliminate_kernel(piv.local().data(), k),
                   elim_tape, a);
        if (step_fused) proc.fusion().note_fused(/*barriers=*/0, /*tapes=*/1);
      } else {
        array_map(partial(eliminate, k, std::cref(b), std::cref(piv)), b, a);
      }
    }
    if (fuse_on && !fusing)
      proc.fusion().note_rejected(parix::FusionReject::kPath);
    // normalize|gather: the program maps `a` into `b` and gathers `b`;
    // the tape path divides in place (the diagonal sits left of the
    // written column) and gathers `a`.
    if (taped) {
      skil_phase(fusing, normalize_kernel, norm_tape, a);
      if (fusing) proc.fusion().note_fused(/*barriers=*/0, /*tapes=*/1);
    } else {
      array_map(partial(normalize, std::cref(a), size), a, b);
    }

    const std::vector<double> solved = array_gather_root(taped ? a : b);
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

    // Fusion (DESIGN.md section 13): DPFL's persistent updates charge
    // a fresh partition per map; fused, the intermediate provably has
    // no other observer (use_count == 1), so the update is charged as
    // in place over the active region -- functional deforestation.
    const bool fuse_on = proc.fuse_mode() == parix::FuseMode::kOn;
    const bool fusing = proc.fusing();

    for (int k = 0; k < size; ++k) {
      const parix::TraceSpan step(proc, "gauss pivot round", k);
      if (fuse_on && !fusing)
        proc.fusion().note_rejected(parix::FusionReject::kPath);
      // copy_pivot: normalised pivot-row elements into this
      // processor's piv row when it owns the pivot row.
      if (taped) {
        piv = dpfl_phase(fusing, pivot_kernel(owned_row(a, k), k),
                         pivot_tape, std::move(piv), /*owner_only=*/true);
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

      // Elimination (bit-identity as in gauss_skil_impl).  The interp
      // body's `source` alias pins the old partition and forces a fresh
      // one; the tape path creates no alias.
      if (taped) {
        a = dpfl_phase(fusing, eliminate_kernel(piv.local().data(), k),
                       elim_tape, std::move(a));
      } else {
        const FArray<double> source = a;
        const FArray<double> pivot_rows = piv;
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
      proc.fusion().note_rejected(parix::FusionReject::kPath);
    // normalize: the right-hand-side column over the diagonal.
    if (taped) {
      a = dpfl_phase(fusing, normalize_kernel, norm_tape, std::move(a));
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

    // The broadcast ships the full normalised row (columns below k are
    // already zero); restricting it to the active columns would
    // complicate the code for little gain, so the hand-written program
    // -- like the skeleton's array_broadcast_part -- moves whole rows,
    // through one buffer for the whole run.
    std::vector<double> pivrow(width);
    for (int k = 0; k < size; ++k) {
      const parix::TraceSpan step(proc, "gauss pivot round", k);
      const int owner = k / rows_per_proc;
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
