#include "apps/matmul.h"

#include <utility>
#include <vector>

#include "dpfl/dpfl.h"
#include "parix/collectives.h"
#include "skil/skil.h"

namespace skil::apps {

namespace {

using support::dense_entry;

/// Operand entries: matrix A from `seed`, matrix B from `seed ^ flip`;
/// padded indices multiply as zero.
double operand_entry(int n, std::uint64_t seed, bool second, int i, int j) {
  if (i >= n || j >= n) return 0.0;
  return dense_entry(second ? seed ^ 0x5a5a5a5aULL : seed, i, j);
}

}  // namespace

int matmul_round_up(int n, int nprocs) {
  const parix::MeshShape mesh = parix::near_square_mesh(nprocs);
  SKIL_REQUIRE(mesh.rows == mesh.cols,
               "matmul needs a square processor grid");
  return ((n + mesh.rows - 1) / mesh.rows) * mesh.rows;
}

MatmulResult matmul_skil(int nprocs, int n, std::uint64_t seed,
                         parix::CostModel cost) {
  const int size = matmul_round_up(n, nprocs);
  MatmulResult result;
  parix::RunConfig config{nprocs, cost};

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    auto init_a = [&](Index ix) {
      return operand_entry(n, seed, false, ix[0], ix[1]);
    };
    auto init_b = [&](Index ix) {
      return operand_entry(n, seed, true, ix[0], ix[1]);
    };
    DistArray<double> a = array_create<double>(
        proc, 2, Size{size, size}, init_a, parix::Distr::kTorus2D);
    DistArray<double> b = array_create<double>(
        proc, 2, Size{size, size}, init_b, parix::Distr::kTorus2D);
    // Fusible create|gen_mult composition: `c` is created with the
    // fold identity, so under SKIL_FUSE=on the fill pass is elided
    // (the fresh partition already holds those bits) and gen_mult
    // skips its restoring unskew (DESIGN.md section 13).  Unfused
    // this is bit-identical to array_create with a `zero` closure.
    DistArray<double> c = array_create_const<double>(
        proc, 2, Size{size, size}, 0.0, parix::Distr::kTorus2D);

    // "If the actual multiplication and addition are used, then we
    // obtain the classical matrix multiplication."
    array_gen_mult(a, b, fn::plus, fn::times, c);

    std::vector<double> flat = array_gather_root(c);
    if (proc.id() == 0) {
      result.product = support::Matrix<double>(size, size);
      result.product.storage() = std::move(flat);
    }

    array_destroy(a);
    array_destroy(b);
    array_destroy(c);
  });
  return result;
}

MatmulResult matmul_dpfl(int nprocs, int n, std::uint64_t seed,
                         parix::CostModel cost) {
  const int size = matmul_round_up(n, nprocs);
  MatmulResult result;
  parix::RunConfig config{nprocs, cost};

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    using dpfl::Closure;
    using dpfl::FArray;
    const Closure<double(Index)> init_a(proc, [&](Index ix) {
      return operand_entry(n, seed, false, ix[0], ix[1]);
    });
    const Closure<double(Index)> init_b(proc, [&](Index ix) {
      return operand_entry(n, seed, true, ix[0], ix[1]);
    });
    const Closure<double(double, double)> add(
        proc, [](double x, double y) { return x + y; });
    const Closure<double(double, double)> mult(
        proc, [](double x, double y) { return x * y; });

    FArray<double> a = dpfl::fa_create<double>(proc, 2, Size{size, size},
                                               init_a, parix::Distr::kTorus2D);
    FArray<double> b = dpfl::fa_create<double>(proc, 2, Size{size, size},
                                               init_b, parix::Distr::kTorus2D);
    // The combines inline into the multiply loop; the add and mult
    // Closures above charge the program's closure records.
    FArray<double> c = dpfl::fa_gen_mult(
        a, b, [](double x, double y) { return x + y; },
        [](double x, double y) { return x * y; });

    std::vector<double> flat = dpfl::fa_gather_root(c);
    if (proc.id() == 0) {
      result.product = support::Matrix<double>(size, size);
      result.product.storage() = std::move(flat);
    }
  });
  return result;
}

MatmulResult matmul_c(int nprocs, int n, std::uint64_t seed,
                      parix::CostModel cost) {
  const int size = matmul_round_up(n, nprocs);
  MatmulResult result;
  parix::RunConfig config{nprocs, cost};

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    const parix::Topology topo(proc.machine(), parix::Distr::kTorus2D);
    const int q = topo.grid_rows();
    const int block = size / q;
    const int my_row = topo.grid_row(proc.id());
    const int my_col = topo.grid_col(proc.id());
    const std::size_t cells = static_cast<std::size_t>(block) * block;

    auto rotate = [&](std::vector<double> payload, int drow, int dcol) {
      const long tag = proc.fresh_tag();
      const int dst = topo.at_grid(my_row + drow, my_col + dcol);
      const int src = topo.at_grid(my_row - drow, my_col - dcol);
      if (dst == proc.id()) return payload;
      proc.send<std::vector<double>>(dst, tag, std::move(payload));
      return proc.recv<std::vector<double>>(src, tag);
    };

    std::vector<double> a_block(cells);
    std::vector<double> b_block(cells);
    for (int i = 0; i < block; ++i)
      for (int j = 0; j < block; ++j) {
        const int gi = my_row * block + i;
        const int gj = my_col * block + j;
        a_block[static_cast<std::size_t>(i) * block + j] =
            operand_entry(n, seed, false, gi, gj);
        b_block[static_cast<std::size_t>(i) * block + j] =
            operand_entry(n, seed, true, gi, gj);
      }
    proc.charge(parix::Op::kFloatOp, 2 * cells);

    a_block = rotate(std::move(a_block), 0, -my_row);
    b_block = rotate(std::move(b_block), -my_col, 0);

    std::vector<double> c_block(cells, 0.0);
    const int a_dst = topo.at_grid(my_row, my_col - 1);
    const int a_src = topo.at_grid(my_row, my_col + 1);
    const int b_dst = topo.at_grid(my_row - 1, my_col);
    const int b_src = topo.at_grid(my_row + 1, my_col);
    for (int round = 0; round < q; ++round) {
      const bool last = round + 1 == q;
      const long tag = proc.fresh_tag();
      if (!last && q > 1) {
        // Equally optimized: asynchronous rotations overlap the local
        // block product, like the skeleton implementation.
        proc.send_mode<std::vector<double>>(a_dst, tag, a_block,
                                            parix::SendMode::kAsync);
        proc.send_mode<std::vector<double>>(b_dst, tag + 1, b_block,
                                            parix::SendMode::kAsync);
        proc.charge(parix::Op::kCopyWord, 2 * cells);
      }
      for (int i = 0; i < block; ++i)
        for (int k = 0; k < block; ++k) {
          const double aik = a_block[static_cast<std::size_t>(i) * block + k];
          const double* brow = &b_block[static_cast<std::size_t>(k) * block];
          double* crow = &c_block[static_cast<std::size_t>(i) * block];
          for (int j = 0; j < block; ++j) crow[j] += aik * brow[j];
        }
      proc.charge(parix::Op::kFloatOp,
                  2 * static_cast<std::uint64_t>(cells) * block);
      if (!last && q > 1) {
        a_block = proc.recv<std::vector<double>>(a_src, tag);
        b_block = proc.recv<std::vector<double>>(b_src, tag + 1);
      }
    }

    const parix::Topology gather_topo(proc.machine(), parix::Distr::kDefault);
    std::vector<std::vector<double>> parts =
        parix::gather(proc, gather_topo, 0, std::move(c_block));
    if (proc.id() == 0) {
      result.product = support::Matrix<double>(size, size);
      for (int p = 0; p < nprocs; ++p) {
        const int pr = topo.grid_row(p);
        const int pc = topo.grid_col(p);
        for (int i = 0; i < block; ++i)
          for (int j = 0; j < block; ++j)
            result.product(pr * block + i, pc * block + j) =
                parts[p][static_cast<std::size_t>(i) * block + j];
      }
    }
  });
  return result;
}

MatmulResult matmul_summa(int nprocs, int n, std::uint64_t seed,
                          parix::CostModel cost) {
  const int size = matmul_round_up(n, nprocs);
  MatmulResult result;
  parix::RunConfig config{nprocs, cost};

  result.run = parix::spmd_run(config, [&](parix::Proc& proc) {
    const parix::Topology topo(proc.machine(), parix::Distr::kTorus2D);
    const int q = topo.grid_rows();
    const int block = size / q;
    const int my_row = topo.grid_row(proc.id());
    const int my_col = topo.grid_col(proc.id());
    const std::size_t cells = static_cast<std::size_t>(block) * block;
    const std::size_t panel_bytes = cells * sizeof(double);

    // Row and column communicators with disjoint tag streams: the
    // k-step panel broadcasts below run on them concurrently without
    // any cross-matching (DESIGN.md section 15).
    const parix::Topology row_comm = topo.split_rows(proc.id());
    const parix::Topology col_comm = topo.split_cols(proc.id());

    std::vector<double> a_block(cells);
    std::vector<double> b_block(cells);
    for (int i = 0; i < block; ++i)
      for (int j = 0; j < block; ++j) {
        const int gi = my_row * block + i;
        const int gj = my_col * block + j;
        a_block[static_cast<std::size_t>(i) * block + j] =
            operand_entry(n, seed, false, gi, gj);
        b_block[static_cast<std::size_t>(i) * block + j] =
            operand_entry(n, seed, true, gi, gj);
      }
    proc.charge(parix::Op::kFloatOp, 2 * cells);

    // SUMMA: for every panel step k, the column-k owner broadcasts
    // A(i,k) along its grid row and the row-k owner broadcasts B(k,j)
    // down its grid column; every processor then accumulates the
    // block outer product.  The k order is fixed, so the C summation
    // order -- and hence the product bits -- never depends on the
    // broadcast algorithm the zoo picks.
    std::vector<double> c_block(cells, 0.0);
    for (int k = 0; k < q; ++k) {
      std::vector<double> a_panel;
      if (my_col == k) a_panel = a_block;
      parix::broadcast(proc, row_comm, topo.at_grid(my_row, k), a_panel,
                       panel_bytes);
      std::vector<double> b_panel;
      if (my_row == k) b_panel = b_block;
      parix::broadcast(proc, col_comm, topo.at_grid(k, my_col), b_panel,
                       panel_bytes);

      for (int i = 0; i < block; ++i)
        for (int kk = 0; kk < block; ++kk) {
          const double aik = a_panel[static_cast<std::size_t>(i) * block + kk];
          const double* brow = &b_panel[static_cast<std::size_t>(kk) * block];
          double* crow = &c_block[static_cast<std::size_t>(i) * block];
          for (int j = 0; j < block; ++j) crow[j] += aik * brow[j];
        }
      proc.charge(parix::Op::kFloatOp,
                  2 * static_cast<std::uint64_t>(cells) * block);
    }

    const parix::Topology gather_topo(proc.machine(), parix::Distr::kDefault);
    std::vector<std::vector<double>> parts =
        parix::gather(proc, gather_topo, 0, std::move(c_block));
    if (proc.id() == 0) {
      result.product = support::Matrix<double>(size, size);
      for (int p = 0; p < nprocs; ++p) {
        const int pr = topo.grid_row(p);
        const int pc = topo.grid_col(p);
        for (int i = 0; i < block; ++i)
          for (int j = 0; j < block; ++j)
            result.product(pr * block + i, pc * block + j) =
                parts[p][static_cast<std::size_t>(i) * block + j];
      }
    }
  });
  return result;
}

}  // namespace skil::apps
