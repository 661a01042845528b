// array_broadcast_part and array_permute_rows (paper section 3).
//
//   void array_broadcast_part(array <$t> a, Index ix);
//   void array_permute_rows(array <$t> from, int perm_f(int),
//                           array <$t> to);
//
// array_broadcast_part broadcasts the partition containing index `ix`
// to all processors, each of which overwrites its own partition with
// the broadcast one (the paper's Gaussian elimination uses this to
// distribute the pivot row via the one-row-per-processor `piv` array).
//
// array_permute_rows permutes the rows of a 2-D array with a
// user-supplied permutation function on row numbers.  "The user must
// provide a bijective function on {0, 1, ..., n-1} ... otherwise a
// run-time error occurs" -- the bijectivity check runs up front on
// every processor (it is pure local computation because perm_f is a
// plain function of the row number), so a bad permutation raises
// ContractError instead of deadlocking the exchange.
#pragma once

#include <utility>
#include <vector>

#include "parix/collectives.h"
#include "parix/proc.h"
#include "skil/dist_array.h"

namespace skil {

/// Wire batch of full-width row segments exchanged by
/// array_permute_rows: data holds the concatenated segments of the
/// listed target rows, each `segment` elements long.
template <class T>
struct RowBatch {
  std::vector<int> target_rows;
  std::vector<T> data;
};

/// Wire-size estimate for the message layer (found by ADL).
template <class T>
std::size_t payload_bytes(const RowBatch<T>& batch) {
  return batch.target_rows.size() * sizeof(int) +
         batch.data.size() * sizeof(T) + 16;
}

/// Broadcasts the partition containing `ix`; every processor
/// overwrites its partition with the broadcast one.
template <class T>
void array_broadcast_part(DistArray<T>& a, Index ix) {
  SKIL_REQUIRE(a.valid(), "array_broadcast_part: invalid array");
  SKIL_REQUIRE(a.dist().uniform_partitions(),
               "array_broadcast_part: partitions must have equal size");
  const parix::TraceSpan span(a.proc(), "array_broadcast_part");
  const int root_hw = a.dist().owner_hw(ix);
  // Partitions are uniform (REQUIREd above), so every processor can
  // hand the collective the same payload-size hint, and the broadcast
  // lands straight in each partition's storage.  SKIL_COLL=ring always
  // chunk-pipelines it; auto does so only for partitions large enough
  // that the ring's per-call gap is no worse than the tree's.
  const std::size_t size = a.local().size();
  parix::broadcast(a.proc(), a.topology(), root_hw, a.local(),
                   size * sizeof(T));
  SKIL_ASSERT(a.local().size() == size,
              "array_broadcast_part: partition size mismatch");
  a.proc().charge(parix::Op::kCopyWord, copy_words<T>(size));
}

/// Permutes the rows of the 2-D array `from` into `to` using the
/// functional argument `perm_f` (new row = perm_f(old row)).
///
/// Cost model: one call per row for the permutation function, copy
/// traffic for every moved row, messages for rows that change
/// processors.
template <class PermF, class T>
void array_permute_rows(const DistArray<T>& from, PermF perm_f,
                        DistArray<T>& to) {
  SKIL_REQUIRE(from.valid() && to.valid(),
               "array_permute_rows: invalid array");
  SKIL_REQUIRE(from.dist().dims() == 2,
               "array_permute_rows applies only to 2-dimensional arrays");
  SKIL_REQUIRE(from.dist().same_placement(to.dist()),
               "array_permute_rows: arrays must share one distribution");
  SKIL_REQUIRE(from.dist().layout() == Layout::kBlock,
               "array_permute_rows requires a block distribution");
  SKIL_REQUIRE(&from.local() != &to.local(),
               "array_permute_rows: source and target must be distinct");
  parix::Proc& proc = from.proc();
  const parix::TraceSpan span(proc, "array_permute_rows");
  const Distribution& dist = from.dist();
  const int n = dist.global_rows();

  // Up-front bijectivity validation (paper: "otherwise a run-time
  // error occurs").  perm_f is a pure function of the row number, so
  // every processor can check the whole permutation locally and build
  // the inverse needed to anticipate incoming rows.
  std::vector<int> inverse(n, -1);
  for (int row = 0; row < n; ++row) {
    const int target = perm_f(row);
    SKIL_REQUIRE(target >= 0 && target < n,
                 "array_permute_rows: perm_f(" + std::to_string(row) +
                     ") = " + std::to_string(target) + " is out of range");
    SKIL_REQUIRE(inverse[target] < 0,
                 "array_permute_rows: perm_f is not a bijection (value " +
                     std::to_string(target) + " produced twice)");
    inverse[target] = row;
  }
  proc.charge(parix::Op::kCall, static_cast<std::uint64_t>(n));
  proc.charge(parix::Op::kIntOp, static_cast<std::uint64_t>(n));

  const parix::Topology& topo = from.topology();
  const long tag = topo.fresh_tag(proc);
  const int p = topo.nprocs();
  const int my_vrank = from.my_vrank();
  const auto& src = from.local();
  auto& dst = to.local();

  // Group outgoing row segments by destination virtual rank.  A row
  // segment is this partition's column range of one row; with a torus
  // block grid a row is spread over a whole block-grid row of
  // processors and every segment moves vertically within its column.
  std::vector<RowBatch<T>> outgoing(p);
  std::size_t src_offset = 0;
  std::uint64_t copied_words = 0;
  for (const RowRun& run : from.my_runs()) {
    const int target = perm_f(run.row);
    const int dest =
        dist.owner_vrank(Index{target, run.col_begin});
    RowBatch<T>& batch = outgoing[dest];
    batch.target_rows.push_back(target);
    batch.data.insert(batch.data.end(), src.begin() + src_offset,
                      src.begin() + src_offset + run.col_count);
    src_offset += run.col_count;
    copied_words += (run.col_count * sizeof(T)) / sizeof(long) + 1;
  }
  proc.charge(parix::Op::kCall, from.my_runs().size());
  proc.charge(parix::Op::kCopyWord, copied_words);

  for (int dest = 0; dest < p; ++dest) {
    if (dest == my_vrank || outgoing[dest].target_rows.empty()) continue;
    proc.send<RowBatch<T>>(topo.hw_of(dest), tag, std::move(outgoing[dest]));
  }

  // Deposit one received batch into the target partition.
  auto deposit = [&](const RowBatch<T>& batch) {
    std::size_t data_offset = 0;
    for (std::size_t i = 0; i < batch.target_rows.size(); ++i) {
      const int row = batch.target_rows[i];
      const Bounds bounds = to.part_bounds();
      const int col_begin = bounds.lower[1];
      const int width = bounds.extent(1);
      const long offset =
          dist.local_offset(my_vrank, Index{row, col_begin});
      std::copy(batch.data.begin() + data_offset,
                batch.data.begin() + data_offset + width,
                dst.begin() + offset);
      data_offset += width;
    }
  };

  deposit(outgoing[my_vrank]);

  // Receive exactly the batches the inverse permutation predicts:
  // a source processor sends to us iff one of its rows lands in our
  // row range.  An empty partition (array smaller than the machine)
  // receives nothing.
  const Bounds my_bounds = to.part_bounds();
  std::vector<bool> expecting(p, false);
  if (my_bounds.extent(0) > 0 && my_bounds.extent(1) > 0) {
    for (int row = my_bounds.lower[0]; row < my_bounds.upper[0]; ++row) {
      const int source_row = inverse[row];
      const int source_vrank =
          dist.owner_vrank(Index{source_row, my_bounds.lower[1]});
      if (source_vrank != my_vrank) expecting[source_vrank] = true;
    }
  }
  for (int source = 0; source < p; ++source) {
    if (!expecting[source]) continue;
    const RowBatch<T> batch =
        proc.recv<RowBatch<T>>(topo.hw_of(source), tag);
    deposit(batch);
  }
}

}  // namespace skil
