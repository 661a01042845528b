// The paper's `pardata array <$t>`: a block-distributed array whose
// implementation is hidden behind skeletons and local-access macros.
//
// Each SPMD processor holds its own DistArray<T> value containing the
// global distribution metadata plus that processor's partition
// elements.  As in the paper, single elements can be read or written
// *locally only* (array_get_elem / array_put_elem); any non-local
// element access raises NonLocalAccessError, because "remote accessing
// of single array elements easily leads to very inefficient programs".
// Non-local data movement happens exclusively through the skeletons in
// skil/skeletons.h.
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "parix/proc.h"
#include "skil/distribution.h"

namespace skil {

/// Cost-model operation kind for elements of type T.
template <class T>
constexpr parix::Op op_kind() {
  return std::is_floating_point_v<T> ? parix::Op::kFloatOp
                                     : parix::Op::kIntOp;
}

/// Cost-model words (kCopyWord) a wholesale partition copy of `elems`
/// elements of T moves: its bytes in longs, rounded up.
template <class T>
constexpr std::uint64_t copy_words(std::size_t elems) {
  return (elems * sizeof(T) + sizeof(long) - 1) / sizeof(long);
}

template <class T>
class DistArray {
 public:
  using value_type = T;

  /// An empty (never-created or destroyed) array handle.
  DistArray() = default;

  /// Used by array_create; not part of the public paper API.
  DistArray(parix::Proc& proc, std::shared_ptr<const Distribution> dist)
      : proc_(&proc), dist_(std::move(dist)),
        local_(static_cast<std::size_t>(
            dist_->local_count(dist_->topology().vrank_of(proc.id())))) {
    // Partition geometry is immutable, so the per-access macros below
    // resolve locality and offsets from these cached values instead of
    // recomputing partition_bounds per element (the dominant host cost
    // of element-wise skeleton arguments before this cache existed).
    my_vrank_ = dist_->topology().vrank_of(proc.id());
    dims_ = dist_->dims();
    block_ = dist_->layout() == Layout::kBlock;
    if (block_) {
      bounds_ = dist_->partition_bounds(my_vrank_);
      row0_ = bounds_.lower[0];
      col0_ = dims_ >= 2 ? bounds_.lower[1] : 0;
      width_ = dims_ >= 2 ? bounds_.extent(1) : 1;
    }
  }

  bool valid() const { return dist_ != nullptr; }

  parix::Proc& proc() const {
    SKIL_REQUIRE(valid(), "array was destroyed or never created");
    return *proc_;
  }

  const Distribution& dist() const {
    SKIL_REQUIRE(valid(), "array was destroyed or never created");
    return *dist_;
  }

  std::shared_ptr<const Distribution> dist_ptr() const { return dist_; }

  const parix::Topology& topology() const { return dist().topology(); }

  /// Virtual rank of the owning processor within the array's topology.
  int my_vrank() const {
    SKIL_REQUIRE(valid(), "array was destroyed or never created");
    return my_vrank_;
  }

  /// The paper's array_part_bounds macro: the local partition's index
  /// box (block layout).
  Bounds part_bounds() const {
    if (block_) return bounds_;
    return dist().partition_bounds(my_vrank());
  }

  /// The paper's array_get_elem macro: reads a *local* element.
  T get_elem(const Index& ix) const {
    if (block_ && bounds_.contains(ix, dims_)) [[likely]] {
      append_get_elem_charges(*proc_);
      return local_[local_offset_fast(ix)];
    }
    check_local(ix);  // throws for non-local / invalid; cyclic falls through
    append_get_elem_charges(*proc_);
    return local_[dist_->local_offset(my_vrank_, ix)];
  }

  /// Appends the charge sequence of one get_elem to `sink` (a Proc or
  /// a ChargeTape): get_elem charges through this, and the taped maps'
  /// tapes are recorded with it.
  template <class Sink>
  static void append_get_elem_charges(Sink& sink) {
    sink.charge(op_kind<T>());
  }

  /// The paper's array_put_elem macro: overwrites a *local* element.
  void put_elem(const Index& ix, T value) {
    if (block_ && bounds_.contains(ix, dims_)) [[likely]] {
      proc_->charge(op_kind<T>());
      local_[local_offset_fast(ix)] = std::move(value);
      return;
    }
    check_local(ix);
    proc_->charge(op_kind<T>());
    local_[dist_->local_offset(my_vrank_, ix)] = std::move(value);
  }

  /// Direct access to the partition storage (used by skeletons and by
  /// the hand-written Parix-C baselines; not part of the Skil surface).
  std::vector<T>& local() {
    SKIL_REQUIRE(valid(), "array was destroyed or never created");
    return local_;
  }
  const std::vector<T>& local() const {
    SKIL_REQUIRE(valid(), "array was destroyed or never created");
    return local_;
  }

  /// The local row runs of this processor's partition.
  const std::vector<RowRun>& my_runs() const {
    return dist().local_runs(my_vrank());
  }

  /// Releases the storage; the handle becomes invalid.  Implements the
  /// paper's array_destroy (RAII destroys unreleased arrays anyway).
  void destroy() {
    dist_.reset();
    block_ = false;  // disable the cached fast path with the handle
    local_.clear();
    local_.shrink_to_fit();
  }

 private:
  /// Storage offset of a contained index (block layout only).
  std::size_t local_offset_fast(const Index& ix) const {
    const int col = dims_ >= 2 ? ix[1] : 0;
    return static_cast<std::size_t>(
        static_cast<long>(ix[0] - row0_) * width_ + (col - col0_));
  }

  void check_local(const Index& ix) const {
    SKIL_REQUIRE(valid(), "array was destroyed or never created");
    const int vrank = my_vrank();
    if (dist_->layout() == Layout::kBlock) {
      const Bounds bounds = dist_->partition_bounds(vrank);
      if (!bounds.contains(ix, dist_->dims()))
        throw support::NonLocalAccessError(
            "element " + to_string(ix, dist_->dims()) +
            " is not in the local partition " +
            to_string(bounds, dist_->dims()));
    } else if (dist_->owner_vrank(ix) != vrank) {
      throw support::NonLocalAccessError(
          "element " + to_string(ix, dist_->dims()) +
          " is not stored on this processor");
    }
  }

  parix::Proc* proc_ = nullptr;
  std::shared_ptr<const Distribution> dist_;
  std::vector<T> local_;
  // Cached partition geometry (see the array_create constructor).
  Bounds bounds_;
  int my_vrank_ = 0;
  int dims_ = 1;
  int row0_ = 0;
  int col0_ = 0;
  int width_ = 1;
  bool block_ = false;
};

}  // namespace skil
