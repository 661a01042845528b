// The simulated hardware: a 2-D mesh of processors with one mailbox
// each, mirroring the Parsytec MC's transputer grid.
//
// The mesh shape is chosen as close to square as possible (the real
// machine was 8x8).  Hop counts between processors use the Manhattan
// metric; virtual topologies (parix/topology.h) are embedded into this
// mesh and inherit their link costs from it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "parix/coll.h"
#include "parix/cost_model.h"
#include "parix/mailbox.h"

namespace skil::parix {

/// Hardware mesh dimensions.
struct MeshShape {
  int rows = 0;
  int cols = 0;
};

/// Picks the most nearly square rows x cols factorisation of p
/// (rows <= cols), e.g. 64 -> 8x8, 32 -> 4x8, 6 -> 2x3, 7 -> 1x7.
MeshShape near_square_mesh(int nprocs);

class Machine {
 public:
  Machine(int nprocs, CostModel cost);

  int nprocs() const { return nprocs_; }
  const CostModel& cost() const { return cost_; }
  MeshShape shape() const { return shape_; }

  /// Mesh row/column of processor `p`.
  int mesh_row(int p) const { return p / shape_.cols; }
  int mesh_col(int p) const { return p % shape_.cols; }

  /// Manhattan hop distance between two processors.
  int hops(int a, int b) const;

  Mailbox& mailbox(int p) { return *mailboxes_[p]; }

  /// Engine-aware blocking receive for processor `p`: the threads
  /// engine blocks on the mailbox's condition variable, the pooled
  /// engine parks the calling fiber on the executor instead.
  Message blocking_get(int p, int src, long tag);

  /// Switches blocking_get to fiber parking (set by the pooled engine
  /// before the run starts; single-threaded at that point).
  void set_fiber_wait(bool on) { fiber_wait_ = on; }

  /// Aborts all pending and future receives; called when an SPMD thread
  /// terminates with an exception.
  void poison_all(const std::string& reason);

  /// The run's memoized SKIL_COLL=auto value for `key`, from
  /// `compute()` on first use.  Every member derives the same value
  /// for a key, so the first to ask evaluates it for all of them.
  template <class Compute>
  std::uint8_t coll_pick(const CollPickKey& key, Compute&& compute) {
    const std::lock_guard<std::mutex> lock(coll_picks_mu_);
    return coll_picks_.get(key, compute);
  }

 private:
  int nprocs_;
  CostModel cost_;
  MeshShape shape_;
  bool fiber_wait_ = false;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::mutex coll_picks_mu_;  ///< guards coll_picks_
  CollPickMemo coll_picks_;
};

}  // namespace skil::parix
