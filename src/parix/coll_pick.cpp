// SKIL_COLL=auto's selection model (collectives.h, "kAuto selection";
// DESIGN.md section 15): every candidate algorithm as a per-member
// Schedule, the completion dry run and the gap term.  Out of line so
// that the collectives' call sites carry one call, not the model.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parix/collectives.h"
#include "support/error.h"

namespace skil::parix::coll_detail {

namespace {

/// Wire bytes of a vector of `elems` elements (payload_bytes).
std::size_t vector_bytes(std::size_t elems, std::size_t elem) {
  return elems * elem + 8;
}

/// broadcast_tree, from rank 0.
void tree_bcast_steps(Schedule& s, int p, int rel, std::size_t bytes) {
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      s.recv(rel - mask, bytes);
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1)
    if (rel + mask < p) s.send(rel + mask, bytes);
}

/// reduce_tree onto rank 0; `combine_us` is charged after each receive.
void tree_reduce_steps(Schedule& s, int p, int rel, std::size_t bytes,
                       double combine_us) {
  for (int mask = 1; mask < p; mask <<= 1) {
    if (rel & mask) {
      s.send(rel - mask, bytes);
      return;
    }
    if (rel + mask < p) {
      s.recv(rel + mask, bytes);
      if (combine_us > 0.0) s.charge(combine_us);
    }
  }
}

/// broadcast_ring_chain.
void ring_chain_steps(Schedule& s, int p, int rel, std::size_t bytes) {
  if (rel > 0) s.recv(rel - 1, bytes);
  if (rel + 1 < p) s.send(rel + 1, bytes);
}

/// broadcast_ring_pipelined of `elems` elements.
void ring_pipeline_steps(Schedule& s, int p, int rel, std::size_t elems,
                         std::size_t elem) {
  for (int c = 0; c < kBcastChunks; ++c) {
    const std::size_t bytes = vector_bytes(
        segment_start(elems, kBcastChunks, c + 1) -
            segment_start(elems, kBcastChunks, c),
        elem);
    if (rel > 0) s.recv(rel - 1, bytes);
    if (rel + 1 < p) s.send(rel + 1, bytes);
  }
}

/// gather onto rank 0, receives in rank order.
void gather_steps(Schedule& s, int p, int rank, std::size_t item) {
  if (rank != 0) {
    s.send(0, item);
    return;
  }
  for (int r = 1; r < p; ++r) s.recv(r, item);
}

/// allgather_ring.
void ring_allgather_steps(Schedule& s, int p, int me, std::size_t item) {
  for (int step = 0; step + 1 < p; ++step) {
    s.send((me + 1) % p, item);
    s.recv((me - 1 + p) % p, item);
  }
}

/// allgather_bruck.
void bruck_steps(Schedule& s, int p, int me, std::size_t item) {
  for (int len = 1; len < p;) {
    const int cnt = std::min(len, p - len);
    const std::size_t bytes = vector_bytes(static_cast<std::size_t>(cnt), item);
    s.send((me - len + p) % p, bytes);
    s.recv((me + len) % p, bytes);
    len += cnt;
  }
}

/// allreduce_elems' ring reduce-scatter + ring allgather.
void ring_elems_steps(Schedule& s, int p, int me, std::size_t n,
                      std::size_t elem, double unit_us) {
  const auto seg_elems = [&](int k) {
    const int j = ((k % p) + p) % p;
    return segment_start(n, p, j + 1) - segment_start(n, p, j);
  };
  for (int step = 0; step + 1 < p; ++step) {
    s.send((me + 1) % p, vector_bytes(seg_elems(me - step), elem));
    const std::size_t in = seg_elems(me - step - 1);
    s.recv((me - 1 + p) % p, vector_bytes(in, elem));
    s.charge(unit_us * static_cast<double>(in));
  }
  for (int step = 0; step + 1 < p; ++step) {
    s.send((me + 1) % p, vector_bytes(seg_elems(me + 1 - step), elem));
    s.recv((me - 1 + p) % p, vector_bytes(seg_elems(me - step), elem));
  }
}

/// allreduce_elems' Rabenseifner halving + doubling (p a power of two).
void raben_elems_steps(Schedule& s, int p, int me, std::size_t n,
                       std::size_t elem, double unit_us) {
  const auto span = [&](int lo, int count) {
    return segment_start(n, p, lo + count) - segment_start(n, p, lo);
  };
  for (int mask = p / 2; mask >= 1; mask >>= 1) {
    const int base = (me / (2 * mask)) * (2 * mask);
    const bool lower = (me & mask) == 0;
    const std::size_t keep = span(lower ? base : base + mask, mask);
    const std::size_t give = span(lower ? base + mask : base, mask);
    s.send(me ^ mask, vector_bytes(give, elem));
    s.recv(me ^ mask, vector_bytes(keep, elem));
    s.charge(unit_us * static_cast<double>(keep));
  }
  for (int mask = 1; mask < p; mask <<= 1) {
    const int partner = me ^ mask;
    s.send(partner, vector_bytes(span((me / mask) * mask, mask), elem));
    s.recv(partner, vector_bytes(span((partner / mask) * mask, mask), elem));
  }
}

/// Appends member r's steps of `algo` for the call `key` describes, on
/// p members.
void member_steps(Schedule& s, const CollPickKey& key, CollAlgo algo,
                  int p, int r, const CostModel& cost) {
  const std::size_t n = key.size;
  const std::size_t elem = key.elem;
  switch (static_cast<PickSite>(key.site)) {
    case PickSite::kBcastValue:
      if (algo == CollAlgo::kRing)
        ring_chain_steps(s, p, r, n);
      else
        tree_bcast_steps(s, p, r, n);
      break;
    case PickSite::kBcastVector:
      if (algo == CollAlgo::kRing)
        ring_pipeline_steps(s, p, r, n, elem);
      else
        tree_bcast_steps(s, p, r, vector_bytes(n, elem));
      break;
    case PickSite::kAllgather:
    case PickSite::kAllreduce:
      if (algo == CollAlgo::kRing) {
        ring_allgather_steps(s, p, r, n);
      } else if (algo == CollAlgo::kRecDouble) {
        bruck_steps(s, p, r, n);
      } else if (static_cast<PickSite>(key.site) == PickSite::kAllgather) {
        gather_steps(s, p, r, n);
        tree_bcast_steps(s, p, r,
                         vector_bytes(static_cast<std::size_t>(p), n));
      } else {
        // The closing value broadcast is priced as the tree it
        // resolves to for scalar operands.
        tree_reduce_steps(s, p, r, n, 0.0);
        tree_bcast_steps(s, p, r, n);
      }
      break;
    case PickSite::kAllreduceElems: {
      const double unit_us = cost.unit(static_cast<Op>(key.kind));
      if (algo == CollAlgo::kRing) {
        ring_elems_steps(s, p, r, n, elem, unit_us);
      } else if (algo == CollAlgo::kRabenseifner) {
        raben_elems_steps(s, p, r, n, elem, unit_us);
      } else {
        tree_reduce_steps(s, p, r, vector_bytes(n, elem),
                          unit_us * static_cast<double>(n));
        tree_bcast_steps(s, p, r, vector_bytes(n, elem));
      }
      break;
    }
  }
  s.end_member();
}

/// Member m's per-call cost: its own clock's overhead or its busiest
/// link channel, whichever is larger.
double member_gap_us(const Schedule& s, int m, const CostModel& cost) {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::array<double, 4> out{};
  std::array<double, 4> in{};
  for (const DryStep* st = s.begin(m); st != s.end(m); ++st) {
    if (st->kind == DryStep::kCharge) continue;
    const bool send = st->kind == DryStep::kSend;
    (send ? sends : recvs) += 1;
    Proc::earliest(send ? out : in) +=
        cost.msg_per_byte_us * static_cast<double>(st->bytes);
  }
  const double overhead = static_cast<double>(sends) * cost.msg_startup_us +
                          static_cast<double>(recvs) * cost.recv_overhead_us;
  return std::max({overhead, *std::max_element(out.begin(), out.end()),
                   *std::max_element(in.begin(), in.end())});
}

/// True when no member of `algo`'s call costs more per call than
/// `limit_us`.  Emits the members one at a time and stops at the first
/// that does, so a ring that loses on its first member is never built
/// for the other p - 1.
bool gap_within(const CollPickKey& key, CollAlgo algo, int p,
                const CostModel& cost, double limit_us) {
  Schedule s;
  for (int r = 0; r < p; ++r) {
    member_steps(s, key, algo, p, r, cost);
    if (member_gap_us(s, r, cost) > limit_us) return false;
  }
  return true;
}

std::uint8_t algo_bit(CollAlgo algo) {
  return static_cast<std::uint8_t>(1u << static_cast<int>(algo));
}

/// The non-tree algorithms a site can take on p members, in tie-break
/// order.
std::vector<CollAlgo> candidates(const CollPickKey& key, int p) {
  switch (static_cast<PickSite>(key.site)) {
    case PickSite::kAllgather:
    case PickSite::kAllreduce:
      return {CollAlgo::kRecDouble, CollAlgo::kRing};
    case PickSite::kAllreduceElems:
      if (is_pow2(p)) return {CollAlgo::kRabenseifner, CollAlgo::kRing};
      return {CollAlgo::kRing};
    case PickSite::kBcastValue:
    case PickSite::kBcastVector:
      break;
  }
  return {CollAlgo::kRing};
}

}  // namespace

Schedule schedule_for(const CollPickKey& key, CollAlgo algo, int p,
                      const CostModel& cost) {
  Schedule s;
  for (int r = 0; r < p; ++r) member_steps(s, key, algo, p, r, cost);
  return s;
}

double gap_us(const Schedule& s, const CostModel& cost) {
  double gap = 0.0;
  for (int m = 0; m < s.members(); ++m)
    gap = std::max(gap, member_gap_us(s, m, cost));
  return gap;
}

double completion_us(const Schedule& s, const Topology& topo,
                     const CostModel& cost, int vroot) {
  const int p = s.members();
  struct Member {
    double vtime = 0.0;
    std::array<double, 4> out{};
    std::array<double, 4> in{};
    const DryStep* next = nullptr;
  };
  struct InFlight {
    int src;
    std::size_t bytes;
    double arrival;
  };
  std::vector<Member> members(static_cast<std::size_t>(p));
  std::vector<std::vector<InFlight>> inbox(static_cast<std::size_t>(p));
  for (int m = 0; m < p; ++m)
    members[static_cast<std::size_t>(m)].next = s.begin(m);
  const auto hw = [&](int rank) { return topo.hw_of((rank + vroot) % p); };

  for (bool progress = true; progress;) {
    progress = false;
    for (int m = 0; m < p; ++m) {
      Member& me = members[static_cast<std::size_t>(m)];
      for (; me.next != s.end(m); ++me.next, progress = true) {
        const DryStep& st = *me.next;
        if (st.kind == DryStep::kCharge) {
          me.vtime += st.us;
        } else if (st.kind == DryStep::kSend) {
          const double ready = me.vtime + cost.msg_startup_us;
          const double first_hop_us =
              cost.msg_per_byte_us * static_cast<double>(st.bytes);
          double& channel = Proc::earliest(me.out);
          const double link_start = std::max(ready, channel);
          channel = link_start + first_hop_us;
          const double arrival =
              link_start +
              cost.transfer_us(st.bytes, topo.hops(hw(m), hw(st.peer))) -
              cost.msg_startup_us;
          inbox[static_cast<std::size_t>(st.peer)].push_back(
              {m, st.bytes, arrival});
          me.vtime =
              cost.default_send_mode == SendMode::kSync ? arrival : ready;
        } else {
          // Messages between one pair are received in the order they
          // were sent, in every algorithm, so the first match is it.
          auto& box = inbox[static_cast<std::size_t>(m)];
          const auto msg = std::find_if(box.begin(), box.end(),
                                        [&](const InFlight& f) {
                                          return f.src == st.peer;
                                        });
          if (msg == box.end()) break;
          const double last_hop_us =
              cost.msg_per_byte_us * static_cast<double>(msg->bytes);
          double& channel = Proc::earliest(me.in);
          const double queued = channel + last_hop_us;
          const double delivered = std::max(msg->arrival, queued);
          channel = delivered;
          me.vtime = std::max(me.vtime + cost.recv_overhead_us, delivered);
          box.erase(msg);
        }
      }
    }
  }
  double latest = 0.0;
  for (int m = 0; m < p; ++m) {
    SKIL_ASSERT(members[static_cast<std::size_t>(m)].next == s.end(m),
                "collective dry run: schedule cannot complete");
    latest = std::max(latest, members[static_cast<std::size_t>(m)].vtime);
  }
  return latest;
}

CollAlgo pick_auto(Proc& proc, const Topology& topo, CollPickKey key,
                   int vroot) {
  const int p = topo.nprocs();
  const CostModel& cost = proc.cost();
  key.distr = static_cast<std::uint8_t>(topo.kind());
  key.comm = topo.comm_id();
  key.root = CollPickKey::kAnyRoot;
  const std::uint8_t survivors = proc.coll_pick(key, [&] {
    const double tree_gap =
        gap_us(schedule_for(key, CollAlgo::kTree, p, cost), cost);
    std::uint8_t set = 0;
    for (const CollAlgo algo : candidates(key, p))
      if (gap_within(key, algo, p, cost, tree_gap)) set |= algo_bit(algo);
    return set;
  });
  if (survivors == 0) return CollAlgo::kTree;

  key.root = vroot;
  return static_cast<CollAlgo>(proc.coll_pick(key, [&] {
    CollAlgo best = CollAlgo::kTree;
    double best_us = completion_us(
        schedule_for(key, CollAlgo::kTree, p, cost), topo, cost, vroot);
    for (const CollAlgo algo : candidates(key, p)) {
      if ((survivors & algo_bit(algo)) == 0) continue;
      const double us =
          completion_us(schedule_for(key, algo, p, cost), topo, cost, vroot);
      if (us < best_us) {
        best = algo;
        best_us = us;
      }
    }
    return static_cast<std::uint8_t>(best);
  }));
}

}  // namespace skil::parix::coll_detail
