// SKIL_COLL=auto's selection model (collectives.h, "kAuto selection";
// DESIGN.md section 15): every candidate algorithm's plan run into a
// per-member Schedule, the completion dry run and the gap term.  Out
// of line so that the collectives' call sites carry one call, not the
// model.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parix/collectives.h"
#include "support/error.h"

namespace skil::parix::coll_detail {

namespace {

/// Appends member r's steps of `algo` for the call `key` describes, on
/// p members: the plans the collective runs, each step sized from the
/// key.
void member_steps(Schedule& s, const CollPickKey& key, CollAlgo algo,
                  int p, int r, const CostModel& cost) {
  const std::size_t n = key.size;
  const std::size_t elem = key.elem;
  // Books a step as `bytes` wire bytes; a folding receive then charges
  // `fold_us`.
  const auto book = [&s](const PlanStep& st, std::size_t bytes,
                         double fold_us) {
    if (st.dir == PlanStep::kSend) {
      s.send(st.peer, bytes);
      return;
    }
    s.recv(st.peer, bytes);
    if (st.fold != PlanStep::kKeep && fold_us > 0.0) s.charge(fold_us);
  };
  // Every step carries `bytes`, and folds cost nothing the model sees.
  const auto whole = [&book](std::size_t bytes) {
    return [&book, bytes](const PlanStep& st) { book(st, bytes, 0.0); };
  };
  // Every step carries a vector of its [lo, hi) elements, of
  // `elem_bytes` each.
  const auto part = [&book](std::size_t elem_bytes) {
    return [&book, elem_bytes](const PlanStep& st) {
      book(st, vector_wire_bytes(st.hi - st.lo, elem_bytes), 0.0);
    };
  };
  switch (static_cast<PickSite>(key.site)) {
    case PickSite::kBcastValue:
      if (algo == CollAlgo::kRing)
        ring_chain_plan(p, r, 1, 1, whole(n));
      else
        tree_bcast_plan(p, r, whole(n));
      break;
    case PickSite::kBcastVector:
      if (algo == CollAlgo::kRing)
        ring_chain_plan(p, r, kBcastChunks, n, part(elem));
      else
        tree_bcast_plan(p, r, whole(vector_wire_bytes(n, elem)));
      break;
    case PickSite::kAllgather:
    case PickSite::kAllreduce:
      if (algo == CollAlgo::kRing) {
        ring_allgather_plan(p, r, whole(n));
      } else if (algo == CollAlgo::kRecDouble) {
        bruck_plan(p, r, part(n));
      } else if (static_cast<PickSite>(key.site) == PickSite::kAllgather) {
        gather_plan(p, r, 0, whole(n));
        tree_bcast_plan(p, r,
                        whole(vector_wire_bytes(static_cast<std::size_t>(p),
                                                n)));
      } else {
        // The closing value broadcast is priced as the tree it
        // resolves to for scalar operands.
        tree_reduce_plan(p, r, whole(n));
        tree_bcast_plan(p, r, whole(n));
      }
      break;
    case PickSite::kAllreduceElems: {
      const double unit_us = cost.unit(static_cast<Op>(key.kind));
      if (algo == CollAlgo::kTree) {
        tree_reduce_plan(p, r, [&](const PlanStep& st) {
          book(st, vector_wire_bytes(n, elem),
               unit_us * static_cast<double>(n));
        });
        tree_bcast_plan(p, r, whole(vector_wire_bytes(n, elem)));
        break;
      }
      const auto segment = [&](const PlanStep& st) {
        book(st, vector_wire_bytes(st.hi - st.lo, elem),
             unit_us * static_cast<double>(st.hi - st.lo));
      };
      if (algo == CollAlgo::kRing)
        ring_elems_plan(p, r, n, segment);
      else
        rabenseifner_plan(p, r, n, segment);
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
  LinkChannels links;
  for (const DryStep* st = s.begin(m); st != s.end(m); ++st) {
    if (st->kind == DryStep::kCharge) continue;
    const bool send = st->kind == DryStep::kSend;
    (send ? sends : recvs) += 1;
    LinkChannels::earliest(send ? links.out : links.in) +=
        cost.msg_per_byte_us * static_cast<double>(st->bytes);
  }
  const double overhead = static_cast<double>(sends) * cost.msg_startup_us +
                          static_cast<double>(recvs) * cost.recv_overhead_us;
  return std::max(
      {overhead, *std::max_element(links.out.begin(), links.out.end()),
       *std::max_element(links.in.begin(), links.in.end())});
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
    LinkChannels links;
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
          const SendTimes t =
              cost.time_send(me.links, me.vtime, st.bytes,
                             topo.hops(hw(m), hw(st.peer)),
                             cost.default_send_mode);
          inbox[static_cast<std::size_t>(st.peer)].push_back(
              {m, st.bytes, t.arrival});
          me.vtime = t.done;
        } else {
          // Messages between one pair are received in the order they
          // were sent, in every algorithm, so the first match is it.
          auto& box = inbox[static_cast<std::size_t>(m)];
          const auto msg = std::find_if(box.begin(), box.end(),
                                        [&](const InFlight& f) {
                                          return f.src == st.peer;
                                        });
          if (msg == box.end()) break;
          me.vtime =
              cost.time_recv(me.links, me.vtime, msg->bytes, msg->arrival)
                  .ready;
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
