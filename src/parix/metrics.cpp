#include "parix/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "support/error.h"

namespace skil::parix {

namespace {

/// %.17g round-trips every finite double bit-exactly, so a consumer
/// re-parsing the metrics JSON recovers compute_us / comm_us equal to
/// Proc::Stats to the last ulp.
std::string fmt_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_escape(const char* s) {
  std::string out;
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

const char* op_name(int kind) {
  switch (static_cast<Op>(kind)) {
    case Op::kIntOp: return "int_op";
    case Op::kFloatOp: return "float_op";
    case Op::kCall: return "call";
    case Op::kIndirectCall: return "indirect_call";
    case Op::kAlloc: return "alloc";
    case Op::kCopyWord: return "copy_word";
    case Op::kCount_: break;
  }
  return "unknown";
}

/// Histogram label for a message tag: app tags by value, collective
/// tags by their sub-tag offset (invocation sequence numbers stripped,
/// so all rounds of one collective aggregate into one bucket).
std::string tag_label(long tag) {
  if (tag < Proc::kCollectiveTagBase) return "app:" + std::to_string(tag);
  const long off = (tag - Proc::kCollectiveTagBase) % Proc::kTagStride;
  return "collective:+" + std::to_string(off);
}

/// Flow-arrow identity of one message: unique per (sender, seq).
std::uint64_t flow_id(int sender, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sender))
          << 32) |
         seq;
}

const char* bound_name(RecvBound bound) {
  switch (bound) {
    case RecvBound::kLocal: return "local";
    case RecvBound::kArrival: return "arrival";
    case RecvBound::kChannel: return "channel";
  }
  return "local";
}

/// One timeline slice (events that occupy virtual time, i.e. every
/// kind except the zero-width span points).  Per proc, slices tile
/// [0, final vtime] with no gaps -- flush_compute guarantees it.
struct Slice {
  double vt0 = 0.0;
  double vt1 = 0.0;
  TraceEventKind kind = TraceEventKind::kCompute;
  RecvBound bound = RecvBound::kLocal;
  int peer = -1;
  std::uint32_t seq = 0;       ///< send slices
  std::uint32_t peer_seq = 0;  ///< recv slices
};

struct ProcTimeline {
  std::vector<Slice> slices;
  std::vector<std::size_t> send_by_seq;  ///< seq -> index into slices
  double final_vtime = 0.0;
};

std::vector<ProcTimeline> build_timelines(const Trace& trace) {
  std::vector<ProcTimeline> lanes(trace.procs.size());
  for (std::size_t p = 0; p < trace.procs.size(); ++p) {
    ProcTimeline& lane = lanes[p];
    for (const TraceEvent& e : trace.procs[p].events()) {
      if (e.kind == TraceEventKind::kSpanBegin ||
          e.kind == TraceEventKind::kSpanEnd)
        continue;
      Slice s;
      s.vt0 = e.vt0;
      s.vt1 = e.vt1;
      s.kind = e.kind;
      s.bound = e.bound;
      s.peer = e.peer;
      s.seq = e.seq;
      s.peer_seq = e.peer_seq;
      if (e.kind == TraceEventKind::kSend) {
        SKIL_ASSERT(e.seq == lane.send_by_seq.size(),
                    "trace: send sequence numbers out of order");
        lane.send_by_seq.push_back(lane.slices.size());
      }
      lane.slices.push_back(s);
    }
    if (!lane.slices.empty()) lane.final_vtime = lane.slices.back().vt1;
  }
  return lanes;
}

/// Index of the slice whose interval ends at (or covers) time `t`.
/// Returns npos when t precedes the timeline.
std::size_t slice_ending_at(const ProcTimeline& lane, double t) {
  const auto& s = lane.slices;
  // First slice with vt1 >= t; the walk only queries boundary times,
  // so this is the slice whose interval (vt0, vt1] contains t.
  const auto it = std::lower_bound(
      s.begin(), s.end(), t,
      [](const Slice& slice, double time) { return slice.vt1 < time; });
  if (it == s.end()) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - s.begin());
}

}  // namespace

std::vector<SpanTotal> span_summary(const Trace& trace) {
  std::map<std::string, SpanTotal> totals;
  for (const ProcTrace& proc : trace.procs) {
    std::vector<const TraceEvent*> stack;
    for (const TraceEvent& e : proc.events()) {
      if (e.kind == TraceEventKind::kSpanBegin) {
        stack.push_back(&e);
      } else if (e.kind == TraceEventKind::kSpanEnd) {
        SKIL_REQUIRE(!stack.empty(),
                     "trace: span end without matching begin on proc " +
                         std::to_string(proc.proc_id()));
        const TraceEvent* begin = stack.back();
        stack.pop_back();
        SpanTotal& total = totals[begin->name];
        total.name = begin->name;
        total.count += 1;
        total.vtime_us += e.vt0 - begin->vt0;
      }
    }
    SKIL_REQUIRE(stack.empty(), "trace: unclosed span on proc " +
                                    std::to_string(proc.proc_id()));
  }
  std::vector<SpanTotal> out;
  out.reserve(totals.size());
  for (auto& [name, total] : totals) out.push_back(total);
  return out;
}

CriticalPath analyze_critical_path(const Trace& trace) {
  SKIL_REQUIRE(trace.mode == TraceMode::kFull,
               "analyze_critical_path: needs a full trace "
               "(SKIL_TRACE=full); spans mode lacks compute slices and "
               "message links");
  const std::vector<ProcTimeline> lanes = build_timelines(trace);

  CriticalPath path;
  path.proc_path_us.assign(lanes.size(), 0.0);
  path.proc_slack_us.assign(lanes.size(), 0.0);
  if (lanes.empty()) return path;

  std::size_t proc = 0;
  for (std::size_t p = 1; p < lanes.size(); ++p)
    if (lanes[p].final_vtime > lanes[proc].final_vtime) proc = p;
  path.total_us = lanes[proc].final_vtime;
  for (std::size_t p = 0; p < lanes.size(); ++p)
    path.proc_slack_us[p] = path.total_us - lanes[p].final_vtime;

  // Backward walk.  `t` is always a slice boundary of the current
  // processor (slice vt0/vt1 values are copied exactly, so the FP
  // comparisons in slice_ending_at are exact).  Each step emits one
  // segment abutting the previous one, so the segments telescope:
  // their summed duration is exactly total_us.
  double t = path.total_us;
  // Every step consumes at least one slice or crosses one message, so
  // the walk terminates; the cap is a defensive backstop.
  std::size_t budget = 0;
  for (const ProcTimeline& lane : lanes) budget += lane.slices.size();
  budget = 2 * budget + 16;
  while (t > 0.0 && budget-- > 0) {
    const std::size_t idx = slice_ending_at(lanes[proc], t);
    if (idx == static_cast<std::size_t>(-1)) break;
    const Slice& s = lanes[proc].slices[idx];
    CriticalSegment seg;
    seg.proc = static_cast<int>(proc);
    if (s.kind == TraceEventKind::kRecv &&
        s.bound == RecvBound::kArrival && s.peer >= 0 &&
        static_cast<std::size_t>(s.peer) < lanes.size() &&
        s.peer_seq < lanes[s.peer].send_by_seq.size()) {
      // Sender-bound edge: the receive's end time *is* the arrival,
      // so charge [send end, recv end] to the wire and resume on the
      // sender at the moment its send slice ended.
      const ProcTimeline& sender = lanes[s.peer];
      const Slice& send = sender.slices[sender.send_by_seq[s.peer_seq]];
      seg.kind = CriticalSegment::Kind::kWire;
      seg.peer = s.peer;
      seg.vt0 = send.vt1;
      seg.vt1 = s.vt1;
      path.wire_us += seg.duration_us();
      proc = static_cast<std::size_t>(s.peer);
      t = send.vt1;
    } else {
      seg.vt0 = s.vt0;
      seg.vt1 = s.vt1;
      switch (s.kind) {
        case TraceEventKind::kCompute:
          seg.kind = CriticalSegment::Kind::kCompute;
          path.compute_us += seg.duration_us();
          break;
        case TraceEventKind::kSend:
          seg.kind = CriticalSegment::Kind::kSend;
          path.send_us += seg.duration_us();
          break;
        default:
          seg.kind = CriticalSegment::Kind::kRecv;
          path.recv_us += seg.duration_us();
          break;
      }
      path.proc_path_us[proc] += seg.duration_us();
      t = s.vt0;
    }
    path.segments.push_back(seg);
  }
  std::reverse(path.segments.begin(), path.segments.end());
  return path;
}

void write_chrome_trace(const Trace& trace, std::ostream& out) {
  write_chrome_trace(trace, nullptr, out);
}

void write_chrome_trace(const Trace& trace, const ProfTimeline* prof,
                        std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"timeline\":"
         "\"virtual microseconds\",\"trace_mode\":\""
      << trace_mode_name(trace.mode) << "\"},\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    if (!first) out << ",\n";
    first = false;
    return out;
  };

  sep() << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"skil virtual machine\"}}";
  for (int p = 0; p < trace.nprocs; ++p) {
    sep() << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << p
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"vproc " << p
          << "\"}}";
    sep() << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << p
          << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << p
          << "}}";
  }

  for (const ProcTrace& proc : trace.procs) {
    const int tid = proc.proc_id();
    for (const TraceEvent& e : proc.events()) {
      switch (e.kind) {
        case TraceEventKind::kSpanBegin:
          sep() << "{\"ph\":\"B\",\"pid\":0,\"tid\":" << tid
                << ",\"ts\":" << fmt_double(e.vt0) << ",\"cat\":\"span\","
                << "\"name\":\"" << json_escape(e.name) << "\",\"args\":{";
          if (e.arg >= 0) out << "\"arg\":" << e.arg << ",";
          out << "\"wall_ns\":" << e.wall_ns << "}}";
          break;
        case TraceEventKind::kSpanEnd:
          sep() << "{\"ph\":\"E\",\"pid\":0,\"tid\":" << tid
                << ",\"ts\":" << fmt_double(e.vt0) << "}";
          break;
        case TraceEventKind::kCompute:
          sep() << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid
                << ",\"ts\":" << fmt_double(e.vt0)
                << ",\"dur\":" << fmt_double(e.vt1 - e.vt0)
                << ",\"cat\":\"compute\",\"name\":\"compute\","
                << "\"args\":{\"wall_ns\":" << e.wall_ns << "}}";
          break;
        case TraceEventKind::kSend:
          sep() << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid
                << ",\"ts\":" << fmt_double(e.vt0)
                << ",\"dur\":" << fmt_double(e.vt1 - e.vt0)
                << ",\"cat\":\"comm\",\"name\":\"send\",\"args\":{\"dst\":"
                << e.peer << ",\"tag\":" << e.tag << ",\"bytes\":" << e.bytes
                << ",\"wall_ns\":" << e.wall_ns << "}}";
          sep() << "{\"ph\":\"s\",\"pid\":0,\"tid\":" << tid
                << ",\"ts\":" << fmt_double(e.vt1)
                << ",\"cat\":\"msg\",\"name\":\"msg\",\"id\":"
                << flow_id(tid, e.seq) << "}";
          break;
        case TraceEventKind::kRecv:
          sep() << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid
                << ",\"ts\":" << fmt_double(e.vt0)
                << ",\"dur\":" << fmt_double(e.vt1 - e.vt0)
                << ",\"cat\":\"comm\",\"name\":\"recv\",\"args\":{\"src\":"
                << e.peer << ",\"tag\":" << e.tag << ",\"bytes\":" << e.bytes
                << ",\"bound\":\"" << bound_name(e.bound)
                << "\",\"wall_ns\":" << e.wall_ns << "}}";
          sep() << "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":" << tid
                << ",\"ts\":" << fmt_double(e.vt1)
                << ",\"cat\":\"msg\",\"name\":\"msg\",\"id\":"
                << flow_id(e.peer, e.peer_seq) << "}";
          break;
      }
    }
  }

  // SKIL_PROF=sampled host timeline: a second Perfetto process (pid 1)
  // with one lane per carrier thread.  Timestamps are *wall*
  // microseconds on the same epoch as the virtual lanes' wall_ns args
  // (ProfSampler shares the trace recorder's wall epoch), so host and
  // virtual activity line up when both are loaded.  Occupancy ("which
  // vproc is this carrier running") becomes X slices spanning
  // consecutive samples that observed the same fiber; cumulative
  // counters become per-tick deltas on "ph":"C" counter tracks.
  if (prof != nullptr && !prof->samples.empty() && prof->carriers > 0) {
    sep() << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
             "\"args\":{\"name\":\"host carriers\"}}";
    sep() << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_sort_index\","
             "\"args\":{\"sort_index\":1}}";
    for (int c = 0; c < prof->carriers; ++c) {
      sep() << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << c
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\"carrier " << c
            << "\"}}";
      sep() << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << c
            << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << c
            << "}}";
    }

    struct LaneState {
      bool open = false;        // an occupancy slice is in progress
      int proc = -1;            // vproc of the open slice
      double start_us = 0.0;    // open slice start
      double last_us = 0.0;     // most recent sample on this lane
      bool has_prev = false;    // cumulative counters seeded
      std::uint64_t fibers_run = 0;
      std::uint64_t steal_successes = 0;
    };
    std::vector<LaneState> lanes(static_cast<std::size_t>(prof->carriers));

    const auto close_slice = [&](int c, LaneState& lane, double end_us) {
      if (lane.open && end_us > lane.start_us) {
        sep() << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << c
              << ",\"ts\":" << fmt_double(lane.start_us)
              << ",\"dur\":" << fmt_double(end_us - lane.start_us)
              << ",\"cat\":\"host\",\"name\":\"vproc " << lane.proc << "\"}";
      }
      lane.open = false;
    };

    for (const ProfSample& s : prof->samples) {
      if (s.carrier < 0 || s.carrier >= prof->carriers) continue;
      LaneState& lane = lanes[static_cast<std::size_t>(s.carrier)];
      const double ts_us = static_cast<double>(s.wall_ns) / 1000.0;

      if (lane.open && lane.proc != s.running_proc)
        close_slice(s.carrier, lane, ts_us);
      if (!lane.open && s.running_proc >= 0) {
        lane.open = true;
        lane.proc = s.running_proc;
        lane.start_us = ts_us;
      }

      sep() << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << s.carrier
            << ",\"ts\":" << fmt_double(ts_us) << ",\"name\":\"carrier "
            << s.carrier << " ready\",\"args\":{\"fibers\":" << s.queue_depth
            << "}}";
      if (lane.has_prev) {
        sep() << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << s.carrier
              << ",\"ts\":" << fmt_double(ts_us) << ",\"name\":\"carrier "
              << s.carrier << " activity\",\"args\":{\"dispatched\":"
              << (s.fibers_run - lane.fibers_run) << ",\"stolen\":"
              << (s.steal_successes - lane.steal_successes) << "}}";
      }
      lane.fibers_run = s.fibers_run;
      lane.steal_successes = s.steal_successes;
      lane.has_prev = true;
      lane.last_us = ts_us;
    }
    for (int c = 0; c < prof->carriers; ++c) {
      LaneState& lane = lanes[static_cast<std::size_t>(c)];
      close_slice(c, lane, lane.last_us);
    }
  }

  out << "\n]}\n";
}

namespace {

void write_stats(std::ostream& out, const Stats& stats) {
  out << "{\"compute_us\":" << fmt_double(stats.compute_us)
      << ",\"comm_us\":" << fmt_double(stats.comm_us)
      << ",\"messages_sent\":" << stats.messages_sent
      << ",\"bytes_sent\":" << stats.bytes_sent
      << ",\"messages_received\":" << stats.messages_received
      << ",\"bytes_received\":" << stats.bytes_received << ",\"ops\":{";
  for (int k = 0; k < kOpKinds; ++k) {
    if (k > 0) out << ",";
    out << "\"" << op_name(k) << "\":" << stats.ops[k];
  }
  out << "}}";
}

/// Writes a counter group's fields (counters.h) as "name":value pairs
/// in list order.
template <class Group>
void write_fields(std::ostream& out, const Group& group) {
  const char* sep = "";
  for (const auto& field : Group::kFields) {
    out << sep << '"' << field.name << "\":" << group.*field.member;
    sep = ",";
  }
}

}  // namespace

void write_metrics_json(const RunResult& result, std::ostream& out) {
  const Trace* trace = result.trace.get();
  out << "{\"schema_version\":1,\"trace_mode\":\""
      << trace_mode_name(trace != nullptr ? trace->mode : TraceMode::kOff)
      << "\",\"nprocs\":" << result.proc_stats.size()
      << ",\"vtime_us\":" << fmt_double(result.vtime_us)
      << ",\"wall_seconds\":" << fmt_double(result.wall_seconds)
      << ",\"total\":";
  write_stats(out, result.total);

  // Settlement accounting (charge_tape.h): how this run's dependent
  // chain adds were retired -- closed-form walks, memoized walks,
  // probes, plain chains -- plus the derived closed-form coverage
  // fraction the perf claims are gated on.
  out << ",\"settlement\":{";
  write_fields(out, result.settle);
  out << ",\"closed_coverage\":" << fmt_double(result.settle.closed_coverage())
      << "}";

  // Fusion accounting (charge_tape.h): how many skeleton compositions
  // this run saw, fused, or rejected (by reason), and what the fused
  // forms eliminated.  All zero under SKIL_FUSE=off.
  out << ",\"fusion\":{";
  write_fields(out, result.fusion);
  out << "}";

  // Collective accounting (parix/coll.h): which algorithm every
  // collective call resolved to, plus the wire bytes, physical hop
  // distances and communication rounds per op.  Summed over the
  // per-proc counters, so exact even with concurrent runs.
  {
    const CollectiveCounters& c = result.coll;
    out << ",\"collectives\":{";
    for (int op = 0; op < kNumCollOps; ++op) {
      if (op > 0) out << ",";
      out << "\"" << coll_op_name(static_cast<CollOp>(op))
          << "\":{\"calls\":{";
      for (int algo = 0; algo < kNumCollAlgos; ++algo) {
        if (algo > 0) out << ",";
        out << "\"" << coll_algo_name(static_cast<CollAlgo>(algo))
            << "\":" << c.calls[op][algo];
      }
      out << "},\"bytes\":" << c.bytes[op] << ",\"hops\":" << c.hops[op]
          << ",\"steps\":" << c.steps[op] << "}";
    }
    out << ",\"order_fallbacks\":" << c.order_fallbacks << "}";
  }

  // Host scheduler observatory (prof.h): present only when the run was
  // profiled (SKIL_PROF=counters|sampled).  Everything in this block is
  // *host* measurement -- wall nanoseconds and scheduler event counts
  // -- and never feeds the virtual timeline; an unprofiled run of the
  // same workload produces bit-identical vtimes with no block at all.
  if (result.scheduler.mode != ProfMode::kOff) {
    const SchedulerReport& sr = result.scheduler;
    out << ",\"scheduler\":{\"prof\":\"" << prof_mode_name(sr.mode)
        << "\",\"carriers\":" << sr.carriers << ",\"wall_ns\":" << sr.wall_ns
        << ",\"samples\":" << sr.samples << ",\"per_carrier\":[";
    for (std::size_t c = 0; c < sr.per_carrier.size(); ++c) {
      const CarrierReport& lane = sr.per_carrier[c];
      const double util =
          sr.wall_ns > 0 ? 100.0 * static_cast<double>(lane.run_ns) /
                               static_cast<double>(sr.wall_ns)
                         : 0.0;
      if (c > 0) out << ",";
      out << "{\"carrier\":" << c << ",";
      write_fields(out, lane);
      out << ",\"utilization_pct\":" << fmt_double(util) << "}";
    }
    const std::uint64_t pool_acquires = sr.pool.acquires;
    const double pool_hit_rate =
        pool_acquires > 0 ? static_cast<double>(sr.pool.hits) /
                                static_cast<double>(pool_acquires)
                          : 0.0;
    out << "],\"pool\":{\"acquires\":" << sr.pool.acquires
        << ",\"hits\":" << sr.pool.hits << ",\"misses\":" << sr.pool.misses
        << ",\"bytes\":" << sr.pool.bytes
        << ",\"hit_rate\":" << fmt_double(pool_hit_rate) << "}"
        << ",\"memo_hits\":" << sr.memo_hits
        << ",\"memo_misses\":" << sr.memo_misses << "}";
  }

  out << ",\"procs\":[";
  for (std::size_t p = 0; p < result.proc_stats.size(); ++p) {
    if (p > 0) out << ",";
    out << "{\"proc\":" << p
        << ",\"vtime_us\":" << fmt_double(result.proc_vtimes[p])
        << ",\"stats\":";
    write_stats(out, result.proc_stats[p]);
    out << "}";
  }
  out << "]";

  if (trace != nullptr) {
    out << ",\"skeletons\":[";
    bool first = true;
    for (const SpanTotal& span : span_summary(*trace)) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << json_escape(span.name)
          << "\",\"count\":" << span.count
          << ",\"vtime_us\":" << fmt_double(span.vtime_us) << "}";
    }
    out << "]";
  }

  if (trace != nullptr && trace->mode == TraceMode::kFull) {
    struct TagBucket {
      std::uint64_t count = 0;
      std::uint64_t bytes = 0;
    };
    std::map<std::string, TagBucket> by_tag;
    std::map<std::pair<int, int>, TagBucket> by_link;
    for (const ProcTrace& proc : trace->procs)
      for (const TraceEvent& e : proc.events()) {
        if (e.kind != TraceEventKind::kSend) continue;
        TagBucket& tag = by_tag[tag_label(e.tag)];
        tag.count += 1;
        tag.bytes += e.bytes;
        TagBucket& link = by_link[{proc.proc_id(), e.peer}];
        link.count += 1;
        link.bytes += e.bytes;
      }

    out << ",\"messages_by_tag\":[";
    bool first = true;
    for (const auto& [label, bucket] : by_tag) {
      if (!first) out << ",";
      first = false;
      out << "{\"tag\":\"" << json_escape(label.c_str())
          << "\",\"count\":" << bucket.count << ",\"bytes\":" << bucket.bytes
          << "}";
    }
    out << "],\"bytes_by_link\":[";
    first = true;
    for (const auto& [link, bucket] : by_link) {
      if (!first) out << ",";
      first = false;
      out << "{\"src\":" << link.first << ",\"dst\":" << link.second
          << ",\"messages\":" << bucket.count << ",\"bytes\":" << bucket.bytes
          << "}";
    }
    out << "]";

    const CriticalPath path = analyze_critical_path(*trace);
    out << ",\"critical_path\":{\"total_us\":" << fmt_double(path.total_us)
        << ",\"compute_us\":" << fmt_double(path.compute_us)
        << ",\"send_us\":" << fmt_double(path.send_us)
        << ",\"recv_us\":" << fmt_double(path.recv_us)
        << ",\"wire_us\":" << fmt_double(path.wire_us)
        << ",\"segments\":" << path.segments.size() << ",\"proc_path_us\":[";
    for (std::size_t p = 0; p < path.proc_path_us.size(); ++p) {
      if (p > 0) out << ",";
      out << fmt_double(path.proc_path_us[p]);
    }
    out << "],\"proc_slack_us\":[";
    for (std::size_t p = 0; p < path.proc_slack_us.size(); ++p) {
      if (p > 0) out << ",";
      out << fmt_double(path.proc_slack_us[p]);
    }
    double max_slack = 0.0;
    for (const double slack : path.proc_slack_us)
      max_slack = std::max(max_slack, slack);
    out << "],\"max_slack_us\":" << fmt_double(max_slack)
        << ",\"imbalance_pct\":"
        << fmt_double(path.total_us > 0.0 ? 100.0 * max_slack / path.total_us
                                          : 0.0)
        << "}";
  }
  out << "}\n";
}

}  // namespace skil::parix
