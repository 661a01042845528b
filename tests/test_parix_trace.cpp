// Tracing layer (parix/trace.h, parix/metrics.h).
//
// The load-bearing property is the two-timeline invariant: tracing in
// any mode must leave every virtual time bit-identical, because the
// recorder only *reads* the virtual clock; ctest's goldens.trace_spans
// and goldens.trace_full check it on every pinned run.  This suite pins
// the trace semantics themselves: a run carries a trace exactly when
// tracing is on, full traces are deterministic in virtual time across
// runs, spans nest per processor, the exporters emit valid JSON, the
// metrics round-trip Proc::Stats bit-exactly, and the critical-path
// walk telescopes to the run's final max vtime.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/gauss.h"
#include "goldens/pinned_runs.h"
#include "parix/metrics.h"
#include "parix/runtime.h"
#include "parix/trace.h"
#include "support/error.h"
#include "with_knobs.h"

namespace {

using skil::parix::analyze_critical_path;
using skil::parix::CriticalPath;
using skil::parix::FuseMode;
using skil::parix::ProcTrace;
using skil::parix::RunResult;
using skil::parix::Trace;
using skil::parix::TraceEvent;
using skil::parix::TraceEventKind;
using skil::parix::TraceMode;
using skil::support::ContractError;
using skil::goldens::kSeed;
using skil::testing::with_fuse_mode;

/// Runs `fn` with `mode` as the process-wide default trace mode,
/// restoring the previous default afterwards.
template <class Fn>
auto with_trace_mode(TraceMode mode, Fn&& fn) {
  const TraceMode saved = skil::parix::default_trace_mode();
  skil::parix::set_default_trace_mode(mode);
  auto result = fn();
  skil::parix::set_default_trace_mode(saved);
  return result;
}

RunResult traced_gauss(TraceMode mode) {
  return with_trace_mode(
      mode, [] { return skil::apps::gauss_skil(4, 32, kSeed, true).run; });
}

// ---------------------------------------------------------------------------
// Mode parsing (strict, like SKIL_ENGINE / SKIL_FUSE).

TEST(TraceMode_, ParsesTheThreeAcceptedNames) {
  EXPECT_EQ(skil::parix::parse_trace_mode("off"), TraceMode::kOff);
  EXPECT_EQ(skil::parix::parse_trace_mode("spans"), TraceMode::kSpans);
  EXPECT_EQ(skil::parix::parse_trace_mode("full"), TraceMode::kFull);
}

TEST(TraceMode_, RejectsUnknownNamesLoudly) {
  EXPECT_THROW(skil::parix::parse_trace_mode("on"), ContractError);
  EXPECT_THROW(skil::parix::parse_trace_mode(""), ContractError);
  EXPECT_THROW(skil::parix::parse_trace_mode("FULL"), ContractError);
}

// ---------------------------------------------------------------------------
// A run carries a trace exactly when tracing is on.  That no mode moves
// a virtual time is checked by goldens.defaults, goldens.trace_spans and
// goldens.trace_full over every pinned run.

TEST(TraceMode_, RunCarriesATraceExactlyWhenTracingIsOn) {
  for (const TraceMode mode :
       {TraceMode::kOff, TraceMode::kSpans, TraceMode::kFull}) {
    const RunResult run = traced_gauss(mode);
    ASSERT_EQ(run.trace == nullptr, mode == TraceMode::kOff);
    if (run.trace != nullptr) {
      EXPECT_EQ(run.trace->mode, mode);
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: virtual-time content of a full trace is identical
// across runs (wall timestamps are the only nondeterministic field).

bool same_virtual_content(const TraceEvent& a, const TraceEvent& b) {
  return a.kind == b.kind && a.bound == b.bound && a.peer == b.peer &&
         a.tag == b.tag && a.vt0 == b.vt0 && a.vt1 == b.vt1 &&
         a.bytes == b.bytes && a.seq == b.seq && a.peer_seq == b.peer_seq &&
         a.arg == b.arg &&
         ((a.name == nullptr) == (b.name == nullptr)) &&
         (a.name == nullptr || std::string(a.name) == b.name);
}

TEST(TraceFull, DeterministicAcrossRunsInVirtualTime) {
  const RunResult first = traced_gauss(TraceMode::kFull);
  const RunResult second = traced_gauss(TraceMode::kFull);
  ASSERT_NE(first.trace, nullptr);
  ASSERT_NE(second.trace, nullptr);
  ASSERT_EQ(first.trace->procs.size(), second.trace->procs.size());
  for (std::size_t p = 0; p < first.trace->procs.size(); ++p) {
    const auto& ea = first.trace->procs[p].events();
    const auto& eb = second.trace->procs[p].events();
    ASSERT_EQ(ea.size(), eb.size()) << "proc " << p;
    for (std::size_t i = 0; i < ea.size(); ++i)
      EXPECT_TRUE(same_virtual_content(ea[i], eb[i]))
          << "proc " << p << " event " << i;
  }
}

// ---------------------------------------------------------------------------
// Span nesting and structure.

void expect_wellformed_spans(const Trace& trace) {
  for (const ProcTrace& proc : trace.procs) {
    int depth = 0;
    double last_vt = 0.0;
    for (const TraceEvent& e : proc.events()) {
      EXPECT_GE(e.vt0, last_vt) << "events out of virtual-time order";
      last_vt = e.vt1;
      if (e.kind == TraceEventKind::kSpanBegin) {
        EXPECT_NE(e.name, nullptr);
        ++depth;
      } else if (e.kind == TraceEventKind::kSpanEnd) {
        ASSERT_GT(depth, 0) << "span end without begin";
        --depth;
      }
    }
    EXPECT_EQ(depth, 0) << "unclosed span on proc " << proc.proc_id();
  }
}

TEST(TraceSpans, NestWellFormedPerProcInBothModes) {
  for (const TraceMode mode : {TraceMode::kSpans, TraceMode::kFull}) {
    const RunResult run = traced_gauss(mode);
    ASSERT_NE(run.trace, nullptr);
    expect_wellformed_spans(*run.trace);
  }
}

TEST(TraceSpans, SummaryCoversSkeletonsAndAppPhases) {
  const RunResult run = traced_gauss(TraceMode::kSpans);
  ASSERT_NE(run.trace, nullptr);
  const auto spans = skil::parix::span_summary(*run.trace);
  auto count_of = [&](const std::string& name) -> std::uint64_t {
    for (const auto& s : spans)
      if (name == s.name) return s.count;
    return 0;
  };
  // gauss n=32 p=4: 32 elimination rounds on each of 4 processors.
  EXPECT_EQ(count_of("gauss pivot round"), 32u * 4u);
  EXPECT_GT(count_of("array_map"), 0u);
  EXPECT_GT(count_of("array_broadcast_part"), 0u);
  EXPECT_GT(count_of("array_fold"), 0u);
  EXPECT_GT(count_of("broadcast"), 0u);
}

TEST(TraceSpans, SpansModeRecordsNoMessageEvents) {
  const RunResult run = traced_gauss(TraceMode::kSpans);
  ASSERT_NE(run.trace, nullptr);
  for (const ProcTrace& proc : run.trace->procs)
    for (const TraceEvent& e : proc.events())
      EXPECT_TRUE(e.kind == TraceEventKind::kSpanBegin ||
                  e.kind == TraceEventKind::kSpanEnd);
}

// ---------------------------------------------------------------------------
// Charged-but-not-performed work keeps its program points.  Under fuse
// off Gauss maps in place and skips host work the program only pays
// for: Skil's copies of a into b, and b's creation outside pivoting
// runs.  It must still book every such charge inside the span of the
// skeleton the program calls, so each pinned span adds virtual time.

/// Span label -> (begin count, summed virtual duration) of one run.
using SpanTotals = std::map<std::string, std::pair<std::uint64_t, double>>;

SpanTotals unfused_spans(const std::function<RunResult()>& app) {
  const RunResult run = with_fuse_mode(FuseMode::kOff, [&] {
    return with_trace_mode(TraceMode::kSpans, app);
  });
  SpanTotals totals;
  for (const auto& s : skil::parix::span_summary(*run.trace))
    totals[s.name] = {s.count, s.vtime_us};
  return totals;
}

TEST(TraceSpans, TapePathBooksElidedWorkInTheOraclesSpans) {
  using skil::apps::gauss_dpfl;
  using skil::apps::gauss_skil;
  struct Case {
    const char* name;
    std::function<RunResult()> app;
    std::map<std::string, std::uint64_t> pinned;  // span counts, p = 4
  };
  const Case cases[] = {
      {"skil",
       [] { return gauss_skil(4, 32, kSeed, false).run; },
       {{"array_copy", 128}, {"array_create", 12}, {"array_map", 260}}},
      {"skil pivoting",
       [] { return gauss_skil(4, 32, kSeed, true).run; },
       {{"array_copy", 4},
        {"array_create", 12},
        {"array_map", 260},
        {"array_permute_rows", 124}}},
      {"dpfl",
       [] { return gauss_dpfl(4, 32, kSeed).run; },
       {{"fa_map", 260}, {"fa_create", 8}}},
  };
  std::map<std::string, SpanTotals> runs;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SpanTotals& spans = runs[c.name] = unfused_spans(c.app);
    for (const auto& [name, count] : c.pinned) {
      const auto it = spans.find(name);
      ASSERT_NE(it, spans.end()) << name;
      EXPECT_EQ(it->second.first, count) << name;
      EXPECT_GT(it->second.second, 0.0) << name << " spans book no time";
    }
  }
  // The pivoting run really creates b, whose row swaps need it; the
  // plain run only books b's creation.  Both create the same three
  // arrays, so their array_create spans must agree to the last bit.
  EXPECT_EQ(runs["skil"].at("array_create"),
            runs["skil pivoting"].at("array_create"));
}

// ---------------------------------------------------------------------------
// Full-trace timeline structure: per-proc slices tile [0, final vtime].

TEST(TraceFull, SlicesTileEachProcTimeline) {
  const RunResult run = traced_gauss(TraceMode::kFull);
  ASSERT_NE(run.trace, nullptr);
  for (std::size_t p = 0; p < run.trace->procs.size(); ++p) {
    double cursor = 0.0;
    for (const TraceEvent& e : run.trace->procs[p].events()) {
      if (e.kind == TraceEventKind::kSpanBegin ||
          e.kind == TraceEventKind::kSpanEnd)
        continue;
      EXPECT_EQ(e.vt0, cursor) << "gap in proc " << p << " timeline";
      EXPECT_GE(e.vt1, e.vt0);
      cursor = e.vt1;
    }
    EXPECT_EQ(cursor, run.proc_vtimes[p])
        << "proc " << p << " timeline does not reach its final vtime";
  }
}

TEST(TraceFull, MessageEventCountsMatchStats) {
  const RunResult run = traced_gauss(TraceMode::kFull);
  ASSERT_NE(run.trace, nullptr);
  std::uint64_t sends = 0, recvs = 0, sent_bytes = 0, recv_bytes = 0;
  for (const ProcTrace& proc : run.trace->procs)
    for (const TraceEvent& e : proc.events()) {
      if (e.kind == TraceEventKind::kSend) {
        ++sends;
        sent_bytes += e.bytes;
      } else if (e.kind == TraceEventKind::kRecv) {
        ++recvs;
        recv_bytes += e.bytes;
      }
    }
  EXPECT_EQ(sends, run.total.messages_sent);
  EXPECT_EQ(recvs, run.total.messages_received);
  EXPECT_EQ(sent_bytes, run.total.bytes_sent);
  EXPECT_EQ(recv_bytes, run.total.bytes_received);
}

// Satellite: Stats now tracks received traffic symmetrically.
TEST(Stats, BytesReceivedMatchesBytesSentInAggregate) {
  const RunResult run =
      skil::apps::gauss_skil(4, 32, kSeed, false).run;
  EXPECT_EQ(run.total.bytes_received, run.total.bytes_sent);
  EXPECT_EQ(run.total.messages_received, run.total.messages_sent);
  std::uint64_t received = 0;
  for (const auto& stats : run.proc_stats) received += stats.bytes_received;
  EXPECT_EQ(received, run.total.bytes_received);
}

// ---------------------------------------------------------------------------
// Critical path.

TEST(CriticalPath_, LengthEqualsFinalMaxVtimeAndSegmentsTelescope) {
  const RunResult run = traced_gauss(TraceMode::kFull);
  ASSERT_NE(run.trace, nullptr);
  const CriticalPath path = analyze_critical_path(*run.trace);
  EXPECT_EQ(path.total_us, run.vtime_us);
  ASSERT_FALSE(path.segments.empty());
  EXPECT_EQ(path.segments.front().vt0, 0.0);
  EXPECT_EQ(path.segments.back().vt1, path.total_us);
  for (std::size_t i = 1; i < path.segments.size(); ++i)
    EXPECT_EQ(path.segments[i].vt0, path.segments[i - 1].vt1)
        << "segment " << i << " does not abut its predecessor";
  // The per-kind totals partition the path.  Unlike the telescoped
  // endpoints (exact by identity), summing segment durations
  // re-associates the additions, so allow accumulated rounding.
  EXPECT_NEAR(path.compute_us + path.send_us + path.recv_us + path.wire_us,
              path.total_us, 1e-9 * path.total_us);
  // Slack: zero for the critical processor, nonnegative elsewhere.
  double min_slack = path.proc_slack_us.front();
  for (const double slack : path.proc_slack_us) {
    EXPECT_GE(slack, 0.0);
    min_slack = std::min(min_slack, slack);
  }
  EXPECT_EQ(min_slack, 0.0);
}

TEST(CriticalPath_, RequiresFullMode) {
  const RunResult run = traced_gauss(TraceMode::kSpans);
  ASSERT_NE(run.trace, nullptr);
  EXPECT_THROW(analyze_critical_path(*run.trace), ContractError);
}

// ---------------------------------------------------------------------------
// Exporters.  A minimal strict JSON validator keeps the test
// dependency-free (the repo has no JSON library, by design).

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(Exporters, ChromeTraceIsValidJsonInBothModes) {
  for (const TraceMode mode : {TraceMode::kSpans, TraceMode::kFull}) {
    const RunResult run = traced_gauss(mode);
    ASSERT_NE(run.trace, nullptr);
    std::ostringstream out;
    skil::parix::write_chrome_trace(*run.trace, out);
    const std::string text = out.str();
    EXPECT_TRUE(JsonValidator(text).valid())
        << "invalid Chrome trace JSON in mode "
        << skil::parix::trace_mode_name(mode);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"vproc 0\""), std::string::npos);
  }
}

TEST(Exporters, MetricsJsonIsValidAndRoundTripsStatsBitExactly) {
  const RunResult run = traced_gauss(TraceMode::kFull);
  ASSERT_NE(run.trace, nullptr);
  std::ostringstream out;
  skil::parix::write_metrics_json(run, out);
  const std::string text = out.str();
  ASSERT_TRUE(JsonValidator(text).valid()) << "invalid metrics JSON";

  // The per-proc breakdown must carry Proc::Stats verbatim: the %.17g
  // renderings of compute_us and comm_us appear exactly, so a consumer
  // re-parsing the file recovers bit-identical doubles.
  for (const auto& stats : run.proc_stats) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"compute_us\":%.17g", stats.compute_us);
    EXPECT_NE(text.find(buf), std::string::npos) << buf;
    std::snprintf(buf, sizeof buf, "\"comm_us\":%.17g", stats.comm_us);
    EXPECT_NE(text.find(buf), std::string::npos) << buf;
  }
  char total[64];
  std::snprintf(total, sizeof total, "\"total_us\":%.17g", run.vtime_us);
  EXPECT_NE(text.find(total), std::string::npos)
      << "critical-path total must equal the run's final max vtime";
  EXPECT_NE(text.find("\"bytes_received\""), std::string::npos);
  EXPECT_NE(text.find("\"messages_by_tag\""), std::string::npos);
  EXPECT_NE(text.find("\"bytes_by_link\""), std::string::npos);
}

TEST(Exporters, MetricsJsonWorksWithoutATrace) {
  const RunResult run = with_trace_mode(TraceMode::kOff, [] {
    return skil::apps::gauss_skil(4, 32, kSeed, false).run;
  });
  ASSERT_EQ(run.trace, nullptr);
  std::ostringstream out;
  skil::parix::write_metrics_json(run, out);
  const std::string text = out.str();
  EXPECT_TRUE(JsonValidator(text).valid());
  EXPECT_NE(text.find("\"trace_mode\":\"off\""), std::string::npos);
  EXPECT_EQ(text.find("\"critical_path\""), std::string::npos);
}

}  // namespace
