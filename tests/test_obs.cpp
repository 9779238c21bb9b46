// The observability subsystem: sharded counter/histogram exactness under
// threads, per-thread span nesting, Chrome trace-event export, the
// manifest round-trip, the JSON reader's nesting bound, and — the contract
// that matters — checker results bit-identical with instrumentation on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "global/checker.hpp"
#include "helpers.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics_json.hpp"
#include "obs/obs.hpp"
#include "obs/sinks.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/matching.hpp"
#include "synthesis/global_synthesizer.hpp"
#include "synthesis/local_synthesizer.hpp"

namespace ringstab {
namespace {

/// Flips the global instrumentation switch for one test body and restores
/// a clean registry (no sinks, zeroed counters/histograms/gauges) on the
/// way out.
class ObsGuard {
 public:
  ObsGuard() {
    reset();
    obs::g_enabled.store(true);
  }
  ~ObsGuard() {
    obs::g_enabled.store(false);
    reset();
  }

 private:
  static void reset() {
    obs::Registry::global().clear_sinks();
    obs::Registry::global().reset_counters();
    obs::Registry::global().reset_histograms();
    obs::Registry::global().reset_gauges();
  }
};

/// Collects every span record and heartbeat delivered to it.
class CaptureSink : public obs::Sink {
 public:
  void on_span(const obs::SpanRecord& rec) override {
    spans_.push_back(rec);
  }
  void on_heartbeat(const obs::Heartbeat& hb) override {
    heartbeats_.push_back(hb);
  }
  const std::vector<obs::SpanRecord>& spans() const { return spans_; }
  const std::vector<obs::Heartbeat>& heartbeats() const { return heartbeats_; }

 private:
  std::vector<obs::SpanRecord> spans_;
  std::vector<obs::Heartbeat> heartbeats_;
};

TEST(ObsCounter, ShardedTotalsAreExactUnderThreads) {
  const ObsGuard guard;
  obs::Counter& ctr = obs::counter("test.sharded");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 10'000;
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t)
      workers.emplace_back([&ctr] {
        for (std::uint64_t i = 0; i < kAddsPerThread; ++i) ctr.add(1);
        ctr.add(5);  // non-unit amounts must also land whole
      });
  }
  EXPECT_EQ(ctr.total(), kThreads * (kAddsPerThread + 5));
}

TEST(ObsCounter, DisabledAddIsANoop) {
  obs::Registry::global().reset_counters();
  ASSERT_FALSE(obs::enabled());
  obs::counter("test.disabled").add(42);
  EXPECT_EQ(obs::counter("test.disabled").total(), 0u);
}

TEST(ObsCounter, SnapshotOmitsZeroAndSortsByName) {
  const ObsGuard guard;
  obs::counter("test.b").add(2);
  obs::counter("test.a").add(1);
  obs::counter("test.zero");  // registered but never fired
  const auto totals = obs::Registry::global().snapshot_counters();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].name, "test.a");
  EXPECT_EQ(totals[0].value, 1u);
  EXPECT_EQ(totals[1].name, "test.b");
  EXPECT_EQ(totals[1].value, 2u);
}

/// The checker counters chosen to be thread-count-invariant must agree
/// exactly between the serial engine and the parallel sweeps, on every
/// bundled protocol.
TEST(ObsCounter, CheckerCountersMatchSerialUnderFourThreads) {
  const ObsGuard guard;
  const char* kInvariant[] = {
      "checker.states_swept",     "checker.invariant_states",
      "checker.deadlocks_found",  "checker.acyclic_ranks",
  };
  for (const Protocol& p : testing::protocol_zoo()) {
    RingInstance ring(p, 5);
    obs::Registry::global().reset_counters();
    GlobalChecker(ring, 1).check_all();
    std::vector<std::uint64_t> serial;
    for (const char* name : kInvariant)
      serial.push_back(obs::counter(name).total());

    obs::Registry::global().reset_counters();
    GlobalChecker(ring, 4).check_all();
    for (std::size_t i = 0; i < std::size(kInvariant); ++i)
      EXPECT_EQ(obs::counter(kInvariant[i]).total(), serial[i])
          << p.name() << ": " << kInvariant[i];
  }
}

/// The same for both synthesizers' exact counters, the Resolve-set search's
/// node count among them, on the matching skeleton (whose search enters
/// 121 removal sets).
TEST(ObsCounter, SynthesisCountersMatchSerialUnderFourThreads) {
  const ObsGuard guard;
  const char* kInvariant[] = {
      "feedback.search_nodes",      "synth.candidates_generated",
      "synth.candidates_pruned",    "synth.solutions_found",
      "synth.global_states_explored",
  };
  const Protocol p = protocols::matching_skeleton();
  std::vector<std::uint64_t> totals[2];
  for (const std::size_t threads : {1, 4}) {
    obs::Registry::global().reset_counters();
    SynthesisOptions local;
    local.num_threads = threads;
    (void)synthesize_convergence(p, local);
    EXPECT_EQ(obs::counter("feedback.search_nodes").total(), 121u);
    GlobalSynthesisOptions global;
    global.max_solutions = 4;
    global.num_threads = threads;
    (void)synthesize_convergence_global(p, global);
    for (const char* name : kInvariant)
      totals[threads == 4].push_back(obs::counter(name).total());
  }
  for (std::size_t i = 0; i < std::size(kInvariant); ++i)
    EXPECT_EQ(totals[1][i], totals[0][i]) << kInvariant[i];
  EXPECT_EQ(totals[0][0], 2 * 121u);
}

TEST(ObsSpan, NestingIsWellFormedPerThread) {
  const ObsGuard guard;
  auto capture = std::make_shared<CaptureSink>();
  obs::Registry::global().add_sink(capture);

  EXPECT_EQ(obs::current_span_name(), nullptr);
  {
    const obs::Span outer("test.outer");
    EXPECT_STREQ(obs::current_span_name(), "test.outer");
    {
      const obs::Span inner("test.inner");
      EXPECT_STREQ(obs::current_span_name(), "test.inner");
    }
    EXPECT_STREQ(obs::current_span_name(), "test.outer");
  }
  EXPECT_EQ(obs::current_span_name(), nullptr);

  // Spans are emitted on close, so inner closes first.
  const auto& spans = capture->spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "test.inner");
  EXPECT_STREQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 0u);
  // Temporal containment: inner ⊆ outer.
  EXPECT_GE(spans[0].start, spans[1].start);
  EXPECT_LE(spans[0].end, spans[1].end);
  EXPECT_LE(spans[0].start, spans[0].end);
}

TEST(ObsSpan, RemovedSinkStopsReceivingAndTheOthersStay) {
  const ObsGuard guard;
  auto kept = std::make_shared<CaptureSink>();
  auto removed = std::make_shared<CaptureSink>();
  obs::Registry::global().add_sink(kept);
  obs::Registry::global().add_sink(removed);
  { const obs::Span span("test.both"); }
  obs::Registry::global().remove_sink(removed.get());
  { const obs::Span span("test.kept"); }
  ASSERT_EQ(kept->spans().size(), 2u);
  EXPECT_STREQ(kept->spans()[1].name, "test.kept");
  ASSERT_EQ(removed->spans().size(), 1u);
  EXPECT_STREQ(removed->spans()[0].name, "test.both");
}

TEST(ObsSpan, ParallelForChunksCarryTheEnclosingPhaseName) {
  const ObsGuard guard;
  auto capture = std::make_shared<CaptureSink>();
  obs::Registry::global().add_sink(capture);
  {
    const obs::Span phase("test.phase");
    parallel_for(1000, 2, 64, [](const ChunkRange&, std::size_t) {});
  }
  std::size_t chunks = 0;
  for (const auto& rec : capture->spans())
    if (rec.chunk) {
      ++chunks;
      EXPECT_STREQ(rec.name, "test.phase");
    }
  EXPECT_GT(chunks, 0u);
}

/// Minimal JSON syntax scanner: strings (with escapes), balanced
/// delimiters. Enough to catch a malformed trace without a JSON library.
bool json_is_well_formed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped character
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '[': case '{': stack.push_back(c); break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(ObsTrace, ChromeTraceExportParsesAndRoundTrips) {
  const ObsGuard guard;
  std::ostringstream out;
  obs::Registry::global().add_sink(
      std::make_shared<obs::ChromeTraceSink>(out));
  {
    const obs::Span outer("trace.outer");
    const obs::Span inner("trace.inner");
  }
  obs::counter("trace.counter").add(7);
  obs::Registry::global().finish();

  const std::string trace = out.str();
  EXPECT_TRUE(json_is_well_formed(trace)) << trace;
  // A JSON array of events with the spans, thread metadata, and counters.
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("trace.outer"), std::string::npos);
  EXPECT_NE(trace.find("trace.inner"), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
  EXPECT_NE(trace.find("trace.counter"), std::string::npos);

  // Round-trip: the event names survive json_escape unchanged, and a second
  // flush must not duplicate the buffer.
  const std::string again = out.str();
  obs::Registry::global().finish();
  EXPECT_EQ(out.str(), again);
}

TEST(ObsTrace, JsonlSinkEmitsOneObjectPerLine) {
  const ObsGuard guard;
  std::ostringstream out;
  obs::Registry::global().add_sink(std::make_shared<obs::JsonlSink>(out));
  {
    const obs::Span s("jsonl.span");
  }
  obs::counter("jsonl.counter").add(3);
  obs::Registry::global().finish();

  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(json_is_well_formed(line)) << line;
    EXPECT_EQ(line.front(), '{');
  }
  EXPECT_GE(n, 2u);  // the span event + the final counter totals
}

// ── Histograms ──────────────────────────────────────────────────────

/// Every recorded value must land in a bucket whose [lower, upper] range
/// contains it, and bucket bounds must tile the u64 axis monotonically.
TEST(ObsHistogram, BucketBoundsContainEveryValue) {
  std::uint64_t probes[] = {0,  1,  7,   8,   9,    15,   16,        17,
                            63, 64, 100, 255, 1000, 4095, 1u << 20,  ~0ull};
  for (std::uint64_t v : probes) {
    const std::uint32_t idx = obs::Histogram::bucket_index(v);
    ASSERT_LT(idx, obs::Histogram::kBuckets) << v;
    EXPECT_LE(obs::Histogram::bucket_lower_bound(idx), v) << v;
    EXPECT_GE(obs::Histogram::bucket_upper_bound(idx), v) << v;
  }
  for (std::uint32_t i = 1; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(obs::Histogram::bucket_lower_bound(i),
              obs::Histogram::bucket_upper_bound(i - 1) + 1)
        << "gap or overlap at bucket " << i;
  }
}

/// Sharded recording loses nothing: after all writers quiesce, the merged
/// snapshot's count and sum are exact, and min/max are the true extremes.
TEST(ObsHistogram, MergedTotalsAreExactUnderThreads) {
  const ObsGuard guard;
  obs::Histogram& h = obs::histogram("test.hist");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t)
      workers.emplace_back([&h, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i)
          h.record(t * kPerThread + i);
      });
  }
  const obs::HistogramSnapshot snap = h.snapshot();
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(snap.count, kTotal);
  EXPECT_EQ(snap.sum, kTotal * (kTotal - 1) / 2);  // 0 + 1 + ... + kTotal-1
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, kTotal - 1);
  std::uint64_t bucket_total = 0;
  for (const auto& [index, count] : snap.buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, kTotal);
}

TEST(ObsHistogram, DisabledRecordIsANoop) {
  obs::Registry::global().reset_histograms();
  ASSERT_FALSE(obs::enabled());
  obs::histogram("test.hist_off").record(42);
  EXPECT_EQ(obs::histogram("test.hist_off").snapshot().count, 0u);
}

/// Quantiles are monotone in q, clamped into [min, max], and hit the exact
/// extremes at q=0 / q=1 (the bucket upper bound never overshoots max).
TEST(ObsHistogram, QuantilesAreMonotoneAndClamped) {
  const ObsGuard guard;
  obs::Histogram& h = obs::histogram("test.quant");
  for (std::uint64_t v = 3; v <= 100'000; v = v * 3 + 1) h.record(v);
  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_GT(snap.count, 0u);
  EXPECT_EQ(snap.quantile(0.0), snap.min);
  EXPECT_EQ(snap.quantile(1.0), snap.max);
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const std::uint64_t at = snap.quantile(q);
    EXPECT_GE(at, prev) << "quantile not monotone at q=" << q;
    EXPECT_GE(at, snap.min);
    EXPECT_LE(at, snap.max);
    prev = at;
  }
}

/// The SCC region-size histogram is problem-shaped, not schedule-shaped:
/// its merged buckets must be identical at 1 and 4 threads on every
/// bundled protocol (SCC labels are canonical min-member ids, so the
/// multiset of component sizes is deterministic). The SCC runs only on a
/// ¬I graph with a cycle, so only those protocols must fill it.
TEST(ObsHistogram, SccRegionSizesMatchSerialUnderFourThreads) {
  const ObsGuard guard;
  const auto grab = [] {
    for (const auto& snap : obs::Registry::global().snapshot_histograms())
      if (snap.name == "scc.region_size") return snap;
    return obs::HistogramSnapshot{};
  };
  std::size_t cyclic = 0;
  for (const Protocol& p : testing::protocol_zoo()) {
    RingInstance ring(p, 5);
    obs::Registry::global().reset_histograms();
    const bool has_cycle = GlobalChecker(ring, 1).check_all().has_livelock;
    const obs::HistogramSnapshot serial = grab();

    obs::Registry::global().reset_histograms();
    GlobalChecker(ring, 4).check_all();
    const obs::HistogramSnapshot parallel = grab();

    if (has_cycle) {
      ++cyclic;
      EXPECT_GT(serial.count, 0u) << p.name();
    }
    EXPECT_EQ(parallel.count, serial.count) << p.name();
    EXPECT_EQ(parallel.sum, serial.sum) << p.name();
    EXPECT_EQ(parallel.min, serial.min) << p.name();
    EXPECT_EQ(parallel.max, serial.max) << p.name();
    EXPECT_EQ(parallel.buckets, serial.buckets) << p.name();
  }
  EXPECT_GT(cyclic, 0u) << "no zoo protocol has a ¬I cycle at K=5";
}

// ── Gauges ──────────────────────────────────────────────────────────

TEST(ObsGauge, PeakTracksHighWaterAndSubSaturates) {
  const ObsGuard guard;
  obs::Gauge& g = obs::gauge("test.gauge");
  g.add(100);
  g.add(50);
  g.sub(120);
  EXPECT_EQ(g.value(), 30u);
  EXPECT_EQ(g.peak(), 150u);
  g.sub(1'000'000);  // under-reporting must clamp at zero, not wrap
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.peak(), 150u);
  const auto gauges = obs::Registry::global().snapshot_gauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].name, "test.gauge");
  EXPECT_EQ(gauges[0].peak, 150u);
}

// ── Heartbeats ──────────────────────────────────────────────────────

/// Stopping the heartbeat emits one closing beat flagged `final`, so runs
/// shorter than a beat interval still report totals (and memory gauges).
TEST(ObsHeartbeat, StopEmitsAFinalBeat) {
  const ObsGuard guard;
  auto capture = std::make_shared<CaptureSink>();
  obs::Registry::global().add_sink(capture);
  obs::counter("test.beat").add(9);
  obs::Registry::global().start_heartbeat(std::chrono::milliseconds(60'000));
  obs::Registry::global().stop_heartbeat();

  const auto& beats = capture->heartbeats();
  ASSERT_GE(beats.size(), 1u);
  EXPECT_TRUE(beats.back().final);
  bool saw_counter = false;
  for (const auto& line : beats.back().lines)
    if (line.name == "test.beat" && line.total == 9) saw_counter = true;
  EXPECT_TRUE(saw_counter);
  bool saw_rss = false;
  for (const auto& g : beats.back().gauges)
    if (g.name == "mem.rss_bytes" && g.value > 0) saw_rss = true;
  EXPECT_TRUE(saw_rss);  // memory telemetry rides along on every beat
}

// ── Approx counters ─────────────────────────────────────────────────

TEST(ObsCounter, ApproxCountersAreFlaggedAndTildePrefixed) {
  const ObsGuard guard;
  obs::counter("test.approx", /*approx=*/true).add(3);
  obs::counter("test.exact").add(4);
  const auto totals = obs::Registry::global().snapshot_counters();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_TRUE(totals[0].approx);
  EXPECT_FALSE(totals[1].approx);

  std::ostringstream out;
  obs::Registry::global().add_sink(std::make_shared<obs::StatsSink>(out));
  obs::Registry::global().finish();
  EXPECT_NE(out.str().find("~test.approx"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("~test.exact"), std::string::npos) << out.str();
}

// ── The run manifest ────────────────────────────────────────────────

/// Emit → parse → re-emit must be byte-identical (the property every
/// downstream diff tool leans on), and the emitted document must pass the
/// same structural validation `ringstab-perf validate` applies.
TEST(ObsManifest, RoundTripIsBitIdenticalAndValid) {
  const ObsGuard guard;
  std::ostringstream out;
  auto sink = std::make_shared<obs::MetricsSink>(out, "test --metrics");
  obs::Registry::global().add_sink(sink);
  {
    const obs::Span outer("manifest.outer");
    {
      const obs::Span inner("manifest.inner");
    }
  }
  obs::counter("manifest.counter").add(11);
  obs::counter("manifest.approx", /*approx=*/true).add(2);
  obs::histogram("manifest.hist").record(123);
  obs::histogram("manifest.hist").record(456);
  obs::gauge("manifest.gauge").set(789);
  obs::Registry::global().finish();

  const std::string text = out.str();
  ASSERT_FALSE(text.empty());
  const obs::json::Value doc = obs::json::parse(text);
  EXPECT_EQ(obs::validate_manifest(doc), "");
  EXPECT_EQ(obs::json::dump(doc) + "\n", text);

  // Spot-check content: schema id, command, both phases with self <= total,
  // the approx flag, and the histogram/gauge rows.
  EXPECT_EQ(doc.find("schema")->str, obs::kManifestSchema);
  EXPECT_EQ(doc.find("command")->str, "test --metrics");
  const obs::json::Value* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->items.size(), 2u);
  bool saw_outer = false;
  for (const auto& phase : phases->items) {
    EXPECT_LE(phase.find("self_ns")->as_u64(), phase.find("total_ns")->as_u64());
    if (phase.find("name")->str == "manifest.outer") saw_outer = true;
  }
  EXPECT_TRUE(saw_outer);
  bool saw_approx = false;
  for (const auto& ctr : doc.find("counters")->items)
    if (ctr.find("name")->str == "manifest.approx") {
      const obs::json::Value* flag = ctr.find("approx");
      saw_approx = flag != nullptr && flag->boolean;
    }
  EXPECT_TRUE(saw_approx);
  const obs::json::Value* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->items.size(), 1u);
  EXPECT_EQ(hists->items[0].find("count")->as_u64(), 2u);
  EXPECT_EQ(hists->items[0].find("sum")->as_u64(), 579u);
  EXPECT_EQ(hists->items[0].find("max")->as_u64(), 456u);
}

TEST(ObsManifest, ValidatorRejectsWrongSchemaAndBadNumbers) {
  using obs::json::Value;
  Value wrong = obs::json::parse(R"({"schema":"something.else"})");
  EXPECT_NE(obs::validate_manifest(wrong), "");
  // A phase whose self exceeds total is structurally invalid.
  Value doc = obs::json::parse(
      R"({"schema":"ringstab.metrics.v2","command":"x","git_describe":"g",)"
      R"("hardware":{"threads_available":1},"wall_time_ns":5,)"
      R"("phases":[{"name":"p","calls":1,"total_ns":10,"self_ns":11}],)"
      R"("counters":[],"histograms":[],"gauges":[]})");
  EXPECT_NE(obs::validate_manifest(doc), "");
}

// ── JSON reader ─────────────────────────────────────────────────────

/// Parses `text` on a fresh thread, as the daemon parses a request line on
/// its connection thread, and returns the ParseError message ("" if none).
std::string parse_error_on_a_thread(const std::string& text) {
  std::string error;
  std::thread([&] {
    try {
      obs::json::parse(text);
    } catch (const obs::json::ParseError& e) {
      error = e.what();
    }
  }).join();
  return error;
}

std::string repeat(std::string_view s, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

// The parser recurses once per array or object: unbounded, a 100,000-deep
// document would overflow a thread's stack.
TEST(ObsJson, DeepNestingIsAParseErrorNotACrash) {
  for (const std::string& deep :
       {std::string(100'000, '['), repeat("{\"k\":", 100'000),
        repeat("[{\"k\":", 50'000)})
    EXPECT_NE(parse_error_on_a_thread(deep).find("nesting deeper than 64"),
              std::string::npos);
}

TEST(ObsJson, NestingBoundCountsOpenContainersOnly) {
  const std::size_t n = obs::json::kMaxNesting;
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](std::size_t depth) {
    return repeat("{\"k\":", depth) + "0" + std::string(depth, '}');
  };
  EXPECT_EQ(obs::json::dump(obs::json::parse(arrays(n))), arrays(n));
  EXPECT_EQ(obs::json::dump(obs::json::parse(objects(n))), objects(n));
  // One level more is refused at the container that opens it.
  const auto error_offset = [](const std::string& text) {
    try {
      obs::json::parse(text);
    } catch (const obs::json::ParseError& e) {
      return e.offset();
    }
    return std::string::npos;
  };
  EXPECT_EQ(error_offset(arrays(n + 1)), n);
  EXPECT_EQ(error_offset(objects(n + 1)), 5 * n);  // 5 bytes per {"k":
  // Closed containers give their depth back: many siblings just under the
  // bound parse.
  const std::string wide = "[" + repeat(arrays(n - 1) + ",", 1000) + "0]";
  EXPECT_EQ(obs::json::dump(obs::json::parse(wide)), wide);
}

TEST(ObsOverhead, NullSinkLeavesCheckerResultsBitIdentical) {
  const Protocol p = testing::protocol_zoo().front();
  RingInstance ring(p, 6);
  const GlobalCheckResult plain = GlobalChecker(ring, 2).check_all();

  const ObsGuard guard;
  obs::Registry::global().add_sink(std::make_shared<obs::NullSink>());
  const GlobalCheckResult instrumented = GlobalChecker(ring, 2).check_all();

  EXPECT_EQ(instrumented.num_states, plain.num_states);
  EXPECT_EQ(instrumented.closure_ok, plain.closure_ok);
  EXPECT_EQ(instrumented.num_deadlocks_outside_i,
            plain.num_deadlocks_outside_i);
  EXPECT_EQ(instrumented.deadlock_samples, plain.deadlock_samples);
  EXPECT_EQ(instrumented.has_livelock, plain.has_livelock);
  EXPECT_EQ(instrumented.livelock_cycle, plain.livelock_cycle);
  EXPECT_EQ(instrumented.weakly_converges, plain.weakly_converges);
  EXPECT_EQ(instrumented.max_recovery_steps, plain.max_recovery_steps);
  EXPECT_EQ(instrumented.strongly_converges(), plain.strongly_converges());
}

}  // namespace
}  // namespace ringstab
