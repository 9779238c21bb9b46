// Observability core: RAII phase spans on a monotonic clock, named
// counters with lock-free sharded storage, log-bucketed latency/size
// histograms, gauges with peak tracking, and pluggable event sinks.
//
// Design notes:
//  * One process-wide Registry (Registry::global()). Instrumentation sites
//    never pass handles around; they open spans and bump counters by name.
//  * Everything is gated on a single relaxed atomic `enabled` flag. With
//    observability off (the default) a Span constructor, a Counter::add,
//    and a Histogram::record are one relaxed load and a predictable
//    branch — the engines' results and throughput are those of the
//    uninstrumented code.
//  * Counter::add is lock-free: each thread hashes to one of kShards
//    cache-line-padded atomic slots and does a relaxed fetch_add. Sums over
//    the shards are exact once writers have quiesced (a parallel_for join,
//    a Session finish) because every add lands whole in exactly one shard.
//  * Histogram::record uses the same per-thread sharding over per-shard
//    bucket arrays; merged bucket counts are exact after writers quiesce,
//    so histograms of problem-shaped values (e.g. SCC region sizes) are
//    bit-identical at every thread count.
//  * Counters are exact by default; registration sites that count *work
//    done under a race* (early-exit scans, memo traffic) register with
//    approx=true and render with a `~` prefix in --stats and an
//    "approx" flag in the run manifest.
//  * Spans nest per thread (a thread-local stack); parallel_for emits one
//    chunk-grained span per chunk on the lane that ran it, tagged with the
//    lane id, so trace sinks can render one track per lane.
//  * Sinks (sinks.hpp) consume span records, heartbeats, and final counter
//    /histogram/gauge totals; Registry serializes all sink calls under one
//    mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ringstab::obs {

/// Monotonic nanoseconds since an arbitrary process-local epoch.
using Ticks = std::uint64_t;
Ticks now();

/// Global instrumentation switch, read on every span/counter fast path.
inline std::atomic<bool> g_enabled{false};
inline bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// `git describe` of the build (compile-time stamp, "unknown" outside git).
const char* git_describe();

/// Set (never cleared) when a signal cut the run short; the manifest sink
/// stamps `"interrupted": true` so downstream tooling can tell a partial
/// artifact from a completed one. Safe to call from any thread — but NOT
/// from an async signal handler (the flag is consumed by ordinary code;
/// the serve::ShutdownWatcher sigwait thread is the intended caller).
inline std::atomic<bool> g_interrupted{false};
inline void mark_interrupted() {
  g_interrupted.store(true, std::memory_order_relaxed);
}
inline bool interrupted() {
  return g_interrupted.load(std::memory_order_relaxed);
}

namespace detail {
/// Small dense per-thread ordinal: distinct threads land on distinct
/// shards (mod the shard count) until more threads than shards exist.
std::size_t thread_ordinal();
}  // namespace detail

/// One finished span. `name` must be a string with static storage duration
/// (instrumentation sites use literals).
struct SpanRecord {
  const char* name = "";
  Ticks start = 0;
  Ticks end = 0;
  std::uint32_t tid = 0;    // logical lane: 0 = caller, 1.. = pool workers
  std::uint32_t depth = 0;  // nesting depth on its thread at open time
  bool chunk = false;       // a parallel_for chunk slice (vs a phase span)
};

struct CounterTotal {
  std::string name;
  std::uint64_t value = 0;
  /// True when the registration site marked the counter schedule-dependent
  /// (counts work done, not problem size). Rendered as `~name`.
  bool approx = false;
};

/// Merged view of one histogram once writers have quiesced. Bucket counts
/// are exact; bucket values are the log-bucket lower bounds.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // exact smallest recorded value
  std::uint64_t max = 0;  // exact largest recorded value
  /// Nonzero buckets, ascending: (bucket index, count).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  /// Upper bound of the bucket holding the q-quantile, clamped into
  /// [min, max]; q in [0, 1]. quantile(1.0) == max.
  std::uint64_t quantile(double q) const;
};

struct GaugeSnapshot {
  std::string name;
  std::uint64_t value = 0;
  std::uint64_t peak = 0;
};

struct Heartbeat {
  Ticks at = 0;
  double elapsed_sec = 0;
  /// The teardown beat emitted when --progress stops, so runs shorter than
  /// one beat interval still report totals.
  bool final = false;
  /// Counters with nonzero totals, plus their rate since the last beat.
  struct Line {
    std::string name;
    std::uint64_t total = 0;
    double rate_per_sec = 0;  // delta since previous beat / interval
  };
  std::vector<Line> lines;
  /// Gauges with nonzero peaks (memory telemetry sampled before the beat).
  std::vector<GaugeSnapshot> gauges;
};

/// Event consumer; implementations in sinks.hpp. All callbacks run under
/// the Registry mutex (serialized, possibly from the heartbeat thread).
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_span(const SpanRecord&) {}
  virtual void on_heartbeat(const Heartbeat&) {}
  /// Final exact totals, once, at Session end.
  virtual void on_counters(const std::vector<CounterTotal>&) {}
  virtual void on_histograms(const std::vector<HistogramSnapshot>&) {}
  virtual void on_gauges(const std::vector<GaugeSnapshot>&) {}
  virtual void flush() {}
  /// False once the sink's backing artifact can no longer be completed
  /// (e.g. a write to its file failed). Checked by Session::finish() so a
  /// run that asked for --metrics/--trace/--jsonl exits nonzero instead of
  /// silently leaving a truncated artifact behind.
  virtual bool healthy() const { return true; }
  /// Short human label for health warnings ("metrics file x.json", …).
  virtual std::string describe() const { return "sink"; }
};

/// A named monotonically increasing counter with sharded lock-free storage.
class Counter {
 public:
  static constexpr std::size_t kShards = 32;

  explicit Counter(std::string name, bool approx = false)
      : name_(std::move(name)), approx_(approx) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }
  bool approx() const { return approx_.load(std::memory_order_relaxed); }
  void mark_approx() { approx_.store(true, std::memory_order_relaxed); }

  /// Relaxed fetch_add on this thread's shard; no-op while disabled.
  void add(std::uint64_t n) {
    if (!enabled() || n == 0) return;
    shards_[detail::thread_ordinal() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over the shards: exact once all writers have joined.
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  std::string name_;
  std::atomic<bool> approx_;
  Shard shards_[kShards];
};

/// A named log-bucketed (HDR-style) histogram of uint64 values with the
/// same sharded-per-thread relaxed-atomic design as Counter: record() is
/// one fetch_add into this thread's shard, merged bucket counts are exact
/// once writers quiesce, and the bucket partition depends only on the
/// recorded values — never on the thread count — so histograms of
/// problem-shaped metrics are thread-count-invariant.
///
/// Buckets: values below 2^kSubBits map exactly; above that, each octave
/// splits into 2^kSubBits sub-buckets (relative bucket width <= 1/8).
class Histogram {
 public:
  static constexpr std::uint32_t kSubBits = 3;
  static constexpr std::uint32_t kSubCount = 1u << kSubBits;  // 8
  static constexpr std::uint32_t kBuckets = (64 - kSubBits + 1) * kSubCount;

  explicit Histogram(std::string name);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const std::string& name() const { return name_; }

  /// Relaxed bucket increment on this thread's shard; no-op while disabled.
  void record(std::uint64_t value);

  /// Merged buckets + exact count/sum/min/max once writers have joined.
  HistogramSnapshot snapshot() const;
  void reset();

  static std::uint32_t bucket_index(std::uint64_t value);
  static std::uint64_t bucket_lower_bound(std::uint32_t index);
  /// Inclusive upper bound (the largest value mapping to the bucket).
  static std::uint64_t bucket_upper_bound(std::uint32_t index);

 private:
  static constexpr std::size_t kShards = 8;
  struct Shard {
    std::atomic<std::uint64_t> buckets[kBuckets];
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
  };

  std::string name_;
  // Heap: kBuckets = 496 eight-byte buckets per shard, ~4 KiB, so ~32 KiB
  // over the kShards shards.
  std::unique_ptr<Shard[]> shards_;
};

/// A named instantaneous level (bytes live, RSS, …) with a tracked peak.
/// Unlike counters, gauge updates are NOT gated on enabled(): allocation
/// accounting (mem.bitset_bytes) must stay balanced across enable/disable
/// transitions. Call sites are allocation-grained, never per-state.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  const std::string& name() const { return name_; }

  void set(std::uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_peak(v);
  }
  void add(std::uint64_t n) {
    raise_peak(v_.fetch_add(n, std::memory_order_relaxed) + n);
  }
  /// Saturating at zero (a Session reset may have cleared the level while
  /// previously-counted allocations are still live).
  void sub(std::uint64_t n) {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur > n ? cur - n : 0,
                                     std::memory_order_relaxed)) {
    }
  }

  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_peak(std::uint64_t v) {
    std::uint64_t p = peak_.load(std::memory_order_relaxed);
    while (p < v &&
           !peak_.compare_exchange_weak(p, v, std::memory_order_relaxed)) {
    }
  }

  std::string name_;
  std::atomic<std::uint64_t> v_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// The process-wide registry of counters, histograms, gauges, and sinks.
class Registry {
 public:
  static Registry& global();

  /// Find-or-create; the reference stays valid for the process lifetime.
  /// `approx` is sticky: once any registration site marks a counter
  /// approximate it stays marked.
  Counter& counter(std::string_view name, bool approx = false);
  Histogram& histogram(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Exact totals of every registered counter, sorted by name. Counters
  /// that never fired (total 0) are omitted.
  std::vector<CounterTotal> snapshot_counters() const;
  /// Histograms with at least one recorded value, sorted by name.
  std::vector<HistogramSnapshot> snapshot_histograms() const;
  /// Gauges with a nonzero peak, sorted by name.
  std::vector<GaugeSnapshot> snapshot_gauges() const;
  void reset_counters();
  void reset_histograms();
  void reset_gauges();

  void add_sink(std::shared_ptr<Sink> sink);
  /// Detach one sink that add_sink attached; the others stay.
  void remove_sink(const Sink* sink);
  void clear_sinks();

  void emit_span(const SpanRecord& rec);

  /// Reads VmRSS/VmHWM from /proc/self/status into the mem.rss_bytes /
  /// mem.hwm_bytes gauges (no-op where /proc is unavailable). Called by
  /// the heartbeat thread before each beat, at top-level span boundaries,
  /// and by finish().
  void sample_process_memory();

  /// Periodic heartbeat: counter totals + rates to stderr and to every
  /// sink, on a dedicated thread, until stop_heartbeat()/finish().
  void start_heartbeat(std::chrono::milliseconds period);
  /// Stops the beat thread and emits one final beat (final=true) so runs
  /// shorter than one interval still report totals.
  void stop_heartbeat();

  /// Stop the heartbeat, deliver final counter/histogram/gauge totals,
  /// flush all sinks.
  void finish();

 private:
  Registry() = default;
  void beat_locked(Ticks at, bool final_beat);  // requires mu_
  Gauge& gauge_locked(std::string_view name);   // requires mu_
  void sample_memory_locked();                  // requires mu_

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::shared_ptr<Sink>> sinks_;
  std::jthread heartbeat_;
  std::condition_variable_any heartbeat_cv_;
  Ticks heartbeat_started_ = 0;
  double last_interval_sec_ = 0;  // configured beat period, for rates
  std::vector<CounterTotal> last_beat_totals_;
};

/// Shorthand: Registry::global().counter(name). Pass approx=true at the
/// registration site of a schedule-dependent counter (docs/observability.md
/// "Counter semantics").
inline Counter& counter(std::string_view name, bool approx = false) {
  return Registry::global().counter(name, approx);
}

/// Shorthand: Registry::global().histogram(name).
inline Histogram& histogram(std::string_view name) {
  return Registry::global().histogram(name);
}

/// Shorthand: Registry::global().gauge(name).
inline Gauge& gauge(std::string_view name) {
  return Registry::global().gauge(name);
}

/// RAII phase span. Opens on construction (when enabled), emits one
/// SpanRecord on destruction. `name` must outlive the program (literal).
/// Closing a top-level span also samples process memory, so the manifest's
/// memory peaks include a reading at every phase boundary.
class Span {
 public:
  explicit Span(const char* name, bool chunk = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  Ticks start_ = 0;
  bool active_ = false;
  bool chunk_ = false;
};

/// Innermost open span name on this thread, or nullptr. parallel_for reads
/// this on the calling thread to label the chunk slices it emits on lanes.
const char* current_span_name();

/// Sets this thread's logical lane id for the scope (used by the pool so
/// spans opened inside a parallel region carry the worker's track id).
class LaneScope {
 public:
  explicit LaneScope(std::uint32_t lane);
  ~LaneScope();
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  std::uint32_t prev_;
};

}  // namespace ringstab::obs
