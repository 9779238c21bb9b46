// Shared pieces of the perfbench binary: clocks, percentiles, the in-memory
// span recorder, output checks, and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall time of one call, in seconds.
template <typename Fn>
double time_s(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// A fixed reference computation that tracks the machine's current speed.
///
/// On a shared host the speed of memory-heavy code drifts by up to ~40% over
/// seconds to minutes, as neighbours load the caches and memory bus. A probe
/// pass (open-addressing hash inserts and lookups in a 4 MB table, then a
/// sort of 100,000 integers) touches memory the way the checkers and
/// synthesizers do but allocates nothing and calls no ringstab code, so a
/// change to the program never changes it. A probe is the fastest of three
/// passes, which leaves out the cache refill after the work before it.
/// scaled() divides a measured time by the probes around it, which takes
/// most of the drift out.
class SpeedProbe {
 public:
  /// Probe time, in ms, that scaled() scales to: about one pass on an idle
  /// 2.1 GHz Xeon vCPU, so scaled times read close to wall times there.
  static constexpr double kReferenceMs = 12;

  SpeedProbe();

  /// The time `measure()` returns (in any unit) at reference speed:
  /// kReferenceMs × that time / the mean of the probes just before and
  /// just after the call.
  template <typename Measure>
  double scaled(Measure&& measure) {
    const double before = last_ms_ > 0 ? last_ms_ : probe();
    const double raw = measure();
    last_ms_ = probe();
    raw_.push_back(raw);
    return kReferenceMs * raw / ((before + last_ms_) / 2);
  }

  /// Wall time of `fn`, in ms at reference speed.
  template <typename Fn>
  double scaled_ms(Fn&& fn) {
    return scaled([&] { return 1e3 * time_s(fn); });
  }

  /// Unscaled values of the measurements scaled() has taken.
  const std::vector<double>& raw() const { return raw_; }
  /// Wall times of the probes so far, in ms.
  const std::vector<double>& probe_ms() const { return probe_ms_; }

 private:
  double probe();
  double pass_ms();

  std::vector<std::uint64_t> keys_, values_;
  std::vector<std::uint32_t> unsorted_, sorted_;
  double last_ms_ = 0;
  std::vector<double> raw_, probe_ms_;
};

/// Command-line settings of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";      // checkout root: examples/rings lives here
  std::string out_dir = ".";   // span files and the daemon socket go here
  std::string describe = "unknown";
};

// ── statistics ──────────────────────────────────────────────────────────

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// Samples a percentile needs strictly above it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// A reported percentile: which rank was used and on how many samples.
struct Percentile {
  double q = 0.5;       // 0.99, 0.9 or 0.5
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples strictly above the reported rank
};

/// Nearest-rank percentile of a sorted, non-empty sample.
double nearest_rank(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank position of q in n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of p99, p90 and p50 not above `wanted` that has at least
/// kMinBeyond samples beyond it. With fewer than 2 * kMinBeyond samples no
/// rank qualifies and the median is reported (Percentile::beyond says so).
Percentile tail_percentile(std::vector<double> v, double wanted = 0.99);

// ── tracing ─────────────────────────────────────────────────────────────

/// One recorded span: a call into a layer, timed from the benchmark's code.
struct SpanRecord {
  std::string name;
  std::uint64_t request = 0;  // spans of one operation share this id
  int parent = -1;            // index of the enclosing span, -1 for a root
  double start_s = 0;         // since the tracer was created
  double end_s = 0;
  double duration() const { return end_s - start_s; }
};

/// Spans held in memory and written out when the run ends. A disabled
/// tracer records nothing, so one code path serves traced and untraced
/// passes. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int open(const std::string& name, std::uint64_t request = 0,
           int parent = -1);
  void close(int id);

  std::vector<SpanRecord> spans() const;
  /// Summed duration of every span called `name`.
  double total(const std::string& name) const;
  /// Durations of the spans called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class Outcome;

/// Writes {"spans": [...]} as JSON to <out_dir>/spans-<workload>-<seed>.json;
/// a failed write counts as a failed check.
void write_spans(const Args& args, const std::vector<SpanRecord>& spans,
                 Outcome& out);

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, std::uint64_t request = 0,
       int parent = -1)
      : tracer_(tracer), id_(tracer.open(name, request, parent)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ── results ─────────────────────────────────────────────────────────────

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Checks made on the program's outputs, and the metrics of one run.
class Outcome {
 public:
  /// Records one checked output; a failed check is logged to stderr.
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Metrics printed in the result line (the mode's metric list).
  void set(const std::string& name, double value, const std::string& unit);
  /// Named figures printed above the result line, not in it.
  void note(const std::string& name, double value, const std::string& unit,
            const std::string& comment = "");

  /// Human-readable lines (notes, error_rate = failed / attempted), then the
  /// one-line JSON result.
  void print(const std::string& provenance_json) const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::pair<Metric, std::string>> notes_;
};

/// The per-layer metric names and units a traced run reports, in output
/// order (see METRICS.md). A workload reports 0 for layers it never calls.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Fills every per-layer metric: the given values, 0 for the rest.
void set_layer_metrics(Outcome& out, const std::map<std::string, double>& v);

/// Process high-water resident set, in MB.
double peak_rss_mb();

/// JSON string literal (quotes and escapes).
std::string json_string(const std::string& s);

/// Shortest decimal that reads back as exactly `v`.
std::string json_number(double v);

}  // namespace perfbench
