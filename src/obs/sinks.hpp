// Pluggable observability sinks: null, human-readable stats, JSON-lines
// event stream, and Chrome trace-event export (chrome://tracing, Perfetto).
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace ringstab::obs {

/// Discards everything. Exists so "instrumentation on, output off" can be
/// tested to leave results bit-identical.
class NullSink : public Sink {};

/// Aggregates spans per phase name and prints a phase/counter summary
/// table on flush. Chunk slices are aggregated separately from their
/// enclosing phase spans (shown indented, as `⟨chunks⟩`).
class StatsSink : public Sink {
 public:
  /// Writes to `out` on flush (not owned; must outlive the sink).
  explicit StatsSink(std::ostream& out) : out_(&out) {}

  void on_span(const SpanRecord& rec) override;
  void on_counters(const std::vector<CounterTotal>& totals) override;
  void on_histograms(const std::vector<HistogramSnapshot>& hists) override;
  void on_gauges(const std::vector<GaugeSnapshot>& gauges) override;
  void flush() override;

 private:
  struct Agg {
    std::uint64_t calls = 0;
    Ticks total = 0;
    Ticks min = 0;
    Ticks max = 0;
    std::size_t order = 0;  // first-seen rank, for stable display
  };
  std::ostream* out_;
  std::map<std::string, Agg> phases_;  // key: name, '\x01'+name for chunks
  std::vector<CounterTotal> counters_;
  std::vector<HistogramSnapshot> histograms_;
  std::vector<GaugeSnapshot> gauges_;
  bool flushed_ = false;
};

/// One JSON object per line per event: spans, heartbeats, final counters.
/// Machine-readable without buffering; suitable for long runs.
class JsonlSink : public Sink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}

  void on_span(const SpanRecord& rec) override;
  void on_heartbeat(const Heartbeat& hb) override;
  void on_counters(const std::vector<CounterTotal>& totals) override;
  void on_histograms(const std::vector<HistogramSnapshot>& hists) override;
  void on_gauges(const std::vector<GaugeSnapshot>& gauges) override;
  void flush() override;

 private:
  std::ostream* out_;
};

/// Buffers span records and writes a Chrome trace-event JSON array on
/// flush: complete ("X") events with microsecond timestamps, one `tid`
/// track per worker lane, plus thread_name metadata so Perfetto labels the
/// tracks. Counter totals become one "C" event at the end of the trace.
class ChromeTraceSink : public Sink {
 public:
  explicit ChromeTraceSink(std::ostream& out) : out_(&out) {}

  void on_span(const SpanRecord& rec) override;
  void on_counters(const std::vector<CounterTotal>& totals) override;
  void flush() override;

 private:
  std::ostream* out_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterTotal> counters_;
  bool flushed_ = false;
};

/// Owns an output file stream and forwards to an inner sink writing to it.
/// Lets the CLI hand `--trace t.json` / `--jsonl ev.jsonl` to the registry
/// without leaking stream lifetimes.
///
/// Failure discipline: the stream state is re-checked after every flush —
/// not just at open — so a disk that fills mid-run (or an fd that goes
/// bad) is reported once on stderr with the errno cause, healthy() goes
/// false, and Session::finish() turns that into a nonzero exit.
template <typename InnerSink>
class FileSink : public Sink {
 public:
  /// Extra arguments are forwarded to the inner sink after the stream
  /// (e.g. the command string for MetricsSink).
  template <typename... Args>
  explicit FileSink(const std::string& path, Args&&... args)
      : path_(path),
        file_(std::make_unique<std::ofstream>(path)),
        inner_(*file_, std::forward<Args>(args)...) {}
  bool ok() const { return file_->good(); }
  void on_span(const SpanRecord& r) override { inner_.on_span(r); }
  void on_heartbeat(const Heartbeat& h) override { inner_.on_heartbeat(h); }
  void on_counters(const std::vector<CounterTotal>& t) override {
    inner_.on_counters(t);
  }
  void on_histograms(const std::vector<HistogramSnapshot>& h) override {
    inner_.on_histograms(h);
  }
  void on_gauges(const std::vector<GaugeSnapshot>& g) override {
    inner_.on_gauges(g);
  }
  void flush() override {
    errno = 0;
    inner_.flush();
    file_->flush();
    if (!file_->good()) note_write_failure(errno);
  }
  bool healthy() const override { return !failed_ && file_->good(); }
  std::string describe() const override { return "output file " + path_; }

 private:
  void note_write_failure(int err) {
    failed_ = true;
    if (warned_) return;
    warned_ = true;
    std::fprintf(stderr, "ringstab: warning: write to %s failed (%s)\n",
                 path_.c_str(),
                 err != 0 ? std::strerror(err) : "stream in failed state");
  }

  std::string path_;
  std::unique_ptr<std::ofstream> file_;
  InnerSink inner_;
  bool failed_ = false;  // sticky: clear()ing the stream can't unfail us
  bool warned_ = false;
};

}  // namespace ringstab::obs
