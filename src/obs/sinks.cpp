#include "obs/sinks.hpp"

#include <algorithm>
#include <iomanip>

#include "obs/metrics_json.hpp"

namespace ringstab::obs {
namespace {

double ms(Ticks t) { return static_cast<double>(t) / 1e6; }
double us(Ticks t) { return static_cast<double>(t) / 1e3; }

}  // namespace

// ─── StatsSink ───────────────────────────────────────────────────────────

void StatsSink::on_span(const SpanRecord& rec) {
  const std::string key =
      rec.chunk ? std::string(1, '\x01') + rec.name : std::string(rec.name);
  Agg& a = phases_[key];
  if (a.calls == 0) {
    a.min = a.max = rec.end - rec.start;
    a.order = phases_.size();
  }
  const Ticks d = rec.end - rec.start;
  ++a.calls;
  a.total += d;
  a.min = std::min(a.min, d);
  a.max = std::max(a.max, d);
}

void StatsSink::on_counters(const std::vector<CounterTotal>& totals) {
  counters_ = totals;
}

void StatsSink::on_histograms(const std::vector<HistogramSnapshot>& hists) {
  histograms_ = hists;
}

void StatsSink::on_gauges(const std::vector<GaugeSnapshot>& gauges) {
  gauges_ = gauges;
}

void StatsSink::flush() {
  if (flushed_) return;
  flushed_ = true;
  std::ostream& os = *out_;
  os << "── obs phase summary "
     << "──────────────────────────────────────────\n";
  if (phases_.empty()) os << "  (no spans recorded)\n";
  // Display in first-seen order; chunk aggregates directly under their
  // phase when both exist.
  std::vector<std::pair<std::string, Agg>> rows(phases_.begin(),
                                                phases_.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) {
              return a.second.order < b.second.order;
            });
  os << "  " << std::left << std::setw(34) << "phase" << std::right
     << std::setw(8) << "calls" << std::setw(12) << "total ms"
     << std::setw(11) << "mean ms" << std::setw(11) << "max ms" << "\n";
  for (const auto& [key, a] : rows) {
    const bool chunk = !key.empty() && key[0] == '\x01';
    const std::string label =
        chunk ? "  " + key.substr(1) + " ⟨chunks⟩" : key;
    os << "  " << std::left << std::setw(34) << label << std::right
       << std::setw(8) << a.calls << std::setw(12) << std::fixed
       << std::setprecision(2) << ms(a.total) << std::setw(11)
       << ms(a.total) / static_cast<double>(a.calls) << std::setw(11)
       << ms(a.max) << "\n";
  }
  if (!counters_.empty()) {
    os << "── obs counters "
       << "───────────────────────────────────────────────\n";
    // Approximate (schedule-dependent) counters carry a `~` prefix.
    for (const auto& c : counters_)
      os << "  " << std::left << std::setw(40)
         << (c.approx ? "~" + c.name : c.name) << std::right << std::setw(16)
         << c.value << "\n";
  }
  if (!histograms_.empty()) {
    os << "── obs histograms "
       << "─────────────────────────────────────────────\n";
    os << "  " << std::left << std::setw(30) << "histogram" << std::right
       << std::setw(10) << "count" << std::setw(12) << "p50"
       << std::setw(12) << "p90" << std::setw(12) << "p99" << std::setw(12)
       << "max" << "\n";
    for (const auto& h : histograms_)
      os << "  " << std::left << std::setw(30) << h.name << std::right
         << std::setw(10) << h.count << std::setw(12) << h.quantile(0.50)
         << std::setw(12) << h.quantile(0.90) << std::setw(12)
         << h.quantile(0.99) << std::setw(12) << h.max << "\n";
  }
  if (!gauges_.empty()) {
    os << "── obs gauges "
       << "─────────────────────────────────────────────────\n";
    for (const auto& g : gauges_)
      os << "  " << std::left << std::setw(40) << g.name << std::right
         << std::setw(16) << g.value << "  peak " << g.peak << "\n";
  }
  os << "──────────────────────────────────────────"
     << "─────────────────────\n";
  os.flush();
}

// ─── JsonlSink ───────────────────────────────────────────────────────────

void JsonlSink::on_span(const SpanRecord& rec) {
  *out_ << "{\"type\":\"span\",\"name\":\"" << json_escape(rec.name)
        << "\",\"start_ns\":" << rec.start << ",\"dur_ns\":"
        << rec.end - rec.start << ",\"tid\":" << rec.tid
        << ",\"depth\":" << rec.depth
        << ",\"chunk\":" << (rec.chunk ? "true" : "false") << "}\n";
}

void JsonlSink::on_heartbeat(const Heartbeat& hb) {
  *out_ << "{\"type\":\"heartbeat\",\"elapsed_sec\":" << hb.elapsed_sec
        << ",\"final\":" << (hb.final ? "true" : "false") << ",\"counters\":{";
  for (std::size_t i = 0; i < hb.lines.size(); ++i)
    *out_ << (i ? "," : "") << "\"" << json_escape(hb.lines[i].name)
          << "\":" << hb.lines[i].total;
  *out_ << "}";
  if (!hb.gauges.empty()) {
    *out_ << ",\"gauges\":{";
    for (std::size_t i = 0; i < hb.gauges.size(); ++i)
      *out_ << (i ? "," : "") << "\"" << json_escape(hb.gauges[i].name)
            << "\":" << hb.gauges[i].value;
    *out_ << "}";
  }
  *out_ << "}\n";
}

void JsonlSink::on_counters(const std::vector<CounterTotal>& totals) {
  *out_ << "{\"type\":\"counters\"";
  for (const auto& c : totals)
    *out_ << ",\"" << json_escape(c.name) << "\":" << c.value;
  *out_ << "}\n";
}

void JsonlSink::on_histograms(const std::vector<HistogramSnapshot>& hists) {
  for (const auto& h : hists) {
    *out_ << "{\"type\":\"histogram\",\"name\":\"" << json_escape(h.name)
          << "\",\"count\":" << h.count << ",\"sum\":" << h.sum
          << ",\"min\":" << h.min << ",\"max\":" << h.max
          << ",\"p50\":" << h.quantile(0.50) << ",\"p90\":" << h.quantile(0.90)
          << ",\"p99\":" << h.quantile(0.99) << "}\n";
  }
}

void JsonlSink::on_gauges(const std::vector<GaugeSnapshot>& gauges) {
  for (const auto& g : gauges) {
    *out_ << "{\"type\":\"gauge\",\"name\":\"" << json_escape(g.name)
          << "\",\"value\":" << g.value << ",\"peak\":" << g.peak << "}\n";
  }
}

void JsonlSink::flush() { out_->flush(); }

// ─── ChromeTraceSink ─────────────────────────────────────────────────────

void ChromeTraceSink::on_span(const SpanRecord& rec) {
  spans_.push_back(rec);
}

void ChromeTraceSink::on_counters(const std::vector<CounterTotal>& totals) {
  counters_ = totals;
}

void ChromeTraceSink::flush() {
  if (flushed_) return;
  flushed_ = true;
  std::ostream& os = *out_;
  // Rebase timestamps so the trace starts near 0.
  Ticks epoch = ~Ticks{0};
  for (const SpanRecord& s : spans_) epoch = std::min(epoch, s.start);
  if (spans_.empty()) epoch = 0;

  std::vector<std::uint32_t> tids;
  for (const SpanRecord& s : spans_)
    if (std::find(tids.begin(), tids.end(), s.tid) == tids.end())
      tids.push_back(s.tid);
  std::sort(tids.begin(), tids.end());

  os << "[\n"
     << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
        "\"args\":{\"name\":\"ringstab\"}}";
  for (std::uint32_t tid : tids) {
    os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << (tid == 0 ? std::string("main") : "worker-" + std::to_string(tid))
       << "\"}}";
  }
  os << std::fixed << std::setprecision(3);
  for (const SpanRecord& s : spans_) {
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"name\":\""
       << json_escape(s.name) << "\",\"cat\":\""
       << (s.chunk ? "chunk" : "phase") << "\",\"ts\":" << us(s.start - epoch)
       << ",\"dur\":" << us(s.end - s.start) << "}";
  }
  // Final counter totals as one counter event at the end of the trace.
  Ticks last = epoch;
  for (const SpanRecord& s : spans_) last = std::max(last, s.end);
  for (const auto& c : counters_) {
    os << ",\n{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\""
       << json_escape(c.name) << "\",\"ts\":" << us(last - epoch)
       << ",\"args\":{\"value\":" << c.value << "}}";
  }
  os << "\n]\n";
  os.flush();
}

}  // namespace ringstab::obs
