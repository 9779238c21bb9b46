#include "obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>

namespace ringstab::obs {
namespace {

thread_local std::uint32_t t_tid = 0;
thread_local std::vector<const char*> t_span_stack;

std::string format_count(std::uint64_t v) {
  char buf[32];
  if (v >= 10'000'000'000ull)
    std::snprintf(buf, sizeof(buf), "%.1fG", static_cast<double>(v) / 1e9);
  else if (v >= 10'000'000ull)
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(v) / 1e6);
  else if (v >= 100'000ull)
    std::snprintf(buf, sizeof(buf), "%.1fk", static_cast<double>(v) / 1e3);
  else
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
  return buf;
}

/// Parses a "VmRSS:   123 kB" style line value into bytes, 0 on no match.
std::uint64_t proc_status_kb(const std::string& line, const char* key) {
  if (line.rfind(key, 0) != 0) return 0;
  const char* p = line.c_str() + std::string_view(key).size();
  while (*p == ' ' || *p == '\t') ++p;
  std::uint64_t kb = 0;
  while (*p >= '0' && *p <= '9') kb = kb * 10 + static_cast<std::uint64_t>(*p++ - '0');
  return kb * 1024;
}

}  // namespace

Ticks now() {
  return static_cast<Ticks>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* git_describe() {
#ifdef RINGSTAB_GIT_DESCRIBE
  return RINGSTAB_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::size_t detail::thread_ordinal() {
  // Distinct threads get distinct ordinals; shard owners take these mod
  // their shard count, so threads spread over shards until more threads
  // than shards exist (then they share — still lock-free, merely
  // contended).
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

std::uint32_t Histogram::bucket_index(std::uint64_t value) {
  if (value < kSubCount) return static_cast<std::uint32_t>(value);
  const std::uint32_t msb =
      63u - static_cast<std::uint32_t>(std::countl_zero(value));
  const std::uint32_t octave = msb - kSubBits + 1;  // >= 1
  const std::uint32_t sub = static_cast<std::uint32_t>(
      (value >> (msb - kSubBits)) & (kSubCount - 1));
  return octave * kSubCount + sub;
}

std::uint64_t Histogram::bucket_lower_bound(std::uint32_t index) {
  const std::uint32_t octave = index / kSubCount;
  const std::uint32_t sub = index % kSubCount;
  if (octave == 0) return sub;
  return static_cast<std::uint64_t>(kSubCount + sub) << (octave - 1);
}

std::uint64_t Histogram::bucket_upper_bound(std::uint32_t index) {
  const std::uint32_t octave = index / kSubCount;
  const std::uint32_t sub = index % kSubCount;
  if (octave == 0) return sub;
  // One less than the next bucket's lower bound; careful at the top where
  // the next lower bound would overflow.
  const std::uint64_t width = std::uint64_t{1} << (octave - 1);
  const std::uint64_t lo = static_cast<std::uint64_t>(kSubCount + sub)
                           << (octave - 1);
  return lo + width - 1;  // wraps to ~0 exactly at the final 64-bit bucket
}

Histogram::Histogram(std::string name)
    : name_(std::move(name)), shards_(new Shard[kShards]) {
  reset();
}

void Histogram::record(std::uint64_t value) {
  if (!enabled()) return;
  Shard& s = shards_[detail::thread_ordinal() % kShards];
  s.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t m = s.min.load(std::memory_order_relaxed);
  while (value < m &&
         !s.min.compare_exchange_weak(m, value, std::memory_order_relaxed)) {
  }
  m = s.max.load(std::memory_order_relaxed);
  while (value > m &&
         !s.max.compare_exchange_weak(m, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.min = ~std::uint64_t{0};
  std::uint64_t merged[kBuckets] = {};
  for (std::size_t i = 0; i < kShards; ++i) {
    const Shard& s = shards_[i];
    for (std::uint32_t b = 0; b < kBuckets; ++b)
      merged[b] += s.buckets[b].load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.min = std::min(snap.min, s.min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
  }
  for (std::uint32_t b = 0; b < kBuckets; ++b)
    if (merged[b] > 0) {
      snap.buckets.emplace_back(b, merged[b]);
      snap.count += merged[b];
    }
  if (snap.count == 0) snap.min = 0;
  return snap;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < kShards; ++i) {
    Shard& s = shards_[i];
    for (std::uint32_t b = 0; b < kBuckets; ++b)
      s.buckets[b].store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank of the q-quantile among `count` sorted samples (1-based,
  // ceil(q*count) clamped into [1, count]), then walk the cumulative
  // bucket counts to the bucket holding that rank.
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count) + (1.0 - 1e-12));
  rank = std::min(std::max<std::uint64_t>(rank, 1), count);
  std::uint64_t seen = 0;
  for (const auto& [index, n] : buckets) {
    seen += n;
    if (seen >= rank) {
      const std::uint64_t hi = Histogram::bucket_upper_bound(index);
      return std::min(std::max(hi, min), max);
    }
  }
  return max;
}

Registry& Registry::global() {
  static Registry* reg = new Registry();  // leaked: outlives static dtors
  return *reg;
}

Counter& Registry::counter(std::string_view name, bool approx) {
  std::lock_guard lock(mu_);
  for (auto& [n, c] : counters_)
    if (n == name) {
      if (approx) c->mark_approx();
      return *c;
    }
  counters_.emplace_back(
      std::string(name), std::make_unique<Counter>(std::string(name), approx));
  return *counters_.back().second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  for (auto& [n, h] : histograms_)
    if (n == name) return *h;
  histograms_.emplace_back(std::string(name),
                           std::make_unique<Histogram>(std::string(name)));
  return *histograms_.back().second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  return gauge_locked(name);
}

Gauge& Registry::gauge_locked(std::string_view name) {
  for (auto& [n, g] : gauges_)
    if (n == name) return *g;
  gauges_.emplace_back(std::string(name),
                       std::make_unique<Gauge>(std::string(name)));
  return *gauges_.back().second;
}

std::vector<CounterTotal> Registry::snapshot_counters() const {
  std::lock_guard lock(mu_);
  std::vector<CounterTotal> out;
  for (const auto& [n, c] : counters_) {
    const std::uint64_t v = c->total();
    if (v > 0) out.push_back({n, v, c->approx()});
  }
  std::sort(out.begin(), out.end(),
            [](const CounterTotal& a, const CounterTotal& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<HistogramSnapshot> Registry::snapshot_histograms() const {
  std::lock_guard lock(mu_);
  std::vector<HistogramSnapshot> out;
  for (const auto& [n, h] : histograms_) {
    HistogramSnapshot snap = h->snapshot();
    if (snap.count > 0) out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<GaugeSnapshot> Registry::snapshot_gauges() const {
  std::lock_guard lock(mu_);
  std::vector<GaugeSnapshot> out;
  for (const auto& [n, g] : gauges_) {
    if (g->peak() > 0) out.push_back({n, g->value(), g->peak()});
  }
  std::sort(out.begin(), out.end(),
            [](const GaugeSnapshot& a, const GaugeSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void Registry::reset_counters() {
  std::lock_guard lock(mu_);
  for (auto& [n, c] : counters_) c->reset();
}

void Registry::reset_histograms() {
  std::lock_guard lock(mu_);
  for (auto& [n, h] : histograms_) h->reset();
}

void Registry::reset_gauges() {
  std::lock_guard lock(mu_);
  for (auto& [n, g] : gauges_) g->reset();
}

void Registry::add_sink(std::shared_ptr<Sink> sink) {
  std::lock_guard lock(mu_);
  sinks_.push_back(std::move(sink));
}

void Registry::remove_sink(const Sink* sink) {
  std::lock_guard lock(mu_);
  std::erase_if(sinks_, [&](const auto& s) { return s.get() == sink; });
}

void Registry::clear_sinks() {
  std::lock_guard lock(mu_);
  sinks_.clear();
}

void Registry::emit_span(const SpanRecord& rec) {
  std::lock_guard lock(mu_);
  for (auto& s : sinks_) s->on_span(rec);
  // Top-level phase boundaries double as memory sampling points, so the
  // manifest's RSS peak reflects every phase even without --progress.
  if (rec.depth == 0 && !rec.chunk) sample_memory_locked();
}

void Registry::sample_process_memory() {
  std::lock_guard lock(mu_);
  sample_memory_locked();
}

void Registry::sample_memory_locked() {
  std::ifstream in("/proc/self/status");
  if (!in.is_open()) return;
  std::string line;
  std::uint64_t rss = 0, hwm = 0;
  while (std::getline(in, line)) {
    if (std::uint64_t v = proc_status_kb(line, "VmRSS:")) rss = v;
    if (std::uint64_t v = proc_status_kb(line, "VmHWM:")) hwm = v;
  }
  if (rss > 0) gauge_locked("mem.rss_bytes").set(rss);
  if (hwm > 0) gauge_locked("mem.hwm_bytes").set(hwm);
}

void Registry::beat_locked(Ticks at, bool final_beat) {
  // Totals are a live (non-quiescent) read: safe, possibly a few adds shy
  // of the in-flight truth. The final exact totals come from finish().
  sample_memory_locked();
  std::vector<CounterTotal> totals;
  for (const auto& [n, c] : counters_) {
    const std::uint64_t v = c->total();
    if (v > 0) totals.push_back({n, v, c->approx()});
  }
  std::sort(totals.begin(), totals.end(),
            [](const CounterTotal& a, const CounterTotal& b) {
              return a.name < b.name;
            });
  Heartbeat hb;
  hb.at = at;
  hb.elapsed_sec =
      static_cast<double>(at - heartbeat_started_) / 1e9;
  hb.final = final_beat;
  const double interval =
      std::max(last_beat_totals_.empty() ? hb.elapsed_sec
                                         : last_interval_sec_,
               1e-9);
  for (const CounterTotal& t : totals) {
    std::uint64_t prev = 0;
    for (const CounterTotal& p : last_beat_totals_)
      if (p.name == t.name) prev = p.value;
    hb.lines.push_back(
        {t.name, t.value, static_cast<double>(t.value - prev) / interval});
  }
  for (const auto& [n, g] : gauges_)
    if (g->peak() > 0) hb.gauges.push_back({n, g->value(), g->peak()});
  std::sort(hb.gauges.begin(), hb.gauges.end(),
            [](const GaugeSnapshot& a, const GaugeSnapshot& b) {
              return a.name < b.name;
            });
  std::string msg = "[obs] " + std::to_string(hb.elapsed_sec);
  msg.resize(msg.find('.') + 2);  // one decimal of elapsed seconds
  msg += final_beat ? "s (final)" : "s";
  for (const auto& line : hb.lines) {
    msg += "  " + line.name + "=" + format_count(line.total);
    if (line.rate_per_sec >= 1.0)
      msg += " (" +
             format_count(static_cast<std::uint64_t>(line.rate_per_sec)) +
             "/s)";
  }
  for (const auto& g : hb.gauges)
    if (g.name == "mem.rss_bytes")
      msg += "  rss=" + format_count(g.value) + "B";
  msg += "\n";
  std::fputs(msg.c_str(), stderr);
  for (auto& s : sinks_) s->on_heartbeat(hb);
  last_beat_totals_ = std::move(totals);
}

void Registry::start_heartbeat(std::chrono::milliseconds period) {
  std::lock_guard lock(mu_);
  if (heartbeat_.joinable()) return;
  heartbeat_started_ = now();
  last_beat_totals_.clear();
  last_interval_sec_ = static_cast<double>(period.count()) / 1e3;
  heartbeat_ = std::jthread([this, period](std::stop_token stop) {
    std::unique_lock lock(mu_);
    while (!stop.stop_requested()) {
      if (heartbeat_cv_.wait_for(lock, stop, period,
                                 [&] { return stop.stop_requested(); }))
        return;
      beat_locked(now(), /*final_beat=*/false);
    }
  });
}

void Registry::stop_heartbeat() {
  {
    std::lock_guard lock(mu_);
    if (!heartbeat_.joinable()) return;
    heartbeat_.request_stop();
  }
  heartbeat_cv_.notify_all();
  heartbeat_.join();
  heartbeat_ = std::jthread();
  // One closing beat so runs shorter than a beat interval still report
  // totals/rates, and so event streams carry a terminal "final" heartbeat.
  std::lock_guard lock(mu_);
  beat_locked(now(), /*final_beat=*/true);
}

void Registry::finish() {
  stop_heartbeat();
  sample_process_memory();
  const auto totals = snapshot_counters();
  const auto hists = snapshot_histograms();
  const auto gauges = snapshot_gauges();
  std::lock_guard lock(mu_);
  for (auto& s : sinks_) s->on_counters(totals);
  for (auto& s : sinks_) s->on_histograms(hists);
  for (auto& s : sinks_) s->on_gauges(gauges);
  for (auto& s : sinks_) s->flush();
}

Span::Span(const char* name, bool chunk) : name_(name), chunk_(chunk) {
  if (!enabled()) return;
  active_ = true;
  t_span_stack.push_back(name_);
  start_ = now();
}

Span::~Span() {
  if (!active_) return;
  const Ticks end = now();
  t_span_stack.pop_back();
  SpanRecord rec;
  rec.name = name_;
  rec.start = start_;
  rec.end = end;
  rec.tid = t_tid;
  rec.depth = static_cast<std::uint32_t>(t_span_stack.size());
  rec.chunk = chunk_;
  Registry::global().emit_span(rec);
}

const char* current_span_name() {
  return t_span_stack.empty() ? nullptr : t_span_stack.back();
}

LaneScope::LaneScope(std::uint32_t lane) : prev_(t_tid) { t_tid = lane; }
LaneScope::~LaneScope() { t_tid = prev_; }

}  // namespace ringstab::obs
