#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

constexpr std::size_t kProbeSlots = std::size_t{1} << 18;
constexpr std::uint64_t kProbeKeys = 100000;
constexpr int kProbeOps = 200000;
constexpr std::size_t kProbeSortLen = 100000;
constexpr int kProbePasses = 3;

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 33;
}

}  // namespace

SpeedProbe::SpeedProbe()
    : keys_(kProbeSlots), values_(kProbeSlots), unsorted_(kProbeSortLen),
      sorted_(kProbeSortLen) {
  std::uint64_t x = 12345;
  for (auto& v : unsorted_) v = static_cast<std::uint32_t>(lcg(x));
}

double SpeedProbe::probe() {
  double best = pass_ms();
  for (int i = 1; i < kProbePasses; ++i) best = std::min(best, pass_ms());
  probe_ms_.push_back(best);
  return best;
}

double SpeedProbe::pass_ms() {
  std::uint64_t sum = 0;
  const double ms = 1e3 * time_s([&] {
    std::fill(keys_.begin(), keys_.end(), 0);
    std::fill(values_.begin(), values_.end(), 0);
    const std::size_t mask = kProbeSlots - 1;
    const auto slot = [&](std::uint64_t key) {
      std::size_t h = (key * 0x9E3779B97F4A7C15ull) & mask;
      while (keys_[h] != 0 && keys_[h] != key) h = (h + 1) & mask;
      return h;
    };
    std::uint64_t x = 777;
    for (int i = 0; i < kProbeOps; ++i) {
      const std::uint64_t key = lcg(x) % kProbeKeys + 1;
      const std::size_t h = slot(key);
      keys_[h] = key;
      values_[h] += static_cast<std::uint64_t>(i);
    }
    for (int i = 0; i < kProbeOps; ++i) {
      const std::uint64_t key = lcg(x) % kProbeKeys + 1;
      const std::size_t h = slot(key);
      if (keys_[h] == key) sum += values_[h];
    }
    std::copy(unsorted_.begin(), unsorted_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    sum += sorted_[kProbeSortLen / 2];
  });
  // The sum depends on every step, so none of the work can be dropped.
  if (sum == 0) throw std::logic_error("speed probe: empty pass");
  return ms;
}

namespace {

/// 0-based nearest-rank index of q in n samples: ceil(q n) - 1.
std::size_t rank_index(std::size_t n, double q) {
  const double pos = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t r = pos < 1 ? 1 : static_cast<std::size_t>(pos);
  return std::min(r, n) - 1;
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double q) {
  return sorted[rank_index(sorted.size(), q)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

Percentile tail_percentile(std::vector<double> v, double wanted) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  for (const double q : {0.99, 0.9, 0.5}) {
    if (q > wanted) continue;
    if (samples_beyond(v.size(), q) >= kMinBeyond) {
      p.q = q;
      p.value = nearest_rank(v, q);
      p.beyond = samples_beyond(v.size(), q);
      return p;
    }
  }
  p.q = 0.5;
  p.value = median(v);
  p.beyond = samples_beyond(v.size(), 0.5);
  return p;
}

int Tracer::open(const std::string& name, std::uint64_t request, int parent) {
  if (!enabled_) return -1;
  const double t = seconds_since(epoch_);
  std::lock_guard lock(mu_);
  spans_.push_back({name, request, parent, t, t});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  if (id < 0) return;
  const double t = seconds_since(epoch_);
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = t;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

double Tracer::total(const std::string& name) const {
  double sum = 0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (s.name == name) out.push_back(s.duration());
  return out;
}

void write_spans(const Args& args, const std::vector<SpanRecord>& all,
                 Outcome& out) {
  const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  std::ofstream f(path);
  f << "{\"spans\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    f << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
      << ", \"name\": " << json_string(s.name) << ", \"request\": "
      << s.request << ", \"parent\": " << s.parent
      << ", \"start_s\": " << json_number(s.start_s)
      << ", \"end_s\": " << json_number(s.end_s) << "}";
  }
  f << "\n]}\n";
  out.expect(static_cast<bool>(f), "span file written: " + path);
}

void Outcome::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Outcome::note(const std::string& name, double value,
                   const std::string& unit, const std::string& comment) {
  notes_.push_back({{name, value, unit}, comment});
}

void Outcome::print(const std::string& provenance_json) const {
  std::cout << "provenance " << provenance_json << "\n";
  for (const auto& [m, comment] : notes_) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit;
    if (!comment.empty()) std::cout << "  (" << comment << ")";
    std::cout << "\n";
  }
  std::cout << "  error_rate = "
            << json_number(static_cast<double>(failed_) /
                           static_cast<double>(attempted_))
            << " ratio\n";
  for (const Metric& m : metrics_)
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": "
            << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::cout << (i ? ", " : "") << json_string(m.name)
              << ": {\"value\": " << json_number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      // global: the fused checker's stages and the quotient
      {"global.classify_s", "s"},
      {"global.graph_s", "s"},
      {"global.reach_s", "s"},
      {"global.layering_s", "s"},
      {"global.necklace_s", "s"},
      {"global.quotient_post_census_s", "s"},
      {"global.states", "count"},
      {"global.not_inv_states", "count"},
      {"global.edges", "count"},
      {"global.fixpoint_rounds", "count"},
      {"global.csr_mb", "MB"},
      {"global.recovery_steps", "count"},
      {"global.necklaces", "count"},
      // graph
      {"graph.scc_s", "s"},
      {"graph.livelock_states", "count"},
      // synthesis funnel
      {"synthesis.enumerate_s", "s"},
      {"synthesis.candidates", "count"},
      {"synthesis.static_rejects", "count"},
      {"synthesis.ill_formed", "count"},
      {"synthesis.npl_accepts", "count"},
      {"synthesis.trail_rejects", "count"},
      {"synthesis.solutions", "count"},
      {"synthesis.memo_entries", "count"},
      {"synthesis.accept_ratio", "ratio"},
      {"analysis.lane_s", "s"},
      {"analysis.lint_screen_s", "s"},
      {"local.npl_s", "s"},
      {"local.trail_s", "s"},
      {"global.fixedk_s", "s"},
      {"global.fixedk_states", "count"},
      // serve
      {"serve.decode_us", "us"},
      {"serve.key_us", "us"},
      {"serve.hit_us_p50", "us"},
      {"serve.hit_us_p99", "us"},
      {"serve.miss_ms_p50", "ms"},
      {"serve.miss_ms_p99", "ms"},
      {"serve.exec_check_ms", "ms"},
      {"serve.exec_lint_ms", "ms"},
      {"serve.exec_analyze_ms", "ms"},
      {"serve.exec_synthesize_ms", "ms"},
      {"serve.exec_simulate_ms", "ms"},
      {"serve.hit_ratio", "ratio"},
      {"serve.evictions", "count"},
      // every workload
      {"trace_overhead_frac", "ratio"},
      {"unattributed_frac", "ratio"},
  };
  return kUnits;
}

void set_layer_metrics(Outcome& out, const std::map<std::string, double>& v) {
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = v.find(name);
    out.set(name, it == v.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : v) {
    bool known = false;
    for (const auto& [n, u] : layer_metric_units()) known |= n == name;
    if (!known) out.expect(false, "unknown per-layer metric " + name);
  }
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace perfbench
