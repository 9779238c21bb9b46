// Shared reporting helpers for the per-figure benchmark binaries.
//
// Each bench binary prints a "paper vs measured" report for the figure it
// regenerates, then runs google-benchmark timings of the underlying
// computations. EXPERIMENTS.md archives the reports.
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/session.hpp"
#include "obs/sinks.hpp"

namespace ringstab::bench {

/// Schema id stamped into every BENCH_*.json artifact; `ringstab-perf
/// validate` rejects documents without it.
inline constexpr const char* kBenchSchema = "ringstab.bench.v1";

inline void header(const std::string& experiment, const std::string& artifact,
                   const std::string& claim) {
  std::cout << "\n================================================================\n"
            << experiment << " — " << artifact << "\n"
            << "PAPER CLAIM: " << claim << "\n"
            << "----------------------------------------------------------------\n";
}

inline void row(const std::string& what, const std::string& paper,
                const std::string& measured) {
  std::cout << "  " << what << "\n    paper:    " << paper
            << "\n    measured: " << measured << "\n";
}

inline void note(const std::string& text) {
  std::cout << "  NOTE: " << text << "\n";
}

inline void footer() {
  std::cout << "================================================================\n\n";
}

/// Insertion-ordered JSON object builder for the machine-readable
/// BENCH_*.json artifacts (CI trend tracking). Values are rendered
/// immediately, so the builder is just a list of pre-formatted fields.
class Json {
 public:
  Json& put(const std::string& key, const std::string& v) {
    return raw(key, '"' + obs::json_escape(v) + '"');
  }
  Json& put(const std::string& key, const char* v) {
    return put(key, std::string(v));
  }
  Json& put(const std::string& key, double v) {
    std::ostringstream os;
    os << v;
    return raw(key, os.str());
  }
  Json& put(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int>>>
  Json& put(const std::string& key, Int v) {
    return raw(key, std::to_string(v));
  }
  Json& put(const std::string& key, const std::vector<Json>& objects) {
    std::string a = "[\n";
    for (std::size_t i = 0; i < objects.size(); ++i)
      a += "    " + objects[i].render(/*inline_object=*/true) +
           (i + 1 < objects.size() ? ",\n" : "\n");
    return raw(key, a + "  ]");
  }
  /// Appends every field of `other`, preserving order (used to stamp
  /// header fields ahead of a caller-built document).
  Json& put_all(const Json& other) {
    for (const auto& [k, v] : other.fields_) raw(k, v);
    return *this;
  }

  std::string render(bool inline_object = false) const {
    std::string out = inline_object ? "{" : "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (!inline_object) out += "  ";
      out += '"' + fields_[i].first + "\": " + fields_[i].second;
      if (i + 1 < fields_.size()) out += ",";
      if (!inline_object) out += "\n";
      else if (i + 1 < fields_.size()) out += " ";
    }
    return out + (inline_object ? "}" : "}\n");
  }

 private:
  Json& raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Set when any write_bench_json call failed; RINGSTAB_BENCH_MAIN folds it
/// into the process exit code so CI can't mistake a bench whose artifact
/// never landed for a successful run.
inline bool g_bench_artifact_failed = false;

/// Write a BENCH_*.json artifact, checking every step: returns false (with
/// the errno cause on stderr) when the file can't be opened or the bytes
/// don't all land. Callers who can choose their own exit code use this.
inline bool try_write_bench_json(const std::string& filename,
                                 const Json& json) {
  Json stamped;
  stamped.put("schema", kBenchSchema);
  stamped.put("git_describe", obs::git_describe());
  stamped.put_all(json);
  errno = 0;
  std::ofstream out(filename);
  if (!out.is_open()) {
    std::cerr << "  ERROR: cannot open " << filename << " ("
              << (errno != 0 ? std::strerror(errno) : "open failed") << ")\n";
    return false;
  }
  out << stamped.render();
  out.flush();
  if (!out.good()) {
    std::cerr << "  ERROR: write to " << filename << " failed ("
              << (errno != 0 ? std::strerror(errno) : "stream error") << ")\n";
    return false;
  }
  std::cout << "  wrote " << filename << "\n";
  return true;
}

/// Write a BENCH_*.json artifact next to the binary and announce it in the
/// report (EXPERIMENTS.md links these by name). Every artifact is stamped
/// with the bench schema id and the build's `git describe`, so
/// `ringstab-perf validate` / `diff` can check and provenance-label it.
/// A failed write is reported on stderr and turns the bench's exit code
/// nonzero (via RINGSTAB_BENCH_MAIN) instead of passing silently.
inline void write_bench_json(const std::string& filename, const Json& json) {
  if (!try_write_bench_json(filename, json)) g_bench_artifact_failed = true;
}

/// Custom main: print the report once, then run the timings. When
/// RINGSTAB_BENCH_METRICS=<path> is set, the whole bench runs under an
/// observability session that writes a ringstab.metrics.v2 manifest there
/// (the perf-smoke CI job validates it with `ringstab-perf validate`).
/// Exits nonzero when any artifact write failed or a metrics sink went
/// unhealthy — a bench whose outputs didn't land is a failed bench.
#define RINGSTAB_BENCH_MAIN(report_fn)                                 \
  int main(int argc, char** argv) {                                    \
    ::ringstab::obs::SessionOptions obs_opts;                          \
    if (const char* path = std::getenv("RINGSTAB_BENCH_METRICS")) {    \
      obs_opts.metrics_path = path;                                    \
      obs_opts.command = std::string("bench ") + argv[0];              \
    }                                                                  \
    ::ringstab::obs::Session obs_session(obs_opts);                    \
    report_fn();                                                       \
    ::benchmark::Initialize(&argc, argv);                              \
    ::benchmark::RunSpecifiedBenchmarks();                             \
    ::benchmark::Shutdown();                                           \
    int bench_rc = 0;                                                  \
    if (::ringstab::bench::g_bench_artifact_failed) bench_rc = 1;      \
    if (!obs_session.finish()) bench_rc = 1;                           \
    return bench_rc;                                                   \
  }

}  // namespace ringstab::bench
