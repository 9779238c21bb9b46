// The four perfbench workloads. Each runs for Args::seconds, checks every
// output it produces through Outcome::expect, and sets either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <cstddef>

#include "bench.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  std::size_t lanes;  // worker lanes (serve-mix: client connections)
  void (*run)(const Args&, std::size_t lanes, Outcome&);
};

void run_check_converge(const Args& args, std::size_t lanes, Outcome& out);
void run_check_livelock(const Args& args, std::size_t lanes, Outcome& out);
void run_synth_matching(const Args& args, std::size_t lanes, Outcome& out);
void run_serve_mix(const Args& args, std::size_t lanes, Outcome& out);

inline constexpr Workload kWorkloads[] = {
    {"check-converge", 1, run_check_converge},
    {"check-livelock", 2, run_check_livelock},
    {"synth-matching", 2, run_synth_matching},
    {"serve-mix", 2, run_serve_mix},
};

/// Sets the end-to-end metrics every workload reports (see METRICS.md).
/// `op_ms` / `alt_ms` are per-operation latencies in ms; `ops_per_s` is the
/// rate of completed operations; `rss_mb` the process high-water mark
/// where the workload samples it.
void set_end_to_end(Outcome& out, double setup_s,
                    const std::vector<double>& op_ms,
                    const std::vector<double>& alt_ms, double ops_per_s,
                    double rss_mb);

/// Median time of one set-up, measured `reps` times. Set-ups much shorter
/// than the clock's noise floor are timed in batches of `batch`.
template <typename Fn>
double median_setup_s(int reps, int batch, Fn&& setup) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r)
    samples.push_back(time_s([&] {
                        for (int b = 0; b < batch; ++b) setup();
                      }) /
                      batch);
  return median(samples);
}

}  // namespace perfbench
