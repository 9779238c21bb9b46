// EXP-S2b — the parallel portfolio synthesizer: candidate-verdict throughput
// of the serial loop vs the 4-lane portfolio vs a warm verdict memo, on the
// same inputs with bit-identical results (test_synthesis_parallel pins the
// equality; this bench measures what the equivalence costs or saves).
//
// Configurations:
//   serial_cold    num_threads=1, memoization off   (the pre-portfolio loop)
//   threads4_cold  num_threads=4, memoization off   (lanes only)
//   serial_warm    num_threads=1, warm shared memo  (verdict reuse only)
//   threads4_warm  num_threads=4, warm shared memo  (lanes + verdict reuse)
// The warm configs time a run whose VerdictMemo was filled by one prior run
// with identical options — the steady state of ringstab-batch --synth, where
// one memo is shared across a whole directory of inputs. Every config turns
// trail classification, rejected-candidate reports and the closure check off
// (base_options); each JSON row repeats those settings with its lanes, memo
// state and candidate count, and the document carries the build's
// `git describe` and the host's hardware lane count.
//
// Artifact: BENCH_synth_parallel.json (committed at the repo root,
// schema-checked by the perf_validate_bench ctest entry).
#include <chrono>
#include <functional>
#include <memory>

#include "bench_util.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/coloring.hpp"
#include "protocols/matching.hpp"
#include "protocols/sum_not_two.hpp"
#include "synthesis/local_synthesizer.hpp"

namespace {

using namespace ringstab;

double ms_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

SynthesisOptions base_options() {
  SynthesisOptions opts;
  // Pure candidate-verdict throughput: skip the (serial, realization-heavy)
  // rejected-trail classification and don't retain per-candidate reports.
  opts.classify_rejected_trails = false;
  opts.keep_rejected_reports = false;
  opts.require_closed_invariant = false;
  return opts;
}

struct ConfigRun {
  std::string config;
  SynthesisOptions opts;  // as timed; the JSON row labels come from here
  double ms = 0;
  std::size_t candidates = 0;
  std::size_t solutions = 0;
};

ConfigRun run_config(const Protocol& input, const std::string& config,
                     std::size_t num_threads, bool warm) {
  SynthesisOptions opts = base_options();
  opts.num_threads = num_threads;
  if (warm) {
    opts.memo = std::make_shared<VerdictMemo>();
    synthesize_convergence(input, opts);  // fill the memo, untimed
  } else {
    opts.memoize = false;
  }
  ConfigRun run;
  run.config = config;
  SynthesisResult res;
  run.ms = ms_of([&] { res = synthesize_convergence(input, opts); });
  run.opts = opts;
  run.opts.memo.reset();  // memoize alone tells warm from off
  run.candidates = res.candidates_examined;
  run.solutions = res.solutions.size();
  return run;
}

void report() {
  bench::header(
      "EXP-S2b", "portfolio synthesis throughput",
      "the portfolio fan-out and the verdict memo change only where "
      "candidate verdicts are computed, never what they are — so lanes and "
      "warm memos buy candidate throughput at zero semantic cost");

  std::vector<bench::Json> entries;
  double best_speedup = 0;
  std::string best_protocol;
  for (const Protocol& input :
       {protocols::matching_skeleton(), protocols::sum_not_two_empty(),
        protocols::coloring_empty(3)}) {
    const ConfigRun serial_cold =
        run_config(input, "serial_cold", 1, /*warm=*/false);
    const ConfigRun threads4_cold =
        run_config(input, "threads4_cold", 4, /*warm=*/false);
    const ConfigRun serial_warm =
        run_config(input, "serial_warm", 1, /*warm=*/true);
    const ConfigRun threads4_warm =
        run_config(input, "threads4_warm", 4, /*warm=*/true);

    std::cout << "  " << input.name() << " (" << serial_cold.candidates
              << " candidates, " << serial_cold.solutions << " solutions):\n";
    std::vector<bench::Json> configs;
    for (const ConfigRun& run :
         {serial_cold, threads4_cold, serial_warm, threads4_warm}) {
      const double throughput =
          run.ms > 0 ? static_cast<double>(run.candidates) / (run.ms / 1e3)
                     : 0;
      const double speedup =
          run.ms > 0 ? serial_cold.ms / run.ms : 0;
      std::cout << "    " << run.config << ": " << run.ms << " ms, "
                << throughput << " candidates/s, " << speedup
                << "x vs serial_cold\n";
      configs.push_back(bench::Json()
                            .put("config", run.config)
                            .put("threads", run.opts.num_threads)
                            .put("memo", run.opts.memoize ? "warm" : "off")
                            .put("classify_rejected_trails",
                                 run.opts.classify_rejected_trails)
                            .put("keep_rejected_reports",
                                 run.opts.keep_rejected_reports)
                            .put("require_closed_invariant",
                                 run.opts.require_closed_invariant)
                            .put("ms", run.ms)
                            .put("candidates", run.candidates)
                            .put("solutions", run.solutions)
                            .put("candidates_per_sec", throughput)
                            .put("speedup_vs_serial_cold", speedup));
      if (run.config == "threads4_warm" && speedup > best_speedup) {
        best_speedup = speedup;
        best_protocol = input.name();
      }
    }
    entries.push_back(bench::Json()
                          .put("protocol", input.name())
                          .put("configs", configs));
  }

  bench::row("best threads4_warm speedup over serial_cold",
             "≥ 2x on at least one protocol",
             best_protocol + ": " + std::to_string(best_speedup) + "x");
  bench::note(
      "on a single-core runner the lanes-only config cannot beat serial; "
      "the memo carries the speedup, which is why both axes are reported "
      "separately");
  bench::write_bench_json(
      "BENCH_synth_parallel.json",
      bench::Json()
          .put("experiment", "synth_parallel")
          .put("hardware_threads", resolve_threads(0))
          .put("best_threads4_warm_speedup", best_speedup)
          .put("best_protocol", best_protocol)
          .put("meets_2x_criterion", best_speedup >= 2.0)
          .put("runs", entries));
  bench::footer();
}

void BM_SynthSerialCold(benchmark::State& state) {
  const Protocol input = protocols::sum_not_two_empty();
  SynthesisOptions opts = base_options();
  opts.memoize = false;
  for (auto _ : state) {
    const auto res = synthesize_convergence(input, opts);
    benchmark::DoNotOptimize(res.success);
  }
}
BENCHMARK(BM_SynthSerialCold);

void BM_SynthWarmMemoByThreads(benchmark::State& state) {
  const Protocol input = protocols::sum_not_two_empty();
  SynthesisOptions opts = base_options();
  opts.num_threads = static_cast<std::size_t>(state.range(0));
  opts.memo = std::make_shared<VerdictMemo>();
  synthesize_convergence(input, opts);  // warm
  for (auto _ : state) {
    const auto res = synthesize_convergence(input, opts);
    benchmark::DoNotOptimize(res.success);
  }
}
BENCHMARK(BM_SynthWarmMemoByThreads)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

RINGSTAB_BENCH_MAIN(report)
