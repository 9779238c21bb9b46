// EXP-S3 — empirical convergence of the synthesized protocols under a
// random scheduler: recovery steps from random corruption, swept over K.
#include "bench_util.hpp"
#include "core/fmt.hpp"
#include "protocols/agreement.hpp"
#include "protocols/misc.hpp"
#include "protocols/sum_not_two.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace ringstab;

void report() {
  bench::header("EXP-S3", "simulated recovery of synthesized protocols",
                "protocols certified by the local method must converge from "
                "every corruption; recovery time grows roughly linearly in K "
                "for these copy/correct protocols");

  struct Row {
    const char* name;
    Protocol p;
  };
  const std::vector<Row> rows = {
      {"agreement (one-sided)", protocols::agreement_one_sided(true)},
      {"agreement (max, |D|=3)", protocols::agreement_max(3)},
      {"sum-not-two solution", protocols::sum_not_two_solution()},
      {"no-adjacent-ones", protocols::no_adjacent_ones_solution()},
  };
  const EstimateOptions eo = uniform_daemon_batch(500, 42);
  std::vector<bench::Json> runs;
  for (const auto& rowdef : rows) {
    std::cout << "  " << rowdef.name << " (500 random starts per K):\n";
    for (std::size_t k : {8u, 16u, 32u, 64u, 128u}) {
      const auto est = estimate_convergence_rounds(rowdef.p, k, eo);
      std::cout << "    K=" << k << ": converged " << est.converged << "/"
                << est.trajectories << ", mean " << est.mean_rounds
                << " steps, max " << est.max_rounds << "\n";
      runs.push_back(bench::Json()
                         .put("protocol", rowdef.name)
                         .put("ring_size", k)
                         .put("trials", est.trajectories)
                         .put("converged", est.converged)
                         .put("mean_steps", est.mean_rounds)
                         .put("p95_steps", est.p95_rounds)
                         .put("max_steps", est.max_rounds));
    }
  }
  bench::write_bench_json("BENCH_sim_convergence.json",
                          bench::Json()
                              .put("experiment", "sim_convergence")
                              .put("seed", 42)
                              .put("runs", runs));
  bench::note("failures would indicate an unsound certification — none are "
              "expected (cross-checked by the test suite)");
  bench::footer();
}

void BM_SimulatedRecovery(benchmark::State& state) {
  const Protocol p = protocols::sum_not_two_solution();
  const auto k = static_cast<std::size_t>(state.range(0));
  Simulator sim(p, k, 7);
  for (auto _ : state) {
    sim.randomize();
    const auto run = sim.run_to_convergence();
    benchmark::DoNotOptimize(run.steps);
  }
  state.SetComplexityN(static_cast<std::int64_t>(k));
}
BENCHMARK(BM_SimulatedRecovery)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_SimulationStep(benchmark::State& state) {
  const Protocol p = protocols::agreement_max(3);
  Simulator sim(p, 64, 9);
  sim.randomize();
  for (auto _ : state) {
    if (!sim.step()) sim.randomize();
  }
}
BENCHMARK(BM_SimulationStep);

}  // namespace

RINGSTAB_BENCH_MAIN(report)
