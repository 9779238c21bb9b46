#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hpp"
#include "protocols/agreement.hpp"
#include "protocols/sum_not_two.hpp"

namespace ringstab {
namespace {

TEST(Simulator, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(protocols::agreement_one_sided(true), 8, seed);
    sim.randomize();
    std::vector<Value> initial = sim.state();
    auto result = sim.run_to_convergence();
    return std::make_tuple(initial, sim.state(), result.steps);
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(std::get<0>(run(5)), std::get<0>(run(6)));
}

TEST(Simulator, SetStateValidates) {
  Simulator sim(protocols::agreement_both(), 4);
  EXPECT_THROW(sim.set_state({0, 1}), ModelError);
  EXPECT_THROW(sim.set_state({0, 1, 2, 3}), ModelError);
  EXPECT_NO_THROW(sim.set_state({0, 1, 0, 1}));
  EXPECT_EQ(sim.state(), (std::vector<Value>{0, 1, 0, 1}));
}

TEST(Simulator, InvariantAndDeadlockQueries) {
  Simulator sim(protocols::agreement_one_sided(true), 3);
  sim.set_state({1, 1, 1});
  EXPECT_TRUE(sim.in_invariant());
  EXPECT_TRUE(sim.deadlocked());
  sim.set_state({1, 0, 0});
  EXPECT_FALSE(sim.in_invariant());
  EXPECT_FALSE(sim.deadlocked());
}

TEST(Simulator, StepFollowsProtocol) {
  Simulator sim(protocols::agreement_one_sided(true), 3);
  sim.set_state({1, 0, 0});
  const auto step = sim.step();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->process, 1u);  // the only enabled process
  EXPECT_EQ(sim.state(), (std::vector<Value>{1, 1, 0}));
  EXPECT_FALSE(Simulator(protocols::agreement_empty(), 3).step().has_value());
}

TEST(Simulator, ConvergesOnStabilizingProtocols) {
  for (std::size_t k : {3u, 6u, 12u, 25u}) {
    Simulator sim(protocols::sum_not_two_solution(), k, 11);
    for (int trial = 0; trial < 20; ++trial) {
      sim.randomize();
      const auto run = sim.run_to_convergence(100000);
      EXPECT_TRUE(run.converged) << "K=" << k;
      EXPECT_TRUE(sim.in_invariant());
    }
  }
}

TEST(Simulator, ReportsDeadlockOutsideI) {
  Simulator sim(protocols::agreement_empty(), 4);
  sim.set_state({0, 1, 0, 1});
  const auto run = sim.run_to_convergence(100);
  EXPECT_FALSE(run.converged);
  EXPECT_TRUE(run.deadlocked_outside_i);
}

TEST(Simulator, FaultInjectionPerturbsAtMostCount) {
  Simulator sim(protocols::agreement_one_sided(true), 10, 3);
  sim.set_state(std::vector<Value>(10, 1));
  sim.inject_faults(3);
  std::size_t changed = 0;
  for (Value v : sim.state())
    if (v != 1) ++changed;
  EXPECT_LE(changed, 3u);
}

TEST(Simulator, RecoversFromInjectedFaults) {
  Simulator sim(protocols::sum_not_two_solution(), 15, 9);
  sim.set_state(std::vector<Value>(15, 0));
  ASSERT_TRUE(sim.in_invariant());
  for (int round = 0; round < 10; ++round) {
    sim.inject_faults(4);
    const auto run = sim.run_to_convergence(100000);
    EXPECT_TRUE(run.converged);
  }
}

TEST(Simulator, UniformBatchAggregates) {
  const auto est = estimate_convergence_rounds(
      protocols::agreement_one_sided(true), 8, uniform_daemon_batch(50, 21));
  EXPECT_EQ(est.trajectories, 50u);
  EXPECT_EQ(est.converged + est.censored, 50u);
  EXPECT_EQ(est.censored, 0u);
  EXPECT_LE(est.mean_rounds, static_cast<double>(est.max_rounds));
  EXPECT_LE(est.max_rounds, 7u);  // worst case K-1
}

TEST(Simulator, NonConvergingProtocolCanFail) {
  // Empty coloring deadlocks outside I immediately from a bad state.
  EstimateOptions eo = uniform_daemon_batch(50, 2);
  eo.round_cap = 1000;
  const auto est =
      estimate_convergence_rounds(protocols::agreement_empty(), 6, eo);
  EXPECT_GT(est.censored, 0u);
}

TEST(Simulator, UniformBatchSamplesTheSimulatorsDaemon) {
  // kWeightedRandom with no weights draws one enabled (process, transition)
  // pair uniformly per step, as Simulator's kUniformRandom does, so the two
  // mean recovery times from uniform random starts agree within sampling
  // error: here within 4 standard errors of their difference.
  const Protocol p = protocols::sum_not_two_solution();
  constexpr std::size_t kRing = 16;
  constexpr std::size_t kTrials = 2000;
  Simulator sim(p, kRing, 17);
  double sum = 0.0, sq = 0.0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    sim.randomize();
    const auto run = sim.run_to_convergence();
    ASSERT_TRUE(run.converged);
    const auto steps = static_cast<double>(run.steps);
    sum += steps;
    sq += steps * steps;
  }
  const double n = static_cast<double>(kTrials);
  const double loop_mean = sum / n;
  const double loop_var = (sq - n * loop_mean * loop_mean) / (n - 1);
  const auto est =
      estimate_convergence_rounds(p, kRing, uniform_daemon_batch(kTrials, 17));
  ASSERT_EQ(est.converged, kTrials);
  const double se = std::sqrt(loop_var / n + est.stddev_rounds *
                                                 est.stddev_rounds / n);
  EXPECT_GT(se, 0.0);
  EXPECT_LE(std::abs(est.mean_rounds - loop_mean), 4.0 * se)
      << "estimator mean " << est.mean_rounds << ", Simulator mean "
      << loop_mean;
}

}  // namespace
}  // namespace ringstab
