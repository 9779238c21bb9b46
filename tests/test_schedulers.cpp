// Scheduler policies: certified protocols must converge under every daemon,
// and the policies differ in the runs they produce.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "protocols/agreement.hpp"
#include "protocols/sum_not_two.hpp"
#include "sim/simulator.hpp"

namespace ringstab {
namespace {

const Scheduler kAll[] = {Scheduler::kUniformRandom, Scheduler::kRoundRobin,
                          Scheduler::kLeftmostFirst};

TEST(Schedulers, CertifiedProtocolsConvergeUnderEveryDaemon) {
  for (const Protocol& p :
       {protocols::agreement_one_sided(true),
        protocols::sum_not_two_solution()}) {
    for (Scheduler sched : kAll) {
      Simulator sim(p, 16, 5, sched);
      std::size_t failed = 0;
      for (int trial = 0; trial < 100; ++trial) {
        sim.randomize();
        if (!sim.run_to_convergence(100000).converged) ++failed;
      }
      EXPECT_EQ(failed, 0u)
          << p.name() << " scheduler " << static_cast<int>(sched);
    }
  }
}

TEST(Schedulers, RoundRobinVisitsEveryEnabledProcess) {
  // Agreement-up from 1,0,0,0: the only enabled process each step is the
  // successor of the last 1; round-robin must fire them in ring order.
  const Protocol p = protocols::agreement_one_sided(true);
  Simulator sim(p, 4, 1, Scheduler::kRoundRobin);
  sim.set_state({1, 0, 0, 0});
  std::vector<std::size_t> order;
  while (auto step = sim.step()) order.push_back(step->process);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_TRUE(sim.in_invariant());
}

TEST(Schedulers, LeftmostFirstIsDeterministicForDeterministicProtocols) {
  const Protocol p = protocols::sum_not_two_solution();
  auto run = [&](std::uint64_t seed) {
    Simulator sim(p, 10, seed, Scheduler::kLeftmostFirst);
    sim.set_state({2, 0, 2, 0, 2, 0, 2, 0, 2, 0});
    std::vector<std::size_t> order;
    while (auto step = sim.step()) order.push_back(step->process);
    return order;
  };
  // Seeds only affect transition choice; this protocol is deterministic per
  // state, so the whole run is seed-independent.
  EXPECT_EQ(run(1), run(99));
}

TEST(Schedulers, RoundRobinBoundsUnfairness) {
  // Under round-robin on agreement-up, each recovery takes exactly the same
  // number of steps as the number of initially-wrong positions requires:
  // steps equal the count of copy operations, which is scheduler-invariant
  // for this protocol (each process flips at most once).
  const Protocol p = protocols::agreement_one_sided(true);
  for (Scheduler sched : kAll) {
    Simulator sim(p, 8, 3, sched);
    sim.set_state({1, 0, 0, 0, 0, 0, 0, 0});
    const auto run = sim.run_to_convergence();
    EXPECT_TRUE(run.converged);
    EXPECT_EQ(run.steps, 7u) << static_cast<int>(sched);
  }
}

TEST(Schedulers, StatsIncludePercentiles) {
  const auto est = estimate_convergence_rounds(
      protocols::sum_not_two_solution(), 24, uniform_daemon_batch(200, 9));
  EXPECT_LE(est.p50_rounds, est.p95_rounds);
  EXPECT_LE(est.p95_rounds, est.max_rounds);
  EXPECT_GT(est.p50_rounds, 0u);
}

}  // namespace
}  // namespace ringstab
