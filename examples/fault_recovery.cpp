// Fault-injection demo: a ring of 64 processes running the synthesized
// sum-not-two protocol absorbs repeated bursts of transient faults — the
// self-stabilization story the paper's introduction motivates (soft errors,
// bad initialization, loss of coordination).
#include <iomanip>
#include <iostream>

#include "protocols/sum_not_two.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace ringstab;

  const Protocol p = protocols::sum_not_two_solution();
  constexpr std::size_t kRing = 64;
  Simulator sim(p, kRing, /*seed=*/2024);

  // Start legitimate: all zeros (0 + 0 ≠ 2 everywhere).
  sim.set_state(std::vector<Value>(kRing, 0));
  std::cout << "ring of " << kRing
            << " processes running sum-not-two, starting inside I\n\n";
  std::cout << std::setw(8) << "burst" << std::setw(10) << "faults"
            << std::setw(12) << "recovery" << std::setw(12) << "in I after"
            << "\n";

  std::size_t total_steps = 0;
  for (int burst = 1; burst <= 12; ++burst) {
    const std::size_t faults = static_cast<std::size_t>(burst * 2);
    sim.inject_faults(faults);
    const auto run = sim.run_to_convergence();
    total_steps += run.steps;
    std::cout << std::setw(8) << burst << std::setw(10) << faults
              << std::setw(10) << run.steps << " steps" << std::setw(10)
              << std::boolalpha << run.converged << "\n";
    if (!run.converged) {
      std::cout << "UNEXPECTED: failed to recover — the local certification "
                   "would be unsound\n";
      return 1;
    }
  }
  std::cout << "\nall bursts absorbed; " << total_steps
            << " recovery steps total\n";

  // And the stress version: full random corruption, many trials, under the
  // same uniform daemon.
  const auto est =
      estimate_convergence_rounds(p, kRing, uniform_daemon_batch(200, 7));
  std::cout << "200 fully random starts: " << est.converged
            << " converged, mean " << est.mean_rounds << " steps, max "
            << est.max_rounds << "\n";
  return est.censored == 0 ? 0 : 1;
}
