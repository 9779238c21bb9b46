// Random-scheduler ring simulation with fault injection, plus the Monte
// Carlo convergence-time estimator for randomized protocols
// (docs/simulation.md).
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "core/protocol.hpp"
#include "local/precedence.hpp"

namespace ringstab {

/// Scheduler policies. The first three are *interleaving* daemons (one
/// process fires per step) executable by the step-at-a-time Simulator; the
/// last two are *probabilistic* policies executable only by the batched
/// trajectory estimator (`estimate_convergence_rounds`), which owns the
/// counter-based PRNG streams that make them reproducible in parallel.
enum class Scheduler {
  kUniformRandom,    // uniform over enabled (process, transition) pairs
  kRoundRobin,       // cyclic scan; the next enabled process fires
  kLeftmostFirst,    // the lowest-index enabled process fires (deterministic
                     // daemon; still random among that process's transitions)
  kSynchronousCoin,  // synchronous rounds: every enabled process whose local
                     // state violates LC_r fires with probability `coin`,
                     // enabled processes inside LC fire with probability 1;
                     // all writes read the pre-round state. With Herman's
                     // LC_r (x[-1] ≠ x[0]) and coin = 1/2 this is exactly
                     // Herman's randomized token ring.
  kWeightedRandom,   // interleaving: one enabled (process, transition) pair
                     // per step, drawn with probability ∝ its transition
                     // weight; with no weights, kUniformRandom's
                     // distribution, so batches of that daemon run here
};

/// When a trajectory counts as converged.
enum class ConvergenceTarget {
  kInvariant,   // every process satisfies LC_r (the invariant I(K))
  kOneIllegit,  // exactly one process violates LC_r — for Herman, "one
                // token"; the invariant itself is unreachable on odd rings
                // (token-count parity), so this is the stabilization target
};

/// Initial-state distribution for sampled trajectories.
enum class StartKind {
  kRandom,       // uniform over all |D|^K global states
  kAllZero,      // every variable 0 (for Herman: every process holds a token)
  kThreeTokens,  // binary state with exactly three equally spaced LC_r
                 // violations — the conjectured extremal Herman start; odd
                 // K and |D| ≥ 2 required
};

/// Executes one trajectory of a concrete ring under an interleaving
/// scheduler (one enabled process fires one of its enabled transitions per
/// step): `trace`, fault injection, and the round-robin and leftmost
/// daemons. Deterministic per (seed, scheduler). Rejects the probabilistic
/// schedulers — those have no single-step semantics here; use
/// estimate_convergence_rounds, which also runs batches of random starts.
class Simulator {
 public:
  Simulator(Protocol protocol, std::size_t ring_size, std::uint64_t seed = 1,
            Scheduler scheduler = Scheduler::kUniformRandom);

  const Protocol& protocol() const { return protocol_; }
  const std::vector<Value>& state() const { return state_; }
  void set_state(std::vector<Value> state);

  /// Uniformly random global state.
  void randomize();

  /// Transient faults: corrupt `count` distinct variables to random values.
  void inject_faults(std::size_t count);

  bool in_invariant() const;
  bool deadlocked() const;

  /// Fire one random enabled transition; nullopt when deadlocked.
  std::optional<ScheduledStep> step();

  /// Run until the invariant holds or `max_steps` elapse.
  struct RunResult {
    bool converged = false;
    std::size_t steps = 0;
    bool deadlocked_outside_i = false;
  };
  RunResult run_to_convergence(std::size_t max_steps = 1'000'000);

 private:
  Protocol protocol_;
  std::vector<Value> state_;
  std::mt19937_64 rng_;
  Scheduler scheduler_;
  std::size_t rr_cursor_ = 0;  // round-robin scan position
};

// ── Monte Carlo expected-convergence-time estimation ──

/// Options for estimate_convergence_rounds. Everything except
/// `num_threads` affects the estimate; `num_threads` never does — the
/// per-trajectory counter-based PRNG streams (src/sim/prng.hpp) make the
/// result bit-identical at every thread count, which is what lets
/// ringstab-serve cache simulate verdicts without keying on `jobs`.
struct EstimateOptions {
  Scheduler scheduler = Scheduler::kSynchronousCoin;
  ConvergenceTarget target = ConvergenceTarget::kInvariant;
  StartKind start = StartKind::kRandom;
  double coin = 0.5;         // kSynchronousCoin: fire probability outside LC
  std::uint64_t seed = 1;
  std::size_t trajectories = 1000;
  std::size_t round_cap = 100'000;  // per-trajectory rounds (or steps, for
                                    // the interleaving kWeightedRandom)
  std::size_t num_threads = 1;
  /// kWeightedRandom: weight per transition, indexed like
  /// Protocol::index_of. Empty = uniform. Must be non-negative with a
  /// positive sum when given.
  std::vector<double> weights;
};

/// Batches of `trials` random starts under the uniform interleaving daemon
/// (kUniformRandom's distribution): kWeightedRandom with no weights, target
/// kInvariant, a kRandom start and a 1,000,000-step cap per trajectory.
EstimateOptions uniform_daemon_batch(std::size_t trials, std::uint64_t seed);

/// The estimate. Mean/stddev/CI/percentiles are over *converged*
/// trajectories; `censored` counts trajectories that hit the round cap or
/// froze (no process enabled while outside the target — the state can
/// never change again). Work totals cover every executed round, censored
/// or not; one "process step" is one process-slot evaluation, K per
/// synchronous round.
struct ConvergenceEstimate {
  std::size_t trajectories = 0;
  std::size_t converged = 0;
  std::size_t censored = 0;
  double mean_rounds = 0.0;
  double stddev_rounds = 0.0;    // sample stddev (n−1)
  double ci95_half_width = 0.0;  // 1.96 · stddev / √converged
  std::uint64_t min_rounds = 0;
  std::uint64_t max_rounds = 0;
  std::uint64_t p50_rounds = 0;
  std::uint64_t p95_rounds = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t total_process_steps = 0;

  bool operator==(const ConvergenceEstimate&) const = default;
};

/// Sample `opts.trajectories` independent trajectories of `p` on a ring of
/// `ring_size` under a probabilistic scheduler and estimate the expected
/// number of rounds to reach `opts.target`, with a 95% confidence
/// interval. Trajectory t draws all of its randomness (initial state and
/// coins) from counter-based stream mix(seed, t), and per-trajectory
/// results are folded in trajectory order, so the estimate is a pure
/// function of (protocol, ring_size, options − num_threads): bit-identical
/// at every thread count. Throws ModelError for interleaving-daemon
/// schedulers (step a Simulator instead) and invalid options.
ConvergenceEstimate estimate_convergence_rounds(
    const Protocol& p, std::size_t ring_size,
    const EstimateOptions& opts = {});

}  // namespace ringstab
