// Herman's randomized ring and the Monte Carlo convergence estimator:
// counter-based PRNG contracts, exact small-K expectations, bound tracking,
// and bit-reproducibility of the estimate across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "helpers.hpp"
#include "protocols/herman.hpp"
#include "sim/prng.hpp"
#include "sim/simulator.hpp"

namespace ringstab {
namespace {

// ── counter-based PRNG ──

TEST(CounterRng, SameKeySameStream) {
  CounterRng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(CounterRng, DistinctKeysDistinctStreams) {
  CounterRng a(trajectory_stream_key(1, 0));
  CounterRng b(trajectory_stream_key(1, 1));
  CounterRng c(trajectory_stream_key(2, 0));
  std::set<std::uint64_t> draws;
  for (int i = 0; i < 32; ++i) {
    draws.insert(a.next());
    draws.insert(b.next());
    draws.insert(c.next());
  }
  EXPECT_EQ(draws.size(), 96u);  // no collisions across streams
}

TEST(CounterRng, BernoulliDegenerateProbabilities) {
  CounterRng rng(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(CounterRng, BernoulliHalfIsFair) {
  CounterRng rng(11);
  int heads = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) heads += rng.bernoulli(0.5) ? 1 : 0;
  // ±5σ band around 50000 (σ ≈ 158).
  EXPECT_NEAR(heads, kDraws / 2, 800);
}

TEST(CounterRng, BelowStaysInRange) {
  CounterRng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

// ── the Herman protocol itself ──

TEST(Herman, ProtocolShape) {
  const Protocol p = protocols::herman_ring();
  EXPECT_EQ(p.name(), "herman");
  EXPECT_EQ(p.domain().size(), 2u);
  EXPECT_EQ(p.locality().left, 1u);
  EXPECT_EQ(p.locality().right, 0u);
}

TEST(Herman, TokenCountAndParity) {
  // Token at r iff x[r-1] == x[r] (indices mod K).
  EXPECT_EQ(protocols::herman_token_count({0, 0, 0}), 3u);      // all equal
  EXPECT_EQ(protocols::herman_token_count({0, 1, 1}), 1u);      // one token
  EXPECT_EQ(protocols::herman_token_count({0, 1, 0, 1}), 0u);   // alternating
  EXPECT_EQ(protocols::herman_token_count({0, 0, 1, 1, 0}), 3u);
  // Odd ring → odd token count, always.
  CounterRng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Value> s(9);
    for (auto& v : s) v = static_cast<Value>(rng.below(2));
    EXPECT_EQ(protocols::herman_token_count(s) % 2, 1u);
  }
}

TEST(Herman, ConjectureBoundValues) {
  EXPECT_DOUBLE_EQ(protocols::herman_conjecture_bound(3), 4.0 / 3.0);
  EXPECT_NEAR(protocols::herman_conjecture_bound(31), 142.37, 0.01);
}

// ── the estimator: exact expectations and bound tracking ──

// K=3, all-zero start: three tokens; each round all three holders toss.
// The ring reaches one token iff not all three coins agree (prob 3/4), so
// rounds-to-convergence is geometric(3/4) with mean 4/3 — and (4/27)·9 is
// exactly 4/3, the equality case of the conjecture.
TEST(Herman, ExactExpectationAtK3) {
  EstimateOptions eo;
  eo.target = ConvergenceTarget::kOneIllegit;
  eo.start = StartKind::kAllZero;
  eo.trajectories = 40'000;
  eo.seed = 5;
  const auto est =
      estimate_convergence_rounds(protocols::herman_ring(), 3, eo);
  EXPECT_EQ(est.converged, est.trajectories);
  EXPECT_EQ(est.censored, 0u);
  EXPECT_NEAR(est.mean_rounds, 4.0 / 3.0, 0.05);
  EXPECT_EQ(est.min_rounds, 1u);
  // CI math: half-width is 1.96·stddev/√n.
  EXPECT_NEAR(est.ci95_half_width,
              1.96 * est.stddev_rounds /
                  std::sqrt(static_cast<double>(est.converged)),
              1e-12);
}

// From three tokens with gaps a + b + c = K, the expected number of rounds
// to one token is exactly 4abc/K (Bruna et al., "Proving the Herman-Protocol
// Conjecture"). kThreeTokens puts the tokens at 0, ⌊K/3⌋ and ⌊2K/3⌋, and
// the estimate must lie within 5 standard errors of that value on either
// side. Since 4abc/K ≤ (4/27)K², this also bounds the mean by the
// conjecture bound.
TEST(Herman, MeanMatchesExactThreeTokenExpectation) {
  for (const std::size_t k : {7, 9, 11}) {
    EstimateOptions eo;
    eo.target = ConvergenceTarget::kOneIllegit;
    eo.start = StartKind::kThreeTokens;
    eo.trajectories = 4000;
    eo.seed = 9;
    eo.num_threads = 0;  // all cores — result provably independent of this
    const auto est =
        estimate_convergence_rounds(protocols::herman_ring(), k, eo);
    EXPECT_EQ(est.censored, 0u) << "K=" << k;
    const std::size_t a = k / 3, b = 2 * k / 3 - k / 3, c = k - 2 * k / 3;
    const double exact = 4.0 * static_cast<double>(a * b * c) /
                         static_cast<double>(k);
    EXPECT_LE(exact, protocols::herman_conjecture_bound(k)) << "K=" << k;
    const double std_err =
        est.stddev_rounds / std::sqrt(static_cast<double>(est.converged));
    EXPECT_NEAR(est.mean_rounds, exact, 5.0 * std_err) << "K=" << k;
  }
}

// ── bit-reproducibility across thread counts ──

TEST(Herman, EstimateBitIdenticalAcrossThreadCounts) {
  EstimateOptions base;
  base.target = ConvergenceTarget::kOneIllegit;
  base.start = StartKind::kRandom;
  base.trajectories = 300;
  base.seed = 17;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4},
                                 std::size_t{7}}) {
    EstimateOptions eo = base;
    eo.num_threads = jobs;
    const auto est =
        estimate_convergence_rounds(protocols::herman_ring(), 11, eo);
    EstimateOptions ref = base;
    ref.num_threads = 1;
    const auto serial =
        estimate_convergence_rounds(protocols::herman_ring(), 11, ref);
    EXPECT_EQ(est, serial) << "thread count " << jobs
                           << " perturbed the estimate";
  }
}

TEST(Herman, ZooWideReproducibility) {
  // Every zoo protocol, both probabilistic schedulers: 1-thread and
  // 4-thread estimates must be bit-identical, converged or not.
  for (const Protocol& p : testing::protocol_zoo()) {
    for (const Scheduler sched :
         {Scheduler::kSynchronousCoin, Scheduler::kWeightedRandom}) {
      EstimateOptions eo;
      eo.scheduler = sched;
      eo.target = ConvergenceTarget::kInvariant;
      eo.trajectories = 50;
      eo.round_cap = 500;
      eo.seed = 23;
      eo.num_threads = 1;
      const auto serial = estimate_convergence_rounds(p, 5, eo);
      eo.num_threads = 4;
      const auto parallel = estimate_convergence_rounds(p, 5, eo);
      EXPECT_EQ(serial, parallel) << p.name();
    }
  }
}

TEST(Herman, SeedChangesTheSample) {
  EstimateOptions eo;
  eo.target = ConvergenceTarget::kOneIllegit;
  eo.start = StartKind::kRandom;
  eo.trajectories = 200;
  const auto a = estimate_convergence_rounds(protocols::herman_ring(), 9, eo);
  eo.seed = 2;
  const auto b = estimate_convergence_rounds(protocols::herman_ring(), 9, eo);
  EXPECT_NE(a.total_rounds, b.total_rounds);
}

// ── validation and edge cases ──

TEST(Herman, ThreeTokenStartRequiresOddRing) {
  EstimateOptions eo;
  eo.start = StartKind::kThreeTokens;
  eo.trajectories = 10;
  EXPECT_THROW(estimate_convergence_rounds(protocols::herman_ring(), 8, eo),
               ModelError);
  EXPECT_NO_THROW(
      estimate_convergence_rounds(protocols::herman_ring(), 9, eo));
}

TEST(Herman, EstimatorRejectsInterleavingDaemons) {
  EstimateOptions eo;
  eo.scheduler = Scheduler::kUniformRandom;
  EXPECT_THROW(estimate_convergence_rounds(protocols::herman_ring(), 5, eo),
               ModelError);
  eo.scheduler = Scheduler::kRoundRobin;
  EXPECT_THROW(estimate_convergence_rounds(protocols::herman_ring(), 5, eo),
               ModelError);
}

TEST(Herman, SimulatorRejectsProbabilisticSchedulers) {
  EXPECT_THROW(
      Simulator(protocols::herman_ring(), 5, 1, Scheduler::kSynchronousCoin),
      ModelError);
  EXPECT_THROW(
      Simulator(protocols::herman_ring(), 5, 1, Scheduler::kWeightedRandom),
      ModelError);
}

TEST(Herman, InvalidOptionsThrow) {
  const Protocol p = protocols::herman_ring();
  EstimateOptions eo;
  eo.coin = 1.5;
  EXPECT_THROW(estimate_convergence_rounds(p, 5, eo), ModelError);
  eo = {};
  eo.trajectories = 0;
  EXPECT_THROW(estimate_convergence_rounds(p, 5, eo), ModelError);
  eo = {};
  EXPECT_THROW(estimate_convergence_rounds(p, 1, eo), ModelError);
  eo = {};
  eo.scheduler = Scheduler::kWeightedRandom;
  eo.weights = {1.0};  // wrong arity: herman has 2+ transitions
  EXPECT_THROW(estimate_convergence_rounds(p, 5, eo), ModelError);
}

TEST(Herman, FrozenTrajectoriesAreCensoredImmediately) {
  // Invariant target on an odd Herman ring from the all-zero start: the
  // invariant (zero tokens) is unreachable by parity, but the ring isn't
  // frozen, so every trajectory burns the full cap.
  EstimateOptions eo;
  eo.target = ConvergenceTarget::kInvariant;
  eo.start = StartKind::kAllZero;
  eo.trajectories = 20;
  eo.round_cap = 50;
  const auto est =
      estimate_convergence_rounds(protocols::herman_ring(), 3, eo);
  EXPECT_EQ(est.converged, 0u);
  EXPECT_EQ(est.censored, 20u);
  EXPECT_EQ(est.total_rounds, 20u * 50u);
}

TEST(Herman, WorkAccountingCountsProcessSlots) {
  EstimateOptions eo;
  eo.target = ConvergenceTarget::kOneIllegit;
  eo.start = StartKind::kAllZero;
  eo.trajectories = 100;
  const auto est =
      estimate_convergence_rounds(protocols::herman_ring(), 5, eo);
  EXPECT_EQ(est.total_process_steps, est.total_rounds * 5);
}

}  // namespace
}  // namespace ringstab
