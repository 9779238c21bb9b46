// Property-based cross-validation on randomly generated protocols: the
// local theorems vs. exhaustive global model checking, the global engines
// vs. each other and the serial reference checker on rings, arrays and
// trees, and the synthesizers' static candidate screen vs. the concrete
// lint and trail passes.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>

#include "analysis/absint.hpp"
#include "analysis/lint.hpp"
#include "core/fmt.hpp"
#include "core/parser.hpp"
#include "global/symmetry.hpp"
#include "helpers.hpp"
#include "local/closure.hpp"
#include "local/deadlock.hpp"
#include "local/livelock.hpp"
#include "local/rcg.hpp"
#include "protocols/herman.hpp"
#include "synthesis/candidates.hpp"

namespace ringstab {
namespace {

class RandomProtocolTest : public ::testing::TestWithParam<std::uint64_t> {};

// Theorem 4.2 is an iff: the walk spectrum must agree exactly with global
// deadlock checking at every sampled K.
TEST_P(RandomProtocolTest, DeadlockSpectrumMatchesGlobal) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 8; ++i) {
    const Protocol p = testing::random_protocol(rng);
    const auto res = analyze_deadlocks(p, 7);
    for (std::size_t k = 2; k <= 7; ++k)
      EXPECT_EQ(res.size_spectrum.at(k), testing::global_has_deadlock(p, k))
          << p.name() << " K=" << k << " (domain " << p.domain().size()
          << ", " << p.delta().size() << " transitions)";
  }
}

// Theorem 5.14 soundness: if the trail search certifies livelock-freedom,
// the global checker must find no livelock at any sampled K.
TEST_P(RandomProtocolTest, LivelockFreeVerdictIsSound) {
  std::mt19937_64 rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < 8; ++i) {
    const Protocol p = testing::random_protocol(rng);
    const auto res = check_livelock_freedom(p);
    if (res.verdict != LivelockAnalysis::Verdict::kLivelockFree) continue;
    for (std::size_t k = 2; k <= 7; ++k)
      EXPECT_FALSE(testing::global_has_livelock(p, k))
          << p.name() << " K=" << k;
  }
}

// Completeness direction (empirical, unidirectional): when a global livelock
// exists at some K ≤ 6, the trail search must find a qualifying trail.
// This validates the formalization of Lemma 5.12's trail shape.
TEST_P(RandomProtocolTest, GlobalLivelockImpliesTrailFound) {
  std::mt19937_64 rng(GetParam() ^ 0xdeadbeefcafef00dull);
  for (int i = 0; i < 8; ++i) {
    const Protocol p = testing::random_protocol(rng);
    bool livelocks = false;
    for (std::size_t k = 2; k <= 6 && !livelocks; ++k)
      livelocks = testing::global_has_livelock(p, k);
    if (!livelocks) continue;
    const auto res = check_livelock_freedom(p);
    EXPECT_NE(res.verdict, LivelockAnalysis::Verdict::kLivelockFree)
        << p.name() << " has a real livelock but was certified free";
  }
}

// Closure-check soundness: local kClosed ⇒ global closure at sampled K.
TEST_P(RandomProtocolTest, ClosureCheckIsSound) {
  std::mt19937_64 rng(GetParam() ^ 0x12345678ull);
  for (int i = 0; i < 8; ++i) {
    const Protocol p = testing::random_protocol(rng);
    if (check_invariant_closure(p).verdict != ClosureCheck::Verdict::kClosed)
      continue;
    for (std::size_t k = 3; k <= 6; ++k) {
      const RingInstance ring(p, k);
      EXPECT_TRUE(GlobalChecker(ring).check_closure())
          << p.name() << " K=" << k;
    }
  }
}

// Witness construction: whenever the spectrum says K is deadlocked, the
// constructed witness ring must check out globally.
TEST_P(RandomProtocolTest, DeadlockWitnessesVerify) {
  std::mt19937_64 rng(GetParam() ^ 0x5555aaaaull);
  for (int i = 0; i < 8; ++i) {
    const Protocol p = testing::random_protocol(rng);
    const auto res = analyze_deadlocks(p, 6);
    for (std::size_t k = 2; k <= 6; ++k) {
      if (!res.size_spectrum.at(k)) continue;
      if (k < static_cast<std::size_t>(p.locality().window())) continue;
      const auto ring = deadlock_witness_ring(p, k);
      ASSERT_TRUE(ring.has_value()) << p.name() << " K=" << k;
      const RingInstance inst(p, k);
      const GlobalStateId s = inst.encode(*ring);
      EXPECT_TRUE(inst.is_deadlock(s));
      EXPECT_FALSE(inst.in_invariant(s));
    }
  }
}

// Random bidirectional protocols: Theorem 4.2 (deadlock) still exact.
TEST_P(RandomProtocolTest, BidirectionalDeadlockSpectrumMatchesGlobal) {
  std::mt19937_64 rng(GetParam() ^ 0xabcdefull);
  testing::RandomProtocolOptions opts;
  opts.allow_bidirectional = true;
  opts.max_domain = 2;  // keep the global spaces small
  for (int i = 0; i < 6; ++i) {
    const Protocol p = testing::random_protocol(rng, opts);
    const auto res = analyze_deadlocks(p, 7);
    const std::size_t kmin =
        static_cast<std::size_t>(p.locality().window());
    for (std::size_t k = std::max<std::size_t>(3, kmin); k <= 7; ++k)
      EXPECT_EQ(res.size_spectrum.at(k), testing::global_has_deadlock(p, k))
          << p.name() << " K=" << k;
  }
}

// Differential harness: the global checker at 1 and 4 threads, and on a
// ring the rotation quotient, must return the serial reference checker's
// verdict, and every livelock witness must replay as a cyclic computation
// outside I.
void expect_witness_replays(const RingInstance& ring,
                            const std::vector<GlobalStateId>& cycle,
                            const std::string& where) {
  ASSERT_FALSE(cycle.empty()) << where;
  for (const GlobalStateId s : cycle)
    EXPECT_FALSE(ring.in_invariant(s)) << where;
  EXPECT_NO_THROW((void)schedule_from_path(ring, cycle, /*cyclic=*/true))
      << where;
}

template <class Result>
void expect_same_verdict(const RingInstance& ring, const Result& got,
                         const GlobalCheckResult& want,
                         const std::string& where) {
  EXPECT_EQ(got.num_deadlocks_outside_i, want.num_deadlocks_outside_i)
      << where;
  EXPECT_EQ(got.closure_ok, want.closure_ok) << where;
  // The smallest violating state is canonical (violation is
  // rotation-invariant), so the quotient reports the same pair.
  EXPECT_EQ(got.closure_violation, want.closure_violation) << where;
  EXPECT_EQ(got.has_livelock, want.has_livelock) << where;
  EXPECT_EQ(got.weakly_converges, want.weakly_converges) << where;
  EXPECT_EQ(got.max_recovery_steps, want.max_recovery_steps) << where;
  if (got.has_livelock)
    expect_witness_replays(ring, got.livelock_cycle, where);
}

/// Every engine on one instance of any topology; returns the reference
/// verdict. Arrays and trees have no rotation quotient, so there
/// check_symmetric must refuse.
GlobalCheckResult expect_instance_agrees(const RingInstance& inst,
                                         const std::string& where) {
  const testing::ReferenceResult ref = testing::reference_check(inst);
  const GlobalCheckResult& want = ref.verdict;
  if (want.has_livelock)
    expect_witness_replays(inst, want.livelock_cycle, where + " reference");
  for (const std::size_t threads : {1u, 4u}) {
    const std::string at = cat(where, " threads=", threads);
    const GlobalChecker checker(inst, threads);
    const GlobalCheckResult global = checker.check_all();
    expect_same_verdict(inst, global, want, at + " global");
    EXPECT_EQ(global.deadlock_samples, want.deadlock_samples) << at;
    EXPECT_EQ(checker.livelock_states(), ref.livelock_states) << at;
    if (inst.is_ring())
      expect_same_verdict(inst, check_symmetric(inst, 8, threads), want,
                          at + " quotient");
    else
      EXPECT_THROW((void)check_symmetric(inst, 8, threads), ModelError)
          << at;
  }
  return want;
}

void expect_engines_agree(const Protocol& p, std::size_t k_min,
                          std::size_t k_max) {
  for (std::size_t k = k_min; k <= k_max; ++k)
    (void)expect_instance_agrees(RingInstance(p, k), cat(p.name(), " K=", k));
}

TEST_P(RandomProtocolTest, AllEnginesAgree) {
  std::mt19937_64 rng(GetParam() ^ 0x0ddba11ull);
  testing::RandomProtocolOptions bidirectional;
  bidirectional.allow_bidirectional = true;
  for (int i = 0; i < 4; ++i) {
    expect_engines_agree(testing::random_protocol(rng), 2, 7);
    expect_engines_agree(testing::random_protocol(rng, bidirectional), 2, 7);
  }
}

// The random protocols the symmetry tests used to check for deadlock and
// livelock agreement alone, now held to every field.
TEST(DifferentialHarness, SymmetrySuiteProtocols) {
  std::mt19937_64 rng(2024);
  for (int i = 0; i < 12; ++i)
    expect_engines_agree(testing::random_protocol(rng), 2, 7);
}

// Random protocols never fire inside I, so they keep I closed. Herman's
// ring breaks closure at even K: it drives both engines' closure-violation
// path, and the harness checks the reported pair against the reference.
TEST(DifferentialHarness, HermanClosureViolations) {
  const Protocol p = protocols::herman_ring();
  EXPECT_FALSE(testing::reference_check(RingInstance(p, 4)).verdict.closure_ok);
  expect_engines_agree(p, 2, 7);
}

// At K ≤ 7 every ¬I graph is tiny. These rounds run K=10..12, capped at
// |D|^K ≤ 3^12 states: random uni- and bidirectional protocols, whose ¬I
// graphs are mostly acyclic, and the single-action recolor ring, whose
// cyclic ¬I graph at K=12 splits into 523,254 components, nearly all
// singletons.
TEST(DifferentialHarness, LargerRings) {
  const auto agree = [](const Protocol& p) {
    ASSERT_LE(p.domain().size(), 3u) << p.name() << ": over the 3^12 cap";
    expect_engines_agree(p, 10, 12);
  };
  std::mt19937_64 rng(20261017);
  testing::RandomProtocolOptions bidirectional;
  bidirectional.allow_bidirectional = true;
  for (int i = 0; i < 2; ++i) {
    agree(testing::random_protocol(rng));
    agree(testing::random_protocol(rng, bidirectional));
  }
  agree(build_protocol(parse_protocol_source(
      "protocol recolor;\n"
      "domain 3;\n"
      "reads -1 .. 0;\n"
      "legit: x[-1] != x[0];\n"
      "action recolor: x[-1] == x[0] -> x[0] := (x[0] + 1) % 3;\n",
      "recolor.ring")));
}

// Arrays and trees run through the same engines, plus the termination
// pass. Its oracle is the reference checker on a twin instance with
// LC_r ≡ false, built here from the protocol rather than by
// RingInstance::without_invariant.
struct TopologyTally {
  std::size_t instances = 0;
  std::size_t livelocks = 0;
  std::size_t nonterminating = 0;
  std::size_t cycles_through_i = 0;  // nonterminating without a livelock
  std::size_t closure_violations = 0;
};

Protocol never_legit(const Protocol& p) {
  return Protocol(p.name() + "_never_legit", p.space(), p.delta(),
                  std::vector<bool>(p.num_states(), false));
}

void expect_topology_agrees(const RingInstance& inst,
                            const RingInstance& never_legit_twin,
                            const std::string& where, TopologyTally& tally) {
  const GlobalCheckResult want = expect_instance_agrees(inst, where);
  const bool want_terminates =
      !testing::reference_check(never_legit_twin).verdict.has_livelock;
  for (const std::size_t threads : {1u, 4u})
    EXPECT_EQ(terminates(inst, threads), want_terminates)
        << where << " threads=" << threads;
  ++tally.instances;
  tally.livelocks += want.has_livelock;
  tally.nonterminating += !want_terminates;
  tally.cycles_through_i += !want_terminates && !want.has_livelock;
  tally.closure_violations += !want.closure_ok;
}

TEST(DifferentialHarness, ArraysAndTrees) {
  TopologyTally tally;
  const auto arrays = [&](const Protocol& p) {
    for (std::size_t n = 2; n <= 6; ++n)
      expect_topology_agrees(RingInstance::array(p, n),
                             RingInstance::array(never_legit(p), n),
                             cat(p.name(), " array n=", n), tally);
  };
  const auto tree = [&](const Protocol& p, std::uint64_t seed) {
    const auto shape = random_tree_shape(6, seed);
    expect_topology_agrees(RingInstance::tree(p, shape),
                           RingInstance::tree(never_legit(p), shape),
                           cat(p.name(), " tree seed=", seed), tally);
  };
  std::mt19937_64 rng(17);
  std::uint64_t shape_seed = 0;
  for (const bool bidirectional : {false, true}) {
    for (const bool self_disabling : {true, false}) {
      for (int i = 0; i < 10; ++i) {
        const Protocol p = testing::random_array_protocol(
            rng, {bidirectional, self_disabling});
        arrays(p);
        if (bidirectional) continue;  // trees read their parent only
        for (int t = 0; t < 4; ++t) tree(p, ++shape_seed);
      }
    }
  }
  // Random protocols never fire inside I. This one may: closure fails, and
  // at n = 2 its only cycle passes through I, so the instance does not
  // terminate although it has no livelock.
  const Protocol flip = build_protocol(parse_protocol_source(
      "protocol flip_anywhere;\n"
      "domain z, o, B;\n"
      "reads -1 .. 0;\n"
      "legit: x[-1] == B || x[0] == 0;\n"
      "action flip: x[-1] != B && x[0] != B -> x[0] := 1 - x[0];\n",
      "flip_anywhere.ring"));
  arrays(flip);
  tree(flip, ++shape_seed);
  EXPECT_EQ(tally.instances, 286u);
  EXPECT_GT(tally.livelocks, 0u);
  EXPECT_GT(tally.nonterminating, 0u);
  EXPECT_GT(tally.cycles_through_i, 0u);
  EXPECT_GT(tally.closure_violations, 0u);
}

// The synthesizers' only candidate screen is the static rejection lane.
// On every candidate the enumerator yields, its ill-formedness verdict must
// equal lint_candidate_errors on the revision (the pass it replaced), and
// every trail certificate it issues must be a trail the concrete Theorem
// 5.14 search also finds.
struct LaneTally {
  std::size_t candidates = 0;
  std::size_t ill_formed = 0;
  std::size_t certificates = 0;
};

LaneTally expect_lane_agrees(const Protocol& p) {
  LaneTally tally;
  const StaticRejectionLane lane(p);
  for (const auto& resolve : enumerate_resolve_sets(p)) {
    for (const auto& added : enumerate_candidate_sets(p, resolve)) {
      const std::string where = cat(p.name(), " candidate ", tally.candidates);
      ++tally.candidates;
      const Protocol pss = p.with_added(p.name() + "_lane", added);
      const bool ill_formed = lane.refute_ill_formed_only(added).has_value();
      EXPECT_EQ(ill_formed, !lint_candidate_errors(pss).empty()) << where;
      tally.ill_formed += ill_formed;

      const auto rej = lane.refute(added);
      const bool certificate =
          rej && rej->kind == StaticRejectionLane::Rejection::Kind::kTrail;
      EXPECT_EQ(rej && !certificate, ill_formed) << where;
      if (!certificate) continue;
      ++tally.certificates;
      EXPECT_EQ(check_livelock_freedom(pss).verdict,
                LivelockAnalysis::Verdict::kTrailFound)
          << where;
    }
  }
  return tally;
}

TEST(LaneAgreement, ProtocolZoo) {
  LaneTally total;
  for (const Protocol& p : testing::protocol_zoo()) {
    const LaneTally t = expect_lane_agrees(p);
    total.candidates += t.candidates;
    total.ill_formed += t.ill_formed;
    total.certificates += t.certificates;
  }
  // Both lane stages must actually fire on the zoo, or the checks above
  // are vacuous.
  EXPECT_GT(total.ill_formed, 0u);
  EXPECT_GT(total.certificates, 0u);
  EXPECT_GT(total.candidates, total.ill_formed + total.certificates);
}

TEST(LaneAgreement, ExampleRings) {
  std::size_t rings = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RINGSTAB_RINGS)) {
    if (entry.path().extension() != ".ring") continue;
    const ProtocolSource src = parse_protocol_source(
        read_source_file(entry.path().string()), entry.path().string());
    if (src.array_topology) continue;
    SCOPED_TRACE(entry.path().filename().string());
    (void)expect_lane_agrees(build_protocol(src));
    ++rings;
  }
  EXPECT_GE(rings, 9u);
}

TEST_P(RandomProtocolTest, StaticLaneAgreesWithLintAndTrailSearch) {
  std::mt19937_64 rng(GetParam() ^ 0x1a7e5c4ee7ull);
  testing::RandomProtocolOptions bidirectional;
  bidirectional.allow_bidirectional = true;
  for (int i = 0; i < 16; ++i) {
    (void)expect_lane_agrees(testing::random_protocol(rng));
    (void)expect_lane_agrees(testing::random_protocol(rng, bidirectional));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProtocolTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace ringstab
