// The array (open chain) topology extension: local walk-based deadlock
// analysis cross-validated against exhaustive array checking.
#include "local/array.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/builder.hpp"
#include "global/checker.hpp"
#include "helpers.hpp"
#include "protocols/arrays.hpp"

namespace ringstab {
namespace {

TEST(Array, ValidationRejectsBoundaryWrites) {
  const LocalStateSpace space(Domain::named({"0", "1", "B"}), {1, 0});
  // Transition writing ⊥.
  const LocalStateId s = space.encode(std::vector<Value>{0, 0});
  const Protocol bad("bad", space, {{s, space.with_self(s, 2)}},
                     std::vector<bool>(space.size(), false));
  EXPECT_THROW(validate_array_protocol(bad), ModelError);
}

TEST(Array, FeasibilityPatterns) {
  const Protocol p = protocols::array_agreement(2);
  const auto& sp = p.space();
  const LocalStateId left = sp.encode(std::vector<Value>{2, 1});  // (⊥,1)
  const LocalStateId mid = sp.encode(std::vector<Value>{0, 1});
  EXPECT_TRUE(feasible_array_state(p, left, 0, 4));
  EXPECT_FALSE(feasible_array_state(p, left, 1, 4));
  EXPECT_TRUE(feasible_array_state(p, mid, 2, 4));
  EXPECT_FALSE(feasible_array_state(p, mid, 0, 4));
}

TEST(Array, AgreementIsDeadlockFreeForAllLengths) {
  const Protocol p = protocols::array_agreement(2);
  const auto res = analyze_array_deadlocks(p, 16);
  EXPECT_TRUE(res.deadlock_free_all_n);
  EXPECT_TRUE(array_terminates_always(p));
  for (std::size_t n = 2; n <= 8; ++n) {
    const RingInstance inst = RingInstance::array(p, n);
    const auto check = GlobalChecker(inst).check_all();
    EXPECT_EQ(check.num_deadlocks_outside_i, 0u) << n;
    EXPECT_TRUE(terminates(inst)) << n;
  }
}

// 2-coloring: impossible on unidirectional rings (paper Fig. 11), trivial
// on arrays — the parity obstruction needs the cycle.
TEST(Array, TwoColoringConvergesOnArrays) {
  const Protocol p = protocols::array_two_coloring();
  const auto res = analyze_array_deadlocks(p, 16);
  EXPECT_TRUE(res.deadlock_free_all_n);
  EXPECT_TRUE(array_terminates_always(p));
  for (std::size_t n = 2; n <= 9; ++n) {
    const RingInstance inst = RingInstance::array(p, n);
    const auto check = GlobalChecker(inst).check_all();
    EXPECT_EQ(check.num_deadlocks_outside_i, 0u) << n;
    EXPECT_FALSE(check.has_livelock) << n;
    EXPECT_TRUE(terminates(inst)) << n;
  }
}

TEST(Array, BrokenTwoColoringDeadlocksEverywhere) {
  const Protocol p = protocols::array_two_coloring_broken();
  const auto res = analyze_array_deadlocks(p, 12);
  EXPECT_FALSE(res.deadlock_free_all_n);
  for (std::size_t n = 2; n <= 8; ++n) {
    EXPECT_TRUE(res.size_spectrum[n]) << n;
    const auto witness = array_deadlock_witness(p, n);
    ASSERT_TRUE(witness.has_value()) << n;
    const RingInstance inst = RingInstance::array(p, n);
    const GlobalStateId s = inst.encode(*witness);
    EXPECT_TRUE(inst.is_deadlock(s)) << n;
    EXPECT_FALSE(inst.in_invariant(s)) << n;
  }
}

TEST(Array, SortConvergesAndSorts) {
  const Protocol p = protocols::array_sort(3);
  EXPECT_TRUE(analyze_array_deadlocks(p, 12).deadlock_free_all_n);
  const RingInstance inst = RingInstance::array(p, 5);
  // Exhaustive: every deadlock state is sorted (non-decreasing).
  std::vector<RingInstance::Step> succ;
  for (GlobalStateId s = 0; s < inst.num_states(); ++s) {
    inst.successors(s, succ);
    if (!succ.empty()) continue;
    const auto vals = inst.decode(s);
    for (std::size_t i = 1; i < vals.size(); ++i)
      EXPECT_LE(vals[i - 1], vals[i]) << inst.brief(s);
  }
}

// The walk-based spectrum is exact: cross-validate against exhaustive
// checking on random array protocols.
class RandomArrayTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomArrayTest, SpectrumMatchesExhaustiveChecking) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 10; ++i) {
    const Protocol p = testing::random_array_protocol(rng);
    const auto res = analyze_array_deadlocks(p, 8);
    for (std::size_t n = 2; n <= 8; ++n) {
      const auto check =
          GlobalChecker(RingInstance::array(p, n)).check_all();
      EXPECT_EQ(res.size_spectrum[n], check.num_deadlocks_outside_i > 0)
          << p.name() << " n=" << n;
    }
  }
}

TEST_P(RandomArrayTest, UnidirectionalSelfDisablingArraysTerminate) {
  std::mt19937_64 rng(GetParam() ^ 0xabcdull);
  for (int i = 0; i < 10; ++i) {
    const Protocol p = testing::random_array_protocol(rng);
    ASSERT_TRUE(array_terminates_always(p));
    for (std::size_t n = 2; n <= 7; ++n) {
      const RingInstance inst = RingInstance::array(p, n);
      EXPECT_TRUE(terminates(inst)) << p.name() << " n=" << n;
      EXPECT_FALSE(GlobalChecker(inst).check_all().has_livelock)
          << p.name() << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomArrayTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

TEST(Array, WitnessForCleanProtocolIsEmpty) {
  EXPECT_FALSE(
      array_deadlock_witness(protocols::array_agreement(2), 5).has_value());
}

TEST(Array, InstanceRejectsTinyLengths) {
  EXPECT_THROW(RingInstance::array(protocols::array_agreement(2), 1),
               ModelError);
}

}  // namespace
}  // namespace ringstab
