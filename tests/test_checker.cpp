#include "global/checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"
#include "protocols/agreement.hpp"
#include "protocols/coloring.hpp"
#include "protocols/matching.hpp"
#include "protocols/sum_not_two.hpp"

namespace ringstab {
namespace {

TEST(Checker, EmptyAgreementDeadlocksEverywhereOutsideI) {
  const RingInstance r(protocols::agreement_empty(), 4);
  const GlobalChecker c(r);
  // Every state is a deadlock; 16 states, 2 in I.
  EXPECT_EQ(c.count_deadlocks_outside_invariant(), 14u);
  EXPECT_FALSE(c.find_livelock().has_value());
  EXPECT_FALSE(c.check_weak_convergence());
}

TEST(Checker, OneSidedAgreementStronglyConverges) {
  for (std::size_t k = 2; k <= 9; ++k) {
    const RingInstance r(protocols::agreement_one_sided(true), k);
    const auto res = GlobalChecker(r).check_all();
    EXPECT_TRUE(res.strongly_converges()) << k;
    EXPECT_TRUE(res.weakly_converges) << k;
    EXPECT_TRUE(res.closure_ok) << k;
    EXPECT_EQ(res.max_recovery_steps, k - 1) << k;
  }
}

TEST(Checker, AgreementBothLivelockWitnessIsValid) {
  const RingInstance r(protocols::agreement_both(), 4);
  const auto cycle = GlobalChecker(r).find_livelock();
  ASSERT_TRUE(cycle.has_value());
  ASSERT_GE(cycle->size(), 2u);
  std::vector<RingInstance::Step> succ;
  for (std::size_t i = 0; i < cycle->size(); ++i) {
    EXPECT_FALSE(r.in_invariant((*cycle)[i]));
    r.successors((*cycle)[i], succ);
    const GlobalStateId next = (*cycle)[(i + 1) % cycle->size()];
    EXPECT_TRUE(std::any_of(succ.begin(), succ.end(),
                            [&](const auto& s) { return s.target == next; }));
  }
}

TEST(Checker, AgreementBothIsWeaklyButNotStronglyConverging) {
  const RingInstance r(protocols::agreement_both(), 4);
  const auto res = GlobalChecker(r).check_all();
  EXPECT_TRUE(res.weakly_converges);
  EXPECT_TRUE(res.has_livelock);
  EXPECT_FALSE(res.strongly_converges());
}

TEST(Checker, LivelockStatesAreSupersetOfWitness) {
  const RingInstance r(protocols::agreement_both(), 4);
  const GlobalChecker c(r);
  const auto states = c.livelock_states();
  const auto cycle = c.find_livelock();
  ASSERT_TRUE(cycle.has_value());
  for (GlobalStateId s : *cycle)
    EXPECT_TRUE(std::binary_search(states.begin(), states.end(), s));
}

TEST(Checker, ClosureHoldsForZoo) {
  for (const auto& p : testing::protocol_zoo()) {
    const RingInstance r(p, 5);
    EXPECT_TRUE(GlobalChecker(r).check_closure()) << p.name();
  }
}

TEST(Checker, MaxRecoveryStepsThrowsOnNonConverging) {
  const RingInstance r(protocols::agreement_both(), 4);
  EXPECT_THROW(GlobalChecker(r).max_recovery_steps(), ModelError);
  const RingInstance dead(protocols::agreement_empty(), 3);
  EXPECT_THROW(GlobalChecker(dead).max_recovery_steps(), ModelError);
}

TEST(Checker, StronglyStabilizingHelperAgreesWithCheckAll) {
  for (const auto& p : testing::protocol_zoo()) {
    const RingInstance r(p, 4);
    EXPECT_EQ(strongly_stabilizing(r),
              GlobalChecker(r).check_all().strongly_converges())
        << p.name();
  }
}

TEST(Checker, SumNotTwoSolutionConverges) {
  for (std::size_t k = 2; k <= 8; ++k) {
    const RingInstance r(protocols::sum_not_two_solution(), k);
    EXPECT_TRUE(strongly_stabilizing(r)) << k;
  }
}

TEST(Checker, NonGeneralizableMatchingPassesOnlyCleanSizes) {
  const Protocol p = protocols::matching_nongeneralizable();
  EXPECT_TRUE(strongly_stabilizing(RingInstance(p, 5)));
  EXPECT_FALSE(strongly_stabilizing(RingInstance(p, 4)));
  EXPECT_FALSE(strongly_stabilizing(RingInstance(p, 6)));
}

TEST(Checker, DeadlockSamplesAreRealDeadlocks) {
  const Protocol p = protocols::coloring_empty(3);
  const RingInstance r(p, 5);
  std::vector<GlobalStateId> samples;
  GlobalChecker(r).count_deadlocks_outside_invariant(&samples, 5);
  ASSERT_FALSE(samples.empty());
  for (GlobalStateId s : samples) {
    EXPECT_TRUE(r.is_deadlock(s));
    EXPECT_FALSE(r.in_invariant(s));
  }
}

TEST(Checker, DeadlockSamplesAreCappedAtEight) {
  const RingInstance r(protocols::coloring_empty(3), 5);
  std::vector<GlobalStateId> samples;
  const std::size_t count =
      GlobalChecker(r).count_deadlocks_outside_invariant(&samples, 20);
  ASSERT_GT(count, 20u);
  EXPECT_EQ(samples.size(), 8u);
  EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end()));
}

}  // namespace
}  // namespace ringstab
