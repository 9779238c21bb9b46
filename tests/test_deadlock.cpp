#include "local/deadlock.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "protocols/agreement.hpp"
#include "protocols/coloring.hpp"
#include "protocols/matching.hpp"
#include "protocols/sum_not_two.hpp"

namespace ringstab {
namespace {

// Example 4.2: the generalizable matching protocol is deadlock-free for
// every K (paper model-checked K = 5..8).
TEST(Deadlock, MatchingGeneralizableIsFreeForAllK) {
  const Protocol p = protocols::matching_generalizable();
  const auto res = analyze_deadlocks(p);
  EXPECT_TRUE(res.deadlock_free_all_k);
  EXPECT_TRUE(res.bad_cycles.empty());
  EXPECT_TRUE(res.deadlocked_sizes().empty());
  for (std::size_t k = 2; k <= 8; ++k)
    EXPECT_FALSE(testing::global_has_deadlock(p, k)) << "K=" << k;
}

// Example 4.3 / Figure 3: cycles of length 4 and 6 through ⟨l,l,s⟩.
TEST(Deadlock, MatchingNonGeneralizableBadCycles) {
  const Protocol p = protocols::matching_nongeneralizable();
  const auto res = analyze_deadlocks(p, 12);
  EXPECT_FALSE(res.deadlock_free_all_k);

  const auto& space = p.space();
  const LocalStateId lls =
      space.encode(std::vector<Value>{0, 0, 2});  // ⟨left,left,self⟩
  std::vector<std::size_t> lengths;
  bool lls_on_all = true;
  for (const auto& c : res.bad_cycles) {
    lengths.push_back(c.size());
    if (std::find(c.begin(), c.end(), lls) == c.end()) lls_on_all = false;
  }
  std::sort(lengths.begin(), lengths.end());
  EXPECT_EQ(lengths, (std::vector<std::size_t>{4, 6}));
  EXPECT_TRUE(lls_on_all) << "both cycles include ⟨left,left,self⟩";
}

// Only cycles through a ¬LC_r deadlock count toward the cap: sum-not-two's
// empty skeleton has 138 of them, so the default cap of 64 fills up.
TEST(Deadlock, BadCycleCapCountsOnlyBadCycles) {
  const Protocol p = protocols::sum_not_two_empty();
  const auto res = analyze_deadlocks(p);
  EXPECT_EQ(res.bad_cycles.size(), 64u);
  for (const auto& c : res.bad_cycles)
    EXPECT_TRUE(std::any_of(c.begin(), c.end(), [&](LocalStateId s) {
      return !p.is_legit(s);
    }));
  EXPECT_EQ(analyze_deadlocks(p, 64, 1000).bad_cycles.size(), 138u);
}

// The walk spectrum must agree with exhaustive global checking — including
// K=5 (clean, paper's synthesis size) and K=7 (deadlocked, a size the
// paper's "multiples of 4 or 6" claim misses).
TEST(Deadlock, MatchingNonGeneralizableSpectrumMatchesGlobal) {
  const Protocol p = protocols::matching_nongeneralizable();
  const auto res = analyze_deadlocks(p, 9);
  for (std::size_t k = 3; k <= 9; ++k)
    EXPECT_EQ(res.size_spectrum.at(k), testing::global_has_deadlock(p, k))
        << "K=" << k;
  EXPECT_FALSE(res.size_spectrum.at(5));
  EXPECT_TRUE(res.size_spectrum.at(4));
  EXPECT_TRUE(res.size_spectrum.at(6));
  EXPECT_TRUE(res.size_spectrum.at(7));
}

TEST(Deadlock, WitnessRingsAreRealDeadlocks) {
  const Protocol p = protocols::matching_nongeneralizable();
  const auto res = analyze_deadlocks(p, 12);
  for (std::size_t k : res.deadlocked_sizes()) {
    if (k > 10) break;
    const auto ring = deadlock_witness_ring(p, k);
    ASSERT_TRUE(ring.has_value()) << "K=" << k;
    // Verify against the global instance: encode and check.
    const RingInstance inst(p, k);
    const GlobalStateId s = inst.encode(*ring);
    EXPECT_TRUE(inst.is_deadlock(s));
    EXPECT_FALSE(inst.in_invariant(s));
  }
}

TEST(Deadlock, WitnessForCleanSizeIsEmpty) {
  const Protocol p = protocols::matching_nongeneralizable();
  EXPECT_FALSE(deadlock_witness_ring(p, 5).has_value());
}

// The empty agreement protocol deadlocks everywhere outside I; the one-sided
// solution is deadlock-free for all K.
TEST(Deadlock, AgreementVariants) {
  EXPECT_FALSE(analyze_deadlocks(protocols::agreement_empty())
                   .deadlock_free_all_k);
  EXPECT_TRUE(analyze_deadlocks(protocols::agreement_one_sided(true))
                  .deadlock_free_all_k);
  EXPECT_TRUE(analyze_deadlocks(protocols::agreement_one_sided(false))
                  .deadlock_free_all_k);
  EXPECT_TRUE(analyze_deadlocks(protocols::agreement_both())
                  .deadlock_free_all_k);
}

// Empty coloring protocols deadlock at every size ≥ window (monochromatic
// rings), and the spectrum says so.
TEST(Deadlock, EmptyColoringSpectrumIsAllSizes) {
  const Protocol p = protocols::coloring_empty(3);
  const auto res = analyze_deadlocks(p, 10);
  EXPECT_FALSE(res.deadlock_free_all_k);
  for (std::size_t k = 2; k <= 10; ++k) {
    EXPECT_TRUE(res.size_spectrum.at(k)) << k;
    EXPECT_EQ(testing::global_has_deadlock(p, k), true) << k;
  }
}

// Theorem 4.2 cross-validation over the whole zoo: the local verdict's size
// spectrum must match global checking for K = 2..7.
class DeadlockZooTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeadlockZooTest, SpectrumMatchesGlobalChecking) {
  const Protocol p = testing::protocol_zoo()[GetParam()];
  const auto res = analyze_deadlocks(p, 7);
  for (std::size_t k = 3; k <= 7; ++k) {
    EXPECT_EQ(res.size_spectrum.at(k), testing::global_has_deadlock(p, k))
        << p.name() << " K=" << k;
  }
  if (res.deadlock_free_all_k) {
    EXPECT_TRUE(res.deadlocked_sizes().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, DeadlockZooTest,
                         ::testing::Range<std::size_t>(
                             0, testing::protocol_zoo().size()));

}  // namespace
}  // namespace ringstab
