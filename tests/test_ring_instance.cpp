#include "global/ring_instance.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "protocols/agreement.hpp"
#include "protocols/arrays.hpp"
#include "protocols/matching.hpp"

namespace ringstab {
namespace {

TEST(RingInstance, StateCountAndCapacity) {
  const RingInstance r(protocols::agreement_both(), 10);
  EXPECT_EQ(r.num_states(), 1024u);
  EXPECT_THROW(RingInstance(protocols::agreement_both(), 60), CapacityError);
  EXPECT_THROW(RingInstance(protocols::agreement_both(), 1), ModelError);
}

TEST(RingInstance, EncodeDecodeRoundTrip) {
  const RingInstance r(protocols::matching_skeleton(), 4);
  for (GlobalStateId s = 0; s < r.num_states(); ++s)
    EXPECT_EQ(r.encode(r.decode(s)), s);
}

TEST(RingInstance, LocalStateMatchesHelper) {
  const RingInstance r(protocols::matching_generalizable(), 5);
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const GlobalStateId s = rng() % r.num_states();
    const auto ring = r.decode(s);
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_EQ(r.local_state(s, i),
                local_state_of(r.protocol(), ring, i));
  }
}

// Arrays and trees share the ring's digit-index table, with offsets past an
// array's ends and the tree root's parent pointing at the ⊥ slot. Check
// local_state() and the rolling Cursor against a naive decode that knows
// nothing of the table: values by repeated division over the |D|-1 real
// values, ⊥ wherever a window leaves the array or the root looks up.
void expect_local_states_match(const RingInstance& inst,
                               const std::vector<std::size_t>* parents) {
  const Protocol& p = inst.protocol();
  const std::size_t n = inst.ring_size();
  const std::size_t real = p.domain().size() - 1;
  const Value bot = static_cast<Value>(real);
  const auto& loc = p.locality();
  std::size_t states = 1;
  for (std::size_t i = 0; i < n; ++i) states *= real;
  ASSERT_EQ(inst.num_states(), states) << p.name();

  auto cur = inst.cursor(0);
  for (GlobalStateId s = 0; s < inst.num_states(); ++s, cur.advance()) {
    ASSERT_EQ(cur.state(), s);
    std::vector<Value> vals(n);
    GlobalStateId rest = s;
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] = static_cast<Value>(rest % real);
      rest /= real;
    }
    const std::vector<Value> decoded = inst.decode(s);
    ASSERT_EQ(decoded, vals) << p.name() << " s=" << s;  // no ⊥ slot
    EXPECT_EQ(inst.encode(decoded), s);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Value> window;
      if (parents != nullptr) {
        window = {i == 0 ? bot : vals[(*parents)[i - 1]], vals[i]};
      } else {
        for (int off = -loc.left; off <= loc.right; ++off) {
          const long long j = static_cast<long long>(i) + off;
          window.push_back(j < 0 || j >= static_cast<long long>(n)
                               ? bot
                               : vals[static_cast<std::size_t>(j)]);
        }
      }
      const LocalStateId want = p.space().encode(window);
      EXPECT_EQ(inst.local_state(s, i), want)
          << p.name() << " s=" << inst.brief(s) << " i=" << i;
      EXPECT_EQ(cur.local_state(i), want)
          << p.name() << " s=" << inst.brief(s) << " i=" << i;
    }
  }
}

TEST(RingInstance, ArrayLocalStatesMatchNaiveDecode) {
  std::mt19937_64 rng(5);
  const Protocol bidirectional =
      testing::random_array_protocol(rng, {/*bidirectional=*/true});
  ASSERT_EQ(bidirectional.locality(), (Locality{1, 1}));
  for (const Protocol& p : {protocols::array_two_coloring(),
                            protocols::array_sort(3), bidirectional})
    for (std::size_t n = 2; n <= 5; ++n)
      expect_local_states_match(RingInstance::array(p, n), nullptr);
}

TEST(RingInstance, TreeLocalStatesMatchNaiveDecode) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {0, 0, 0, 0},                 // star
      {0, 1, 2, 3},                 // path
      random_tree_shape(6, 7),
      random_tree_shape(6, 8)};
  for (const Protocol& p :
       {protocols::array_two_coloring(), protocols::array_sort(3)})
    for (const auto& shape : shapes)
      expect_local_states_match(RingInstance::tree(p, shape), &shape);
}

TEST(RingInstance, InvariantIsConjunctionOfLocals) {
  const RingInstance r(protocols::agreement_both(), 4);
  for (GlobalStateId s = 0; s < r.num_states(); ++s) {
    bool all = true;
    for (std::size_t i = 0; i < 4; ++i)
      all = all && r.protocol().is_legit(r.local_state(s, i));
    EXPECT_EQ(r.in_invariant(s), all);
  }
  // Agreement: exactly the two constant states are legitimate.
  std::size_t legit = 0;
  for (GlobalStateId s = 0; s < r.num_states(); ++s)
    if (r.in_invariant(s)) ++legit;
  EXPECT_EQ(legit, 2u);
}

TEST(RingInstance, SuccessorsMatchScheduleApplication) {
  const RingInstance r(protocols::agreement_both(), 5);
  std::vector<RingInstance::Step> succ;
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const GlobalStateId s = rng() % r.num_states();
    r.successors(s, succ);
    for (const auto& step : succ) {
      auto ring = r.decode(s);
      EXPECT_TRUE(apply_step(r.protocol(), ring,
                             {step.process, step.transition}));
      EXPECT_EQ(r.encode(ring), step.target);
    }
    // Count must equal the number of enabled (process, transition) pairs.
    std::size_t expect = 0;
    for (std::size_t i = 0; i < 5; ++i)
      expect += r.protocol().transitions_from(r.local_state(s, i)).size();
    EXPECT_EQ(succ.size(), expect);
  }
}

TEST(RingInstance, DeadlockAndEnabledCount) {
  const RingInstance r(protocols::agreement_both(), 3);
  const GlobalStateId all_zero = r.encode(std::vector<Value>{0, 0, 0});
  EXPECT_TRUE(r.is_deadlock(all_zero));
  EXPECT_EQ(r.num_enabled(all_zero), 0u);
  const GlobalStateId mixed = r.encode(std::vector<Value>{0, 1, 0});
  EXPECT_FALSE(r.is_deadlock(mixed));
  EXPECT_EQ(r.num_enabled(mixed), 2u);  // P1 (01) and P2 (10)
}

TEST(RingInstance, BriefUsesAbbrevs) {
  const RingInstance r(protocols::matching_skeleton(), 3);
  const GlobalStateId s = r.encode(std::vector<Value>{0, 1, 2});
  EXPECT_EQ(r.brief(s), "lrs");
}

TEST(RingInstance, ScheduleFromPathRejectsNonComputations) {
  const RingInstance r(protocols::agreement_both(), 3);
  const GlobalStateId a = r.encode(std::vector<Value>{0, 0, 0});
  const GlobalStateId b = r.encode(std::vector<Value>{1, 1, 1});
  const std::vector<GlobalStateId> path{a, b};
  EXPECT_THROW(schedule_from_path(r, path), ModelError);
}

}  // namespace
}  // namespace ringstab
