// Tree topology (parent-read in-trees): the array reduction validated
// against exhaustive tree checking on random shapes.
#include <gtest/gtest.h>

#include <random>

#include "global/checker.hpp"
#include "helpers.hpp"
#include "local/array.hpp"
#include "protocols/arrays.hpp"

namespace ringstab {
namespace {

TEST(Tree, ValidatesShapeAndLocality) {
  const Protocol p = protocols::array_agreement(2);
  EXPECT_THROW(RingInstance::tree(p, {1}), ModelError);  // parent(1) < 1
  EXPECT_NO_THROW(RingInstance::tree(p, {0, 0, 1}));
  const Protocol bidi = testing::protocol_zoo()[0];  // matching: window 3
  EXPECT_THROW(RingInstance::tree(bidi, {0}), ModelError);
}

TEST(Tree, LocalStatesUseParentValues) {
  const Protocol p = protocols::array_agreement(2);
  // Star: nodes 1,2,3 all children of the root.
  const RingInstance t = RingInstance::tree(p, {0, 0, 0});
  const GlobalStateId s = t.encode(std::vector<Value>{1, 0, 1, 0});
  // Root sees (⊥, 1); children see (1, own).
  EXPECT_EQ(p.space().decode(t.local_state(s, 0)),
            (std::vector<Value>{2, 1}));
  EXPECT_EQ(p.space().decode(t.local_state(s, 1)),
            (std::vector<Value>{1, 0}));
  EXPECT_EQ(p.space().decode(t.local_state(s, 3)),
            (std::vector<Value>{1, 0}));
}

// A path tree IS an array: verdicts coincide exactly.
TEST(Tree, PathTreeMatchesArray) {
  for (const Protocol& p :
       {protocols::array_two_coloring(),
        protocols::array_two_coloring_broken(), protocols::array_sort(3)}) {
    for (std::size_t n = 3; n <= 7; ++n) {
      std::vector<std::size_t> path(n - 1);
      for (std::size_t i = 1; i < n; ++i) path[i - 1] = i - 1;
      const RingInstance tree_inst = RingInstance::tree(p, path);
      const RingInstance array_inst = RingInstance::array(p, n);
      const auto tree = GlobalChecker(tree_inst).check_all();
      const auto array = GlobalChecker(array_inst).check_all();
      EXPECT_EQ(tree.num_deadlocks_outside_i, array.num_deadlocks_outside_i)
          << p.name() << " n=" << n;
      EXPECT_EQ(tree.has_livelock, array.has_livelock) << p.name();
      EXPECT_EQ(terminates(tree_inst), terminates(array_inst)) << p.name();
    }
  }
}

// The reduction: array-certified deadlock-freedom transfers to EVERY tree
// shape (a bad tree would contain a bad root-to-node path).
TEST(Tree, ArrayCertificationCoversRandomTrees) {
  const std::vector<Protocol> certified = {
      protocols::array_agreement(2), protocols::array_two_coloring(),
      protocols::array_sort(3)};
  for (const auto& p : certified) {
    ASSERT_TRUE(analyze_array_deadlocks(p, 16).deadlock_free_all_n)
        << p.name();
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto shape = random_tree_shape(7, seed);
      const RingInstance tree = RingInstance::tree(p, shape);
      const auto check = GlobalChecker(tree).check_all();
      EXPECT_EQ(check.num_deadlocks_outside_i, 0u)
          << p.name() << " seed=" << seed;
      EXPECT_TRUE(terminates(tree)) << p.name() << " seed=" << seed;
    }
  }
}

// Conversely, an array witness embeds as a deadlocked path tree.
TEST(Tree, ArrayWitnessEmbedsAsPathTree) {
  const Protocol p = protocols::array_two_coloring_broken();
  const auto witness = array_deadlock_witness(p, 6);
  ASSERT_TRUE(witness.has_value());
  std::vector<std::size_t> path(5);
  for (std::size_t i = 1; i < 6; ++i) path[i - 1] = i - 1;
  const RingInstance t = RingInstance::tree(p, path);
  const GlobalStateId s = t.encode(*witness);
  EXPECT_TRUE(t.is_deadlock(s));
  EXPECT_FALSE(t.in_invariant(s));
}

// Broken protocols also deadlock on bushier shapes (the bad pair can appear
// on any edge).
TEST(Tree, BrokenProtocolDeadlocksOnRandomTrees) {
  const Protocol p = protocols::array_two_coloring_broken();
  std::size_t deadlocked_shapes = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto check =
        GlobalChecker(RingInstance::tree(p, random_tree_shape(6, seed)))
            .check_all();
    if (check.num_deadlocks_outside_i > 0) ++deadlocked_shapes;
  }
  EXPECT_EQ(deadlocked_shapes, 10u);
}

TEST(Tree, RandomShapesAreValid) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto shape = random_tree_shape(9, seed);
    ASSERT_EQ(shape.size(), 8u);
    for (std::size_t i = 1; i <= shape.size(); ++i)
      EXPECT_LT(shape[i - 1], i);
  }
}

}  // namespace
}  // namespace ringstab
