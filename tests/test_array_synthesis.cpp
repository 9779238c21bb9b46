#include "synthesis/array_synthesizer.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/builder.hpp"
#include "global/checker.hpp"
#include "helpers.hpp"
#include "protocols/arrays.hpp"

namespace ringstab {
namespace {

// Strip a protocol's transitions, keeping domain/locality/legitimacy.
Protocol empty_input(const Protocol& p, const std::string& name) {
  return p.with_delta(name, {});
}

// Synthesizing from the empty 2-coloring array input recovers exactly the
// flip protocol — the problem that is IMPOSSIBLE on unidirectional rings.
TEST(ArraySynthesis, TwoColoringSynthesizesTheFlipProtocol) {
  const Protocol input =
      empty_input(protocols::array_two_coloring(), "a2c_in");
  const auto res = synthesize_array_convergence(input);
  ASSERT_TRUE(res.success);
  ASSERT_EQ(res.resolve_sets.size(), 1u);
  EXPECT_EQ(res.resolve_sets[0].size(), 2u);  // {00, 11}
  ASSERT_EQ(res.solutions.size(), 1u);
  EXPECT_EQ(res.solutions[0].protocol.delta(),
            protocols::array_two_coloring().delta());
}

TEST(ArraySynthesis, AgreementSynthesizesCopy) {
  const Protocol input =
      empty_input(protocols::array_agreement(2), "a_agree_in");
  const auto res = synthesize_array_convergence(input);
  ASSERT_TRUE(res.success);
  ASSERT_EQ(res.solutions.size(), 1u);
  EXPECT_EQ(res.solutions[0].protocol.delta(),
            protocols::array_agreement(2).delta());
}

// Every synthesized solution is exhaustively verified: deadlock-free,
// livelock-free and terminating at all sampled lengths.
TEST(ArraySynthesis, SolutionsVerifyExhaustively) {
  for (const Protocol& base :
       {protocols::array_agreement(3), protocols::array_sort(3),
        protocols::array_two_coloring()}) {
    const Protocol input = empty_input(base, base.name() + "_in");
    const auto res = synthesize_array_convergence(input);
    ASSERT_TRUE(res.success) << base.name();
    for (const auto& sol : res.solutions) {
      for (std::size_t n = 2; n <= 7; ++n) {
        const RingInstance inst = RingInstance::array(sol.protocol, n);
        const auto check = GlobalChecker(inst).check_all();
        EXPECT_EQ(check.num_deadlocks_outside_i, 0u)
            << base.name() << " n=" << n;
        EXPECT_FALSE(check.has_livelock) << base.name() << " n=" << n;
        EXPECT_TRUE(terminates(inst)) << base.name() << " n=" << n;
      }
    }
  }
}

TEST(ArraySynthesis, AddedTransitionsOnlyAtIllegitimateDeadlocks) {
  const Protocol input =
      empty_input(protocols::array_sort(3), "a_sort_in");
  const auto res = synthesize_array_convergence(input);
  ASSERT_TRUE(res.success);
  for (const auto& sol : res.solutions)
    for (const auto& t : sol.added) {
      EXPECT_FALSE(input.is_legit(t.from));
      EXPECT_TRUE(input.is_deadlock(t.from));
    }
}

TEST(ArraySynthesis, RejectsBidirectionalInputs) {
  ProtocolBuilder b("bidi", Domain::named({"0", "B"}), Locality{1, 1});
  b.legitimate([](const LocalView&) { return true; });
  EXPECT_THROW(synthesize_array_convergence(b.build()), ModelError);
}

TEST(ArraySynthesis, RejectsNonClosedInvariant) {
  // Legit everywhere except (0,1); transition 00→01 jumps from I into ¬I.
  ProtocolBuilder b("leaky", Domain::named({"0", "1", "B"}), Locality{1, 0});
  b.legitimate([](const LocalView& v) {
    return !(v[-1] == 0 && v[0] == 1);
  });
  b.action("leak", [](const LocalView& v) { return v[-1] == 0 && v[0] == 0; },
           [](const LocalView&) { return Value{1}; });
  EXPECT_THROW(synthesize_array_convergence(b.build()), ModelError);
}

// The Resolve set is one BFS; the first implementation enumerated minimal
// hitting sets of the bad walks. They agree, and there is exactly one set.
void expect_reference_resolve_set(const Protocol& p) {
  const auto reference = testing::reference_array_resolve_sets(p);
  ASSERT_EQ(reference.size(), 1u) << p.name();
  const auto res = synthesize_array_convergence(p);
  EXPECT_EQ(res.resolve_sets, reference) << p.name();
  EXPECT_LE(res.solutions.size(), 64u) << p.name();
  EXPECT_EQ(res.candidates_examined, res.solutions.size()) << p.name();
  for (const auto& sol : res.solutions)
    EXPECT_EQ(sol.resolve, reference[0]) << p.name();
}

TEST(ArraySynthesis, ResolveSetMatchesReferenceOnArrayProtocols) {
  for (const Protocol& p :
       {protocols::array_agreement(2), protocols::array_agreement(3),
        protocols::array_sort(2), protocols::array_sort(3),
        protocols::array_two_coloring(),
        protocols::array_two_coloring_broken()}) {
    expect_reference_resolve_set(p);
    expect_reference_resolve_set(empty_input(p, p.name() + "_in"));
  }
}

TEST(ArraySynthesis, ResolveSetMatchesReferenceOnRandomArrays) {
  std::mt19937_64 rng(24);
  testing::RandomArrayOptions opts;
  opts.max_real = 6;
  for (int i = 0; i < 2000; ++i)
    expect_reference_resolve_set(testing::random_array_protocol(rng, opts));
}

// Already-converging input: the empty addition is the unique solution.
TEST(ArraySynthesis, ConvergingInputYieldsItself) {
  const auto res =
      synthesize_array_convergence(protocols::array_two_coloring());
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(res.solutions[0].added.empty());
}

}  // namespace
}  // namespace ringstab
