// The abstract-interpretation engine (analysis/absint, analysis/domains):
// domain algebra, guard evaluation/refinement, transfer, the implication
// lattice, source-level facts, symbolic closure, trail replay
// cross-validated against the concrete reconstruction, and the
// synthesizers' static rejection lane (bit-identity with the lane off).
#include <gtest/gtest.h>

#include "analysis/absint.hpp"
#include "analysis/domains.hpp"
#include "core/parser.hpp"
#include "global/trail_check.hpp"
#include "local/livelock.hpp"
#include "protocols/agreement.hpp"
#include "protocols/coloring.hpp"
#include "protocols/matching.hpp"
#include "protocols/sum_not_two.hpp"
#include "synthesis/local_synthesizer.hpp"

namespace ringstab {
namespace {

using absint::Box;
using absint::GuardRelation;
using absint::IntSet;
using absint::Truth;
using absint::ValueSet;

ProtocolSource source(const std::string& text) {
  return parse_protocol_source(text, "test.ring");
}

// A domain-3 source whose guards exercise every relation the tests need.
const char* kRelations =
    "protocol rel;\n"
    "domain 3;\n"
    "reads -1 .. 0;\n"
    "legit: x[0] == 1 || x[0] == 2;\n"
    "action narrow: x[-1] == 0 && x[0] == 0 -> x[0] := 1;\n"
    "action wide: x[0] == 0 -> x[0] := 2;\n"
    "action high: x[0] == 2 -> x[0] := 1;\n"
    "action contradiction: x[0] == 0 && x[0] == 1 -> x[0] := 1;\n";

// ---------------------------------------------------------------------------
// Domain algebra.

TEST(Domains, ValueSetAlgebra) {
  const ValueSet all = ValueSet::all(3);
  EXPECT_EQ(all.count(), 3u);
  EXPECT_TRUE(all.contains(0) && all.contains(1) && all.contains(2));

  ValueSet s = ValueSet::of(1);
  s.add(2);
  EXPECT_EQ((s & all), s);
  EXPECT_EQ((s | ValueSet::of(0)), all);
  s.remove(2);
  EXPECT_EQ(s, ValueSet::of(1));
  EXPECT_TRUE(ValueSet::none().empty());
  EXPECT_EQ((ValueSet::of(1) & ValueSet::of(2)), ValueSet::none());
  EXPECT_EQ(all.values(3), (std::vector<Value>{0, 1, 2}));
}

TEST(Domains, IntSetTruthUsesCSemantics) {
  EXPECT_EQ(IntSet::top().truth(), Truth::kMaybe);
  EXPECT_EQ(IntSet::of(0).truth(), Truth::kFalse);
  EXPECT_EQ(IntSet::of(7).truth(), Truth::kTrue);
  EXPECT_EQ(IntSet::from_values({-1, 3}).truth(), Truth::kTrue);
  EXPECT_EQ(IntSet::from_values({0, 1}).truth(), Truth::kMaybe);

  const IntSet dedup = IntSet::from_values({3, 1, 3, 1});
  EXPECT_EQ(dedup.values(), (std::vector<long long>{1, 3}));

  std::vector<long long> big(IntSet::kMaxValues + 1);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<long long>(i);
  EXPECT_TRUE(IntSet::from_values(big).is_top());
}

TEST(Domains, BoxTopJoinAndBottom) {
  const ProtocolSource src = source(kRelations);
  const LocalStateSpace space(src.domain, src.locality);
  Box top = Box::top(space);
  EXPECT_EQ(top.min_offset(), -1);
  EXPECT_EQ(top.max_offset(), 0);
  EXPECT_TRUE(top.covers(-1) && top.covers(0));
  EXPECT_FALSE(top.covers(1));
  EXPECT_FALSE(top.is_bottom());

  Box narrow = top;
  narrow.at(0) = ValueSet::of(1);
  EXPECT_EQ(narrow.join(top), top);
  narrow.at(0) = ValueSet::none();
  EXPECT_TRUE(narrow.is_bottom());
}

// ---------------------------------------------------------------------------
// Guard evaluation, refinement, transfer, implication.

TEST(Absint, EvalGuardProvesContradictionsOnly) {
  const ProtocolSource src = source(kRelations);
  const LocalStateSpace space(src.domain, src.locality);
  const Box top = Box::top(space);
  // x[0] == 0 over top: maybe.
  EXPECT_EQ(absint::eval_guard(*src.actions[1].guard, top, src.domain),
            Truth::kMaybe);
  // x[0] == 0 && x[0] == 1: pointwise evaluation over top cannot see the
  // conjunction's contradiction (kMaybe), but evaluating over the
  // guard-refined box — exactly what analyze_source does — proves it.
  EXPECT_EQ(absint::eval_guard(*src.actions[3].guard, top, src.domain),
            Truth::kMaybe);
  const Box refined =
      absint::assume(top, *src.actions[3].guard, src.domain);
  EXPECT_TRUE(refined.is_bottom() ||
              absint::eval_guard(*src.actions[3].guard, refined, src.domain) ==
                  Truth::kFalse);
  // On a box pinning x[0] = 2 the 'high' guard is proved true.
  Box pinned = top;
  pinned.at(0) = ValueSet::of(2);
  EXPECT_EQ(absint::eval_guard(*src.actions[2].guard, pinned, src.domain),
            Truth::kTrue);
}

TEST(Absint, AssumeNarrowsOffsets) {
  const ProtocolSource src = source(kRelations);
  const LocalStateSpace space(src.domain, src.locality);
  const Box refined =
      absint::assume(Box::top(space), *src.actions[0].guard, src.domain);
  EXPECT_EQ(refined.at(-1), ValueSet::of(0));
  EXPECT_EQ(refined.at(0), ValueSet::of(0));

  const Box impossible =
      absint::assume(Box::top(space), *src.actions[3].guard, src.domain);
  EXPECT_TRUE(impossible.is_bottom() ||
              absint::eval_guard(*src.actions[3].guard, impossible,
                                 src.domain) == Truth::kFalse);
}

TEST(Absint, TransferWritesOffsetZeroOnly) {
  const ProtocolSource src = source(kRelations);
  const LocalStateSpace space(src.domain, src.locality);
  Box in = Box::top(space);
  in.at(-1) = ValueSet::of(0);
  // 'wide' writes the constant 2.
  const Box out = absint::transfer(in, *src.actions[1].effects[0], src.domain);
  EXPECT_EQ(out.at(0), ValueSet::of(2));
  EXPECT_EQ(out.at(-1), ValueSet::of(0));  // unwritten offsets unchanged
}

TEST(Absint, RelateGuardsFindsTheContainmentStructure) {
  const ProtocolSource src = source(kRelations);
  const LocalStateSpace space(src.domain, src.locality);
  const Expr& narrow = *src.actions[0].guard;
  const Expr& wide = *src.actions[1].guard;
  const Expr& high = *src.actions[2].guard;
  EXPECT_EQ(absint::relate_guards(narrow, wide, space),
            GuardRelation::kLeftImpliesRight);
  EXPECT_EQ(absint::relate_guards(wide, narrow, space),
            GuardRelation::kRightImpliesLeft);
  EXPECT_EQ(absint::relate_guards(wide, high, space),
            GuardRelation::kDisjoint);
  EXPECT_EQ(absint::relate_guards(wide, wide, space),
            GuardRelation::kEquivalent);
}

// ---------------------------------------------------------------------------
// Source-level facts.

TEST(Absint, AnalyzeSourceProvesProcessLevelSelfDisablement) {
  // Both writes pin x[0] = 2, falsifying every guard: Assumption 2 holds.
  const AbsintResult proved = analyze_source(source(
      "protocol selfdis;\n"
      "domain 3;\n"
      "reads -1 .. 0;\n"
      "legit: x[0] == 2;\n"
      "action a0: x[0] == 0 -> x[0] := 2;\n"
      "action a1: x[0] == 1 -> x[0] := 2;\n"));
  EXPECT_TRUE(proved.all_proved_self_disabling);
  EXPECT_TRUE(proved.actions[0].proved_self_disabling);
  EXPECT_EQ(proved.actions[0].writes, ValueSet::of(2));

  // a0's write re-enables a1: individually self-disabling, but not at the
  // process level, so the proof must NOT go through.
  const AbsintResult chain = analyze_source(source(
      "protocol chain;\n"
      "domain 3;\n"
      "reads -1 .. 0;\n"
      "legit: x[0] == 2;\n"
      "action a0: x[0] == 0 -> x[0] := 1;\n"
      "action a1: x[0] == 1 -> x[0] := 2;\n"));
  EXPECT_FALSE(chain.all_proved_self_disabling);

  // The copy action is concretely self-disabling, but the non-relational
  // box domain cannot see x[0] == x[-1] after the write: kMaybe, no proof.
  const AbsintResult agree = analyze_source(source(
      "protocol agree;\n"
      "domain 2;\n"
      "reads -1 .. 0;\n"
      "legit: x[-1] == x[0];\n"
      "action copy: x[-1] != x[0] -> x[0] := x[-1];\n"));
  EXPECT_FALSE(agree.all_proved_self_disabling);
}

TEST(Absint, VacuousGuardAndPersistentEnvelope) {
  const AbsintResult res = analyze_source(source(kRelations));
  EXPECT_EQ(res.actions[3].guard_truth, Truth::kFalse);  // contradiction
  EXPECT_NE(res.actions[1].guard_truth, Truth::kFalse);  // wide is live

  // kRelations' envelope descends to empty: 'high' consumes 2 without any
  // action replenishing it, so every action eventually dies (the RS100
  // all-dead suppression case).
  EXPECT_TRUE(res.persistent_values.empty());

  // A write cycle 1 -> 2 -> 1 sustains itself: W* = {1, 2}, excluding the
  // never-written 0.
  const AbsintResult cyc = analyze_source(source(
      "protocol cyc;\n"
      "domain 3;\n"
      "reads -1 .. 0;\n"
      "legit: x[0] != 0;\n"
      "action seed: x[0] == 0 -> x[0] := 1;\n"
      "action up: x[0] == 1 -> x[0] := 2;\n"
      "action down: x[0] == 2 -> x[0] := 1;\n"));
  EXPECT_EQ(cyc.persistent_values, ValueSet::of(1) | ValueSet::of(2));
}

TEST(Absint, ClosureProof) {
  // rise's guard contradicts its own legitimacy constraint: closed.
  EXPECT_EQ(prove_invariant_closure(source(
                "protocol closed;\n"
                "domain 2;\n"
                "reads -1 .. 0;\n"
                "legit: x[0] == 1;\n"
                "action rise: x[0] == 0 -> x[0] := 1;\n")),
            Truth::kTrue);
  // escape fires inside I and leaves it (the RS030 fixture shape): no
  // closure certificate may be issued.
  EXPECT_NE(prove_invariant_closure(source(
                "protocol leaky;\n"
                "domain 2;\n"
                "reads -1 .. 0;\n"
                "legit: x[0] == 0;\n"
                "action escape: x[-1] == 0 && x[0] == 0 -> x[0] := 1;\n")),
            Truth::kTrue);
}

// ---------------------------------------------------------------------------
// Trail replay, cross-validated against the concrete reconstruction.

TEST(Absint, ReplayAgreesWithRealizeTrail) {
  const struct {
    const char* name;
    Protocol p;
  } cases[] = {
      {"agreement_both", protocols::agreement_both()},
      {"sum_not_two_rot_up", protocols::sum_not_two_rotation(true)},
      {"sum_not_two_rot_down", protocols::sum_not_two_rotation(false)},
      {"three_coloring_rotation", protocols::three_coloring_rotation()},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto live = check_livelock_freedom(c.p);
    ASSERT_TRUE(live.trail().has_value());
    const auto concrete = realize_trail(c.p, *live.trail());
    const auto replay = replay_trail(c.p, *live.trail());
    // Soundness: a statically-unrealizable verdict must never contradict a
    // concrete realization, and a realized trail must replay.
    if (concrete.verdict == TrailRealization::kRealized) {
      EXPECT_EQ(replay.verdict, TrailReplay::Verdict::kRealizable);
    }
    if (replay.verdict == TrailReplay::Verdict::kUnrealizable) {
      EXPECT_NE(concrete.verdict, TrailRealization::kRealized);
      EXPECT_FALSE(replay.reason.empty());
    }
  }
}

TEST(Absint, ReplayCatchesTheSpuriousSumNotTwoTrail) {
  // The paper's known spurious rejection: the rotation revision's trail
  // does not survive replay at its implied ring size.
  const Protocol p = protocols::sum_not_two_rotation(true);
  const auto live = check_livelock_freedom(p);
  ASSERT_TRUE(live.trail().has_value());
  const auto replay = replay_trail(p, *live.trail());
  EXPECT_EQ(replay.verdict, TrailReplay::Verdict::kUnrealizable);
  EXPECT_EQ(realize_trail(p, *live.trail()).verdict,
            TrailRealization::kSpurious);
}

// ---------------------------------------------------------------------------
// The static rejection lane.

SynthesisOptions lane_options(std::size_t threads) {
  SynthesisOptions o;
  o.num_threads = threads;
  return o;
}

void expect_identical(const SynthesisResult& a, const SynthesisResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.candidates_examined, b.candidates_examined);
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    EXPECT_EQ(a.solutions[i].protocol.name(), b.solutions[i].protocol.name());
    EXPECT_EQ(a.solutions[i].added, b.solutions[i].added);
  }
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].status, b.reports[i].status);
    EXPECT_EQ(a.reports[i].added, b.reports[i].added);
  }
}

// The lane's agreement with the concrete pipeline is checked candidate by
// candidate in test_property_random.cpp; here, its verdicts must not depend
// on the thread count.
TEST(StaticLane, VerdictsBitIdenticalAcrossThreadCounts) {
  const struct {
    const char* name;
    Protocol p;
  } cases[] = {
      {"agreement_empty", protocols::agreement_empty()},
      {"coloring_empty(3)", protocols::coloring_empty(3)},
      {"sum_not_two_empty", protocols::sum_not_two_empty()},
      {"matching_skeleton", protocols::matching_skeleton()},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    expect_identical(synthesize_convergence(c.p, lane_options(1)),
                     synthesize_convergence(c.p, lane_options(4)));
  }
}

TEST(StaticLane, RefutesAddedArcCyclesAsRs002) {
  // Matching's candidate space is dominated by ill-formed revisions; every
  // one of them must be caught statically (the skeleton has no t-arcs, so
  // added-arc cycle detection is exact).
  const Protocol p = protocols::matching_skeleton();
  const SynthesisResult res = synthesize_convergence(p, lane_options(1));
  std::size_t ill = 0, ill_static = 0;
  std::string first_message;
  for (const auto& rep : res.reports) {
    if (rep.status != CandidateReport::Status::kRejectedIllFormed) continue;
    ++ill;
    if (rep.static_reject) {
      ++ill_static;
      ASSERT_FALSE(rep.ill_formed.empty());
      EXPECT_EQ(rep.ill_formed[0].code, "RS002");
      if (first_message.empty()) first_message = rep.ill_formed[0].message;
    }
  }
  EXPECT_GT(ill, 0u);
  EXPECT_EQ(ill, ill_static);
  // The lane builds this text with cat() and brief() per rejection; pin its
  // bytes.
  EXPECT_EQ(first_message,
            "added transitions close the local cycle llr -> lrr -> llr: a "
            "single process can fire forever (Assumption 1 fails); the trail "
            "pipeline is undefined [static]");
}

TEST(StaticLane, TrailCertificatesFireOnColoring) {
  // coloring(3)'s rejected candidates all carry |E| = 1 livelock trails the
  // lane constructs outright.
  const Protocol p = protocols::coloring_empty(3);
  const SynthesisResult res = synthesize_convergence(p, lane_options(1));
  std::size_t trail_static = 0;
  for (const auto& rep : res.reports)
    if (rep.status == CandidateReport::Status::kRejectedTrail &&
        rep.static_reject) {
      ++trail_static;
      ASSERT_TRUE(rep.trail.has_value());
      EXPECT_EQ(rep.trail->num_enabled, 1);
      // Static rejects skip the classification sweep by design.
      EXPECT_FALSE(rep.realization.has_value());
    }
  EXPECT_GT(trail_static, 0u);
}

TEST(StaticLane, LaneUnitRefutations) {
  const Protocol skel = protocols::sum_not_two_empty();
  const StaticRejectionLane lane(skel);
  // An added 2-cycle between two local states is an RS002 ill-formedness
  // certificate; delta is empty, so states 0 and 1 are t-arc sources of the
  // revision exactly when added below.
  const std::vector<LocalTransition> cycle = {{0, 1}, {1, 0}};
  const auto rej = lane.refute(cycle);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(rej->kind, StaticRejectionLane::Rejection::Kind::kIllFormed);
  ASSERT_FALSE(rej->diagnostics.empty());
  EXPECT_EQ(rej->diagnostics[0].code, "RS002");
  // The ill-formed-only screen agrees on cycles and stays silent otherwise.
  EXPECT_TRUE(lane.refute_ill_formed_only(cycle).has_value());
  EXPECT_FALSE(lane.refute_ill_formed_only({}).has_value());
}

}  // namespace
}  // namespace ringstab
