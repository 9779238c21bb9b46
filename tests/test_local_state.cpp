#include "core/local_state.hpp"

#include <gtest/gtest.h>

namespace ringstab {
namespace {

TEST(Locality, ValidatesSpans) {
  EXPECT_THROW((Locality{-1, 0}.validate()), ModelError);
  EXPECT_THROW((Locality{0, 0}.validate()), ModelError);
  EXPECT_THROW((Locality{5, 5}.validate()), ModelError);
  EXPECT_NO_THROW((Locality{1, 0}.validate()));
  EXPECT_NO_THROW((Locality{1, 1}.validate()));
}

TEST(Locality, Unidirectional) {
  EXPECT_TRUE((Locality{1, 0}.is_unidirectional()));
  EXPECT_FALSE((Locality{1, 1}.is_unidirectional()));
  EXPECT_TRUE((Locality{2, 0}.is_unidirectional()));
}

TEST(LocalStateSpace, SizeIsDomainPowWindow) {
  EXPECT_EQ(LocalStateSpace(Domain::range(2), {1, 0}).size(), 4u);
  EXPECT_EQ(LocalStateSpace(Domain::range(3), {1, 1}).size(), 27u);
  EXPECT_EQ(LocalStateSpace(Domain::range(3), {1, 0}).size(), 9u);
}

TEST(LocalStateSpace, EncodeDecodeRoundTrip) {
  const LocalStateSpace space(Domain::range(3), {1, 1});
  for (LocalStateId s = 0; s < space.size(); ++s) {
    const auto window = space.decode(s);
    EXPECT_EQ(space.encode(window), s);
  }
}

TEST(LocalStateSpace, ValueMatchesDecode) {
  const LocalStateSpace space(Domain::range(3), {1, 1});
  for (LocalStateId s = 0; s < space.size(); ++s) {
    const auto window = space.decode(s);
    EXPECT_EQ(space.value(s, -1), window[0]);
    EXPECT_EQ(space.value(s, 0), window[1]);
    EXPECT_EQ(space.value(s, 1), window[2]);
    EXPECT_EQ(space.self(s), window[1]);
  }
}

TEST(LocalStateSpace, WithValueChangesExactlyOneOffset) {
  const LocalStateSpace space(Domain::range(3), {1, 1});
  for (LocalStateId s = 0; s < space.size(); ++s) {
    for (int off = -1; off <= 1; ++off) {
      for (Value v = 0; v < 3; ++v) {
        const LocalStateId t = space.with_value(s, off, v);
        EXPECT_EQ(space.value(t, off), v);
        for (int other = -1; other <= 1; ++other) {
          if (other != off) {
            EXPECT_EQ(space.value(t, other), space.value(s, other));
          }
        }
      }
    }
  }
}

TEST(LocalStateSpace, BriefUsesAbbrevs) {
  const LocalStateSpace space(Domain::named({"left", "right", "self"}),
                              {1, 1});
  const LocalStateId s =
      space.encode(std::vector<Value>{0, 0, 2});
  EXPECT_EQ(space.brief(s), "lls");
}

TEST(LocalStateSpace, DescribeNamesOffsets) {
  const LocalStateSpace space(Domain::range(2), {1, 0});
  const LocalStateId s = space.encode(std::vector<Value>{1, 0});
  EXPECT_EQ(space.describe(s), "⟨x[-1]=1, x[0]=0⟩");
}

// De Bruijn structure: every state has exactly |D| right continuations and
// appears as a continuation of exactly |D| states.
TEST(LocalStateSpace, ContinuationDegreeIsDomainSize) {
  for (const auto loc : {Locality{1, 0}, Locality{1, 1}, Locality{2, 0}}) {
    const LocalStateSpace space(Domain::range(3), loc);
    std::vector<int> in_deg(space.size(), 0);
    for (LocalStateId u = 0; u < space.size(); ++u) {
      const auto cont = space.right_continuations(u);
      EXPECT_EQ(cont.size(), 3u);
      for (LocalStateId v : cont) {
        EXPECT_TRUE(space.right_continues(u, v));
        ++in_deg[v];
      }
    }
    for (int deg : in_deg) EXPECT_EQ(deg, 3);
  }
}

// right_continues must agree with the definitional check on shared offsets,
// offset by offset, for reads -1..0, 0..1, -1..1 and -2..1 over domains 2-5.
// (Reads 0..0 is no locality: Locality.ValidatesSpans.)
TEST(LocalStateSpace, ContinuationMatchesSharedOffsetDefinition) {
  for (const auto loc :
       {Locality{1, 0}, Locality{0, 1}, Locality{1, 1}, Locality{2, 1}})
    for (std::size_t d = 2; d <= 5; ++d) {
      const LocalStateSpace space(Domain::range(d), loc);
      for (LocalStateId u = 0; u < space.size(); ++u)
        for (LocalStateId v = 0; v < space.size(); ++v) {
          bool expected = true;
          for (int k = 1 - loc.left; k <= loc.right; ++k)
            expected = expected && space.value(u, k) == space.value(v, k - 1);
          EXPECT_EQ(space.right_continues(u, v), expected)
              << "reads -" << loc.left << ".." << loc.right << " |D|=" << d
              << ": " << space.brief(u) << " → " << space.brief(v);
        }
    }
}

TEST(LocalStateSpace, UnidirectionalContinuationSharesOneVariable) {
  const LocalStateSpace space(Domain::range(2), {1, 0});
  for (LocalStateId u = 0; u < space.size(); ++u)
    for (LocalStateId v = 0; v < space.size(); ++v)
      EXPECT_EQ(space.right_continues(u, v),
                space.value(u, 0) == space.value(v, -1));
}

TEST(LocalStateSpace, RejectsHugeWindow) {
  EXPECT_THROW(LocalStateSpace(Domain::range(64), {3, 3}), CapacityError);
}

}  // namespace
}  // namespace ringstab
