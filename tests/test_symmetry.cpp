// Rotation-symmetry reduction: must agree exactly with the plain checker.
#include "global/symmetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <utility>

#include "core/builder.hpp"
#include "core/parser.hpp"
#include "global/necklace.hpp"
#include "helpers.hpp"
#include "protocols/agreement.hpp"
#include "protocols/matching.hpp"

namespace ringstab {
namespace {

// Burnside: #necklaces = (1/k) Σ_{r | k} φ(r) d^{k/r}.
std::uint64_t necklaces_by_burnside(std::size_t k, std::size_t d) {
  auto phi = [](std::size_t n) {
    std::size_t result = n;
    for (std::size_t p = 2; p * p <= n; ++p) {
      if (n % p != 0) continue;
      while (n % p == 0) n /= p;
      result -= result / p;
    }
    if (n > 1) result -= result / n;
    return result;
  };
  std::uint64_t sum = 0;
  for (std::size_t r = 1; r <= k; ++r) {
    if (k % r != 0) continue;
    std::uint64_t pw = 1;
    for (std::size_t i = 0; i < k / r; ++i) pw *= d;
    sum += phi(r) * pw;
  }
  return sum / k;
}

// The FKM enumerator's necklaces are exactly the rotation orbits: they are
// canonical, strictly ascending, their orbit sizes sum to |D|^K (the
// necklace identity), and their count matches Burnside's formula.
TEST(Necklace, EnumerationIdentity) {
  for (std::size_t d : {2u, 3u, 4u}) {
    for (std::size_t k = 1; k <= 12; ++k) {
      const NecklaceEnumerator enumerator(k, d);
      std::uint64_t count = 0, orbit_sum = 0, expect_states = 1;
      for (std::size_t i = 0; i < k; ++i) expect_states *= d;
      GlobalStateId prev = 0;
      bool first = true;
      enumerator.visit_all([&](const Value* digits, GlobalStateId id,
                               std::uint32_t orbit) {
        ASSERT_TRUE(first || id > prev) << "not ascending at id " << id;
        first = false;
        prev = id;
        ++count;
        orbit_sum += orbit;
        ASSERT_EQ(orbit, cyclic_period(digits, k));
        ASSERT_EQ(canonical_necklace_id(digits, k, enumerator.powers()), id);
        ASSERT_EQ(k % orbit, 0u);
      });
      EXPECT_EQ(orbit_sum, expect_states) << "k=" << k << " d=" << d;
      EXPECT_EQ(count, necklaces_by_burnside(k, d)) << "k=" << k << " d=" << d;
      EXPECT_EQ(count_necklaces(k, d), count);
    }
  }
}

// Slot-partitioned enumeration must reproduce the serial stream for any
// split of the slot range (this is what makes the parallel census exact).
TEST(Necklace, SlotPartitionReproducesSerialOrder) {
  const NecklaceEnumerator enumerator(9, 3);
  std::vector<GlobalStateId> serial;
  enumerator.visit_all([&](const Value*, GlobalStateId id, std::uint32_t) {
    serial.push_back(id);
  });
  for (std::uint64_t parts : {2u, 7u, 64u}) {
    std::vector<GlobalStateId> split;
    const std::uint64_t n = enumerator.num_slots();
    for (std::uint64_t j = 0; j < parts; ++j) {
      const std::uint64_t b = n * j / parts, e = n * (j + 1) / parts;
      enumerator.visit_slots(b, e,
                             [&](const Value*, GlobalStateId id,
                                 std::uint32_t) { split.push_back(id); });
    }
    EXPECT_EQ(split, serial) << parts << " parts";
  }
}

// |D|^i for i in [0, k), in wrapping 64-bit arithmetic.
std::vector<GlobalStateId> powers_of(std::size_t d, std::size_t k) {
  std::vector<GlobalStateId> pow(k, 1);
  for (std::size_t i = 1; i < k; ++i) pow[i] = pow[i - 1] * d;
  return pow;
}

// The definition: the least encoding over all K rotations of `word` (ring
// order), each rotation materialized and encoded on its own.
GlobalStateId least_rotation_by_brute_force(
    std::vector<Value> word, const std::vector<GlobalStateId>& pow) {
  GlobalStateId least = ~GlobalStateId{0};
  for (std::size_t r = 0; r < word.size(); ++r) {
    GlobalStateId id = 0;
    for (std::size_t i = 0; i < word.size(); ++i)
      id += GlobalStateId{word[i]} * pow[i];
    least = std::min(least, id);
    std::rotate(word.begin(), word.begin() + 1, word.end());
  }
  return least;
}

GlobalStateId encode_word(const std::vector<Value>& word,
                          const std::vector<GlobalStateId>& pow) {
  GlobalStateId id = 0;
  for (std::size_t i = 0; i < word.size(); ++i)
    id += GlobalStateId{word[i]} * pow[i];
  return id;
}

// Every word at K=1..10 over |D| = 2, 3, 4: the rolling rotation scan must
// return the brute-force least rotation, from the digits alone and from
// the digits with their encoding.
TEST(Necklace, CanonicalIdIsTheLeastRotationOfEveryWord) {
  for (std::size_t d : {2u, 3u, 4u}) {
    for (std::size_t k = 1; k <= 10; ++k) {
      const auto pow = powers_of(d, k);
      std::vector<Value> word(k, 0);
      while (true) {
        const GlobalStateId want = least_rotation_by_brute_force(word, pow);
        ASSERT_EQ(canonical_necklace_id(word.data(), k, pow), want)
            << "d=" << d << " k=" << k << " id=" << encode_word(word, pow);
        ASSERT_EQ(canonical_necklace_id(encode_word(word, pow), word.data(),
                                        k, pow),
                  want);
        // Odometer increment; stop after the all-top word.
        std::size_t i = 0;
        while (i < k && word[i] == d - 1) word[i++] = 0;
        if (i == k) break;
        ++word[i];
      }
    }
  }
}

// The widest rings a 64-bit id admits (|D|^K - 1 fits: K=64 at |D|=2, K=40
// at |D|=3), where a rotation step wraps modulo 2^64 before it lands: random
// words plus the extreme and periodic ones.
TEST(Necklace, CanonicalIdOnTheWidestRings) {
  std::mt19937_64 rng(20);
  for (const auto& [d, k] : {std::pair<std::size_t, std::size_t>{2, 64},
                             std::pair<std::size_t, std::size_t>{3, 40}}) {
    const auto pow = powers_of(d, k);
    std::vector<std::vector<Value>> words;
    words.emplace_back(k, 0);
    words.emplace_back(k, static_cast<Value>(d - 1));
    for (std::size_t period : {1u, 2u, 4u, 8u}) {
      std::vector<Value> w(k);
      for (std::size_t i = 0; i < k; ++i)
        w[i] = static_cast<Value>((i % period) * (d - 1) / period);
      words.push_back(w);
    }
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<Value> w(k);
      for (Value& v : w) v = static_cast<Value>(rng() % d);
      words.push_back(w);
    }
    for (const auto& w : words) {
      const GlobalStateId want = least_rotation_by_brute_force(w, pow);
      ASSERT_EQ(canonical_necklace_id(w.data(), k, pow), want)
          << "d=" << d << " k=" << k << " id=" << encode_word(w, pow);
      ASSERT_EQ(canonical_necklace_id(encode_word(w, pow), w.data(), k, pow),
                want);
    }
  }
}

// A one-value domain admits any K (|D|^K = 1): the quotient, the
// canonicalization and the full-space checker all see one state, in I.
TEST(Symmetry, OneValueDomainAdmitsAnyRingSize) {
  const Protocol p = build_protocol(parse_protocol_source(
      "protocol one;\n"
      "domain 1;\n"
      "reads -1 .. 0;\n"
      "legit: x[0] == 0;\n",
      "one.ring"));
  const RingInstance ring(p, 100);
  ASSERT_EQ(ring.num_states(), 1u);
  EXPECT_EQ(canonical_rotation(ring, 0), 0u);
  EXPECT_EQ(rotation_orbit_size(ring, 0), 1u);
  for (std::size_t threads : {1u, 4u}) {
    const auto sym = check_symmetric(ring, 8, threads);
    EXPECT_EQ(sym.num_states, 1u);
    EXPECT_EQ(sym.num_necklaces, 1u);
    EXPECT_TRUE(sym.strongly_converges());
    EXPECT_TRUE(sym.weakly_converges);
    EXPECT_EQ(sym.max_recovery_steps, 0u);
  }
  const auto plain = GlobalChecker(ring).check_all();
  EXPECT_EQ(plain.num_states, 1u);
  EXPECT_TRUE(plain.strongly_converges());
  EXPECT_EQ(plain.max_recovery_steps, 0u);
}

TEST(Symmetry, CanonicalIsMinimalRotationInvariant) {
  const RingInstance ring(protocols::agreement_both(), 6);
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const GlobalStateId s = rng() % ring.num_states();
    const GlobalStateId c = canonical_rotation(ring, s);
    EXPECT_LE(c, s);
    // Canonical of any rotation equals canonical of s.
    auto vals = ring.decode(s);
    std::rotate(vals.begin(), vals.begin() + 1, vals.end());
    EXPECT_EQ(canonical_rotation(ring, ring.encode(vals)), c);
    // Idempotent.
    EXPECT_EQ(canonical_rotation(ring, c), c);
  }
}

TEST(Symmetry, OrbitSizesDivideK) {
  const RingInstance ring(protocols::matching_skeleton(), 6);
  GlobalStateId canonical = 0, total = 0;
  for (GlobalStateId s = 0; s < ring.num_states(); ++s) {
    if (canonical_rotation(ring, s) != s) continue;
    const std::size_t orbit = rotation_orbit_size(ring, s);
    EXPECT_EQ(6 % orbit, 0u);
    ++canonical;
    total += orbit;
  }
  // Orbits partition the state space.
  EXPECT_EQ(total, ring.num_states());
  // Burnside sanity: far fewer representatives than states.
  EXPECT_LT(canonical, ring.num_states() / 4);
}

// A livelock witness must be a genuine cycle: every state outside I, every
// consecutive pair (cyclically) an actual transition of the instance.
void expect_valid_livelock_cycle(const RingInstance& ring,
                                 const std::vector<GlobalStateId>& cycle) {
  ASSERT_FALSE(cycle.empty());
  std::vector<RingInstance::Step> succ;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    EXPECT_FALSE(ring.in_invariant(cycle[i]));
    const GlobalStateId next = cycle[(i + 1) % cycle.size()];
    ring.successors(cycle[i], succ);
    const bool is_edge =
        std::any_of(succ.begin(), succ.end(),
                    [&](const auto& s) { return s.target == next; });
    EXPECT_TRUE(is_edge) << "not a transition: " << cycle[i] << " -> " << next;
  }
}

// The symmetric checker's verdicts and counts are bit-identical to the
// plain checker's across the zoo at K=2..10, for 1 and 4 threads, at a
// fraction of the visited states.
class SymmetryZooTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymmetryZooTest, AgreesWithPlainChecker) {
  const Protocol p = testing::protocol_zoo()[GetParam()];
  for (std::size_t k = 2; k <= 10; ++k) {
    const RingInstance ring(p, k);
    // Keep the expensive side (the plain checker's |D|^K sweep) bounded;
    // every d<=3 zoo protocol still reaches K=10.
    if (ring.num_states() > (GlobalStateId{1} << 18)) break;
    const auto plain = GlobalChecker(ring).check_all();
    for (std::size_t threads : {1u, 4u}) {
      const auto sym = check_symmetric(ring, 8, threads);
      EXPECT_EQ(sym.num_deadlocks_outside_i, plain.num_deadlocks_outside_i)
          << p.name() << " K=" << k << " threads=" << threads;
      EXPECT_EQ(sym.has_livelock, plain.has_livelock)
          << p.name() << " K=" << k << " threads=" << threads;
      EXPECT_EQ(sym.closure_ok, plain.closure_ok)
          << p.name() << " K=" << k << " threads=" << threads;
      EXPECT_EQ(sym.weakly_converges, plain.weakly_converges)
          << p.name() << " K=" << k << " threads=" << threads;
      EXPECT_EQ(sym.strongly_converges(), plain.strongly_converges())
          << p.name() << " K=" << k << " threads=" << threads;
      EXPECT_EQ(sym.max_recovery_steps, plain.max_recovery_steps)
          << p.name() << " K=" << k << " threads=" << threads;
      EXPECT_EQ(sym.num_states, ring.num_states());
      EXPECT_EQ(sym.num_necklaces, count_necklaces(k, p.domain().size()))
          << p.name() << " K=" << k;
      EXPECT_LT(sym.num_necklaces, ring.num_states())
          << p.name() << " K=" << k;
      if (sym.has_livelock)
        expect_valid_livelock_cycle(ring, sym.livelock_cycle);
      if (!sym.closure_ok) {
        ASSERT_TRUE(sym.closure_violation.has_value());
        EXPECT_TRUE(ring.in_invariant(sym.closure_violation->first));
        EXPECT_FALSE(ring.in_invariant(sym.closure_violation->second));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, SymmetryZooTest,
                         ::testing::Range<std::size_t>(
                             0, testing::protocol_zoo().size()));

TEST(Symmetry, DeadlockRepsAreCanonicalDeadlocks) {
  const RingInstance ring(protocols::matching_nongeneralizable(), 6);
  const auto sym = check_symmetric(ring);
  ASSERT_FALSE(sym.deadlock_orbit_reps.empty());
  for (GlobalStateId s : sym.deadlock_orbit_reps) {
    EXPECT_EQ(canonical_rotation(ring, s), s);
    EXPECT_TRUE(ring.is_deadlock(s));
    EXPECT_FALSE(ring.in_invariant(s));
  }
}

}  // namespace
}  // namespace ringstab
