#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <string>

#include "core/parser.hpp"
#include "graph/cycles.hpp"
#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "graph/feedback.hpp"
#include "graph/scc.hpp"
#include "graph/walks.hpp"
#include "helpers.hpp"
#include "local/rcg.hpp"
#include "obs/obs.hpp"
#include "protocols/agreement.hpp"
#include "protocols/arrays.hpp"
#include "protocols/coloring.hpp"
#include "protocols/herman.hpp"
#include "protocols/matching.hpp"
#include "protocols/misc.hpp"
#include "protocols/sum_not_two.hpp"

namespace ringstab {
namespace {

Digraph ring_graph(std::size_t n) {
  Digraph g(n);
  for (VertexId v = 0; v < n; ++v)
    g.add_arc(v, static_cast<VertexId>((v + 1) % n));
  return g;
}

TEST(Digraph, AddArcIsIdempotent) {
  Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(0, 1);
  EXPECT_EQ(g.num_arcs(), 1u);
  EXPECT_TRUE(g.has_arc(0, 1));
  EXPECT_FALSE(g.has_arc(1, 0));
}

TEST(Digraph, OutIsSorted) {
  Digraph g(4);
  g.add_arc(0, 3);
  g.add_arc(0, 1);
  g.add_arc(0, 2);
  EXPECT_EQ(g.out(0), (std::vector<VertexId>{1, 2, 3}));
}

TEST(Digraph, InducedKeepsOnlyMaskedArcs) {
  Digraph g = ring_graph(4);
  const Digraph sub = g.induced({true, true, false, true});
  EXPECT_TRUE(sub.has_arc(0, 1));
  EXPECT_FALSE(sub.has_arc(1, 2));
  EXPECT_FALSE(sub.has_arc(2, 3));
  EXPECT_TRUE(sub.has_arc(3, 0));
}

TEST(Digraph, ReversedFlipsArcs) {
  Digraph g(3);
  g.add_arc(0, 1);
  const Digraph r = g.reversed();
  EXPECT_TRUE(r.has_arc(1, 0));
  EXPECT_FALSE(r.has_arc(0, 1));
}

TEST(Digraph, InDegrees) {
  Digraph g = ring_graph(3);
  g.add_arc(0, 2);
  EXPECT_EQ(g.in_degrees(), (std::vector<std::size_t>{1, 1, 2}));
}

TEST(Scc, RingIsOneComponent) {
  const auto scc = strongly_connected_components(ring_graph(5));
  EXPECT_EQ(scc.num_components, 1u);
  EXPECT_EQ(scc.component_size[0], 5u);
}

TEST(Scc, ChainIsAllSingletons) {
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 3);
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 4u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_FALSE(on_cycle(g, scc, v));
}

TEST(Scc, SelfLoopIsOnCycle) {
  Digraph g(2);
  g.add_arc(0, 0);
  const auto scc = strongly_connected_components(g);
  EXPECT_TRUE(on_cycle(g, scc, 0));
  EXPECT_FALSE(on_cycle(g, scc, 1));
}

TEST(Scc, TwoComponents) {
  Digraph g(5);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(1, 2);
  g.add_arc(2, 3);
  g.add_arc(3, 4);
  g.add_arc(4, 2);
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 2u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[2], scc.component[3]);
  EXPECT_NE(scc.component[0], scc.component[2]);
}

// Property: on_cycle agrees with brute-force "v reaches v in ≥1 step".
TEST(Scc, MatchesBruteForceOnRandomGraphs) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng() % 10;
    Digraph g(n);
    const std::size_t arcs = rng() % (n * n);
    for (std::size_t a = 0; a < arcs; ++a)
      g.add_arc(static_cast<VertexId>(rng() % n),
                static_cast<VertexId>(rng() % n));
    const auto scc = strongly_connected_components(g);
    for (VertexId v = 0; v < n; ++v) {
      // BFS from successors of v.
      std::vector<bool> seen(n, false);
      std::vector<VertexId> stack(g.out(v).begin(), g.out(v).end());
      bool reaches_self = false;
      while (!stack.empty()) {
        const VertexId u = stack.back();
        stack.pop_back();
        if (u == v) {
          reaches_self = true;
          break;
        }
        if (seen[u]) continue;
        seen[u] = true;
        for (VertexId w : g.out(u)) stack.push_back(w);
      }
      EXPECT_EQ(on_cycle(g, scc, v), reaches_self) << "trial " << trial;
    }
  }
}

TEST(Cycles, FindCycleThrough) {
  Digraph g = ring_graph(4);
  const auto c = find_cycle_through(g, 2);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->size(), 4u);
  EXPECT_EQ(c->front(), 2u);
}

TEST(Cycles, FindCycleRespectsAllowedMask) {
  Digraph g = ring_graph(4);
  g.add_arc(1, 0);  // short 2-cycle 0↔1
  std::vector<bool> allowed{true, true, false, false};
  const auto c = find_cycle_through(g, 0, &allowed);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, (Cycle{0, 1}));
}

TEST(Cycles, SelfLoopIsLengthOne) {
  Digraph g(2);
  g.add_arc(1, 1);
  const auto c = find_cycle_through(g, 1);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, (Cycle{1}));
  EXPECT_FALSE(find_cycle_through(g, 0).has_value());
}

TEST(Cycles, JohnsonEnumeratesAll) {
  // K3 complete digraph: 2 three-cycles + 3 two-cycles + 0 self loops = 5.
  Digraph g(3);
  for (VertexId u = 0; u < 3; ++u)
    for (VertexId v = 0; v < 3; ++v)
      if (u != v) g.add_arc(u, v);
  const auto cycles = simple_cycles(g);
  EXPECT_EQ(cycles.size(), 5u);
  for (const auto& c : cycles) {
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_TRUE(g.has_arc(c[i], c[(i + 1) % c.size()]));
    EXPECT_EQ(*std::min_element(c.begin(), c.end()), c.front())
        << "canonical rotation";
  }
}

TEST(Cycles, ThroughMarkedFilters) {
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(2, 3);
  g.add_arc(3, 2);
  std::vector<bool> marked{false, false, true, false};
  const auto cycles = simple_cycles_through(g, marked);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], (Cycle{2, 3}));
}

TEST(Cycles, ThroughMarkedCapCountsOnlyMarkedCycles) {
  // Johnson's order reaches the unmarked cycle {0, 1} first; it must not
  // use up the cap.
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(2, 3);
  g.add_arc(3, 2);
  std::vector<bool> marked{false, false, true, false};
  const auto cycles = simple_cycles_through(g, marked, 1);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], (Cycle{2, 3}));
}

TEST(Cycles, ThroughMarkedWalkIsBounded) {
  // A complete digraph on 0..11 has 119,481,284 cycles, none through the
  // marked 12, and the search reaches 108,505,111 of them before the first
  // through 12. The walk budget stops it there (in milliseconds instead of
  // seconds): the list comes back short.
  Digraph g(13);
  for (VertexId u = 0; u < 12; ++u)
    for (VertexId v = 0; v < 12; ++v)
      if (u != v) g.add_arc(u, v);
  g.add_arc(0, 12);
  g.add_arc(12, 0);
  g.add_arc(12, 12);
  std::vector<bool> marked(13, false);
  marked[12] = true;
  EXPECT_TRUE(simple_cycles_through(g, marked, 64).empty());
}

TEST(Cycles, ThroughMarkedSkipsStartsWhoseSccHoldsNoMarkedVertex) {
  // The complete digraph on 0..11 comes first in Johnson's order and has
  // 119,481,284 cycles, none through a marked vertex; 12 is marked and
  // reachable from it but in an SCC of its own. The walk budget must not
  // be spent on 0..11 before the search reaches 12.
  Digraph g(13);
  for (VertexId u = 0; u < 12; ++u)
    for (VertexId v = 0; v < 12; ++v)
      if (u != v) g.add_arc(u, v);
  g.add_arc(0, 12);
  g.add_arc(12, 12);
  std::vector<bool> marked(13, false);
  marked[12] = true;
  EXPECT_EQ(simple_cycles_through(g, marked, 64), (std::vector<Cycle>{{12}}));
}

TEST(Feedback, SingleCycleAllVerticesAreMinimalSets) {
  Digraph g = ring_graph(3);
  std::vector<bool> all(3, true);
  const auto sets = minimal_feedback_sets(g, all);
  EXPECT_EQ(sets.size(), 3u);
  for (const auto& s : sets) EXPECT_EQ(s.size(), 1u);
}

TEST(Feedback, OnlyMarkedCyclesNeedBreaking) {
  // Two disjoint 2-cycles, 0 <-> 1 marked and 2 <-> 3 not, and a marked 4
  // on no cycle: only the marked 2-cycle needs breaking, and 4 is never
  // removed.
  Digraph g(5);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(2, 3);
  g.add_arc(3, 2);
  g.add_arc(2, 4);
  std::vector<bool> marked{true, true, false, false, true};
  const auto sets = minimal_feedback_sets(g, marked);
  EXPECT_EQ(sets, (std::vector<std::vector<VertexId>>{{0}, {1}}));
  for (const auto& s : sets)
    EXPECT_TRUE(testing::breaks_all_marked_cycles(g, marked, s));
}

/// Every set breaks every cycle through a marked vertex, and no set does
/// with one vertex fewer.
void expect_minimal_and_sufficient(
    const Digraph& g, const std::vector<bool>& marked,
    const std::vector<std::vector<VertexId>>& sets) {
  for (const auto& s : sets) {
    EXPECT_TRUE(testing::breaks_all_marked_cycles(g, marked, s));
    for (std::size_t drop = 0; drop < s.size(); ++drop) {
      auto smaller = s;
      smaller.erase(smaller.begin() + static_cast<long>(drop));
      EXPECT_FALSE(testing::breaks_all_marked_cycles(g, marked, smaller))
          << "set is not minimal";
    }
  }
}

TEST(Feedback, ResultsAreMinimalAndSufficient) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 3 + rng() % 5;
    Digraph g(n);
    for (std::size_t a = 0; a < n * 2; ++a)
      g.add_arc(static_cast<VertexId>(rng() % n),
                static_cast<VertexId>(rng() % n));
    const std::vector<bool> marked(n, true);
    expect_minimal_and_sufficient(g, marked, minimal_feedback_sets(g, marked));
  }
}

/// Holds minimal_feedback_sets to the reference search, whose candidates
/// are the marked vertices, on one input: the same sets in the same order.
std::vector<std::vector<VertexId>> expect_matches_reference(
    const Digraph& g, const std::vector<bool>& marked,
    std::size_t max_sets = 256) {
  const auto got = minimal_feedback_sets(g, marked, max_sets);
  EXPECT_EQ(got, testing::reference_minimal_feedback_sets(g, marked, marked,
                                                          max_sets));
  return got;
}

/// Each arc u→v, self-loops included, with probability `density`.
Digraph random_digraph(std::mt19937_64& rng, std::size_t n, double density) {
  std::bernoulli_distribution arc(density);
  Digraph g(n);
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = 0; v < n; ++v)
      if (arc(rng)) g.add_arc(u, v);
  return g;
}

std::vector<bool> random_mask(std::mt19937_64& rng, std::size_t n, double p) {
  std::bernoulli_distribution in(p);
  std::vector<bool> mask(n);
  for (std::size_t v = 0; v < n; ++v) mask[v] = in(rng);
  return mask;
}

TEST(Feedback, MatchesReferenceOnSmallRandomDigraphs) {
  std::mt19937_64 rng(2012);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::size_t multi_vertex_sets = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 2 + rng() % 15;
    const Digraph g = random_digraph(rng, n, 0.05 + 0.3 * unit(rng));
    const auto marked = random_mask(rng, n, 0.2 + 0.6 * unit(rng));
    const std::size_t max_sets = trial % 4 == 0 ? 1 + rng() % 4 : 256;
    SCOPED_TRACE(trial);
    const auto got = expect_matches_reference(g, marked, max_sets);
    multi_vertex_sets += !got.empty() && got.back().size() > 1;
  }
  // Sets of several vertices occur often enough for the comparison to mean
  // something.
  EXPECT_GT(multi_vertex_sets, 500u);
}

TEST(Feedback, MatchesReferencePastOneWord) {
  std::mt19937_64 rng(64);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::size_t sets_past_word = 0, multi_vertex_sets = 0;
  for (int trial = 0; trial < 100; ++trial) {
    // Sparse noise over 65..130 vertices, plus a dense random core of 6..13
    // vertices spread over both words, so the search branches across them.
    const std::size_t n = 65 + rng() % 66;
    const double noise = (0.5 + 0.4 * unit(rng)) / static_cast<double>(n);
    Digraph g = random_digraph(rng, n, noise);
    std::vector<VertexId> core(6 + rng() % 8);
    for (VertexId& v : core) v = static_cast<VertexId>(rng() % n);
    const double density = 0.1 + 0.25 * unit(rng);
    for (const VertexId u : core)
      for (const VertexId v : core)
        if (unit(rng) < density) g.add_arc(u, v);
    const auto marked = random_mask(rng, n, 0.3 + 0.4 * unit(rng));
    SCOPED_TRACE(trial);
    const auto got = expect_matches_reference(g, marked);
    multi_vertex_sets += !got.empty() && got.back().size() > 1;
    for (const auto& s : got)
      sets_past_word += !s.empty() && s.back() >= 64;
  }
  EXPECT_GT(multi_vertex_sets, 30u);
  EXPECT_GT(sets_past_word, 100u) << "the second word was hardly exercised";
}

TEST(Feedback, MatchesReferenceWithBranchingAtHighWordPositions) {
  // The core's ids lie in 46..63, and in 110..127 at 128 vertices: the top
  // of each 64-id block, where a hash of removal sets must still look.
  std::mt19937_64 rng(4663);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::size_t multi_vertex_sets = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = trial % 2 == 0 ? 64 : 128;
    Digraph g = random_digraph(rng, n, 0.7 / static_cast<double>(n));
    std::vector<VertexId> core(8 + rng() % 7);
    for (VertexId& v : core)
      v = static_cast<VertexId>(46 + rng() % 18 + 64 * (rng() % (n / 64)));
    const double density = 0.15 + 0.25 * unit(rng);
    for (const VertexId u : core)
      for (const VertexId v : core)
        if (unit(rng) < density) g.add_arc(u, v);
    std::vector<bool> marked(n, false);
    for (const VertexId v : core) marked[v] = unit(rng) < 0.6;
    SCOPED_TRACE(trial);
    const auto got = expect_matches_reference(g, marked);
    multi_vertex_sets += !got.empty() && got.back().size() > 1;
  }
  EXPECT_GT(multi_vertex_sets, 30u);
}

TEST(Feedback, MatchesReferenceOnALargeSparseGraph) {
  // 200,000 vertices: a forward DAG (a path plus random forward arcs) whose
  // only cycle is the marked 2-cycle a <-> a+1, with every 1000th vertex
  // marked as well. A dense adjacency of n rows of n/64 words would need
  // 5 GB here.
  constexpr std::size_t n = 200000;
  constexpr VertexId a = 150001;
  std::mt19937_64 rng(200000);
  Digraph g(n);
  for (VertexId v = 0; v + 1 < n; ++v) {
    g.add_arc(v, v + 1);
    const std::size_t far = v + 2 + rng() % 1000;
    if (far < n) g.add_arc(v, static_cast<VertexId>(far));
  }
  g.add_arc(a + 1, a);
  std::vector<bool> marked(n, false);
  for (std::size_t v = 0; v < n; v += 1000) marked[v] = true;
  marked[a] = marked[a + 1] = true;
  EXPECT_EQ(expect_matches_reference(g, marked),
            (std::vector<std::vector<VertexId>>{{a}, {a + 1}}));
}

TEST(Cycles, FewestMarkedCycleThroughIsTheLeastOverSimpleCycles) {
  // One set of buffers across graphs that grow and shrink, each answer held
  // to the least marked count over Johnson's enumeration of the kept
  // subgraph.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  CycleSearchBuffers buffers;
  Cycle cycle;
  std::size_t found = 0, refused = 0;
  auto marked_count = [](const Cycle& c, const std::vector<bool>& marked) {
    return static_cast<std::size_t>(
        std::count_if(c.begin(), c.end(), [&](VertexId u) { return marked[u]; }));
  };
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 1 + rng() % 10;
    const Digraph g = random_digraph(rng, n, 0.05 + 0.3 * unit(rng));
    const auto keep = random_mask(rng, n, 0.8);
    const auto marked = random_mask(rng, n, unit(rng));
    const auto cycles = simple_cycles(g.induced(keep));
    ASSERT_LT(cycles.size(), 100000u) << "the enumeration was capped";
    for (VertexId v = 0; v < n; ++v) {
      std::size_t least = n + 1;  // no cycle through v
      for (const Cycle& c : cycles)
        if (std::find(c.begin(), c.end(), v) != c.end())
          least = std::min(least, marked_count(c, marked));
      const std::size_t bound = trial % 3 == 0 ? n + 1 : rng() % (n + 2);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " vertex " << v
                                      << " bound " << bound);
      const std::size_t got = fewest_marked_cycle_through(
          g, v, keep, marked, bound, buffers, cycle);
      if (least >= bound) {
        EXPECT_EQ(got, bound);
        refused += least <= n;
        continue;
      }
      ASSERT_EQ(got, least);
      ++found;
      EXPECT_EQ(cycle.front(), v);
      EXPECT_EQ(marked_count(cycle, marked), least);
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        EXPECT_TRUE(keep[cycle[i]]);
        EXPECT_TRUE(g.has_arc(cycle[i], cycle[(i + 1) % cycle.size()]));
      }
      Cycle sorted = cycle;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
          << "the cycle is not simple";
    }
  }
  // Both outcomes occur often enough for the comparison to mean something.
  EXPECT_GT(found, 500u);
  EXPECT_GT(refused, 100u);
}

TEST(Cycles, FewestMarkedCycleThroughSurvivesAGenerationWrap) {
  // A wrapped generation counter comes back to 1, the stamp the first
  // probe left on every vertex of the ring: none may read as reached.
  const Digraph g = ring_graph(4);
  const std::vector<bool> keep(4, true);
  const std::vector<bool> marked{true, false, false, false};
  CycleSearchBuffers buffers;
  Cycle cycle;
  ASSERT_EQ(fewest_marked_cycle_through(g, 0, keep, marked, 5, buffers, cycle),
            1u);
  buffers.generation = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(fewest_marked_cycle_through(g, 0, keep, marked, 5, buffers, cycle),
            1u);
  EXPECT_EQ(cycle, (Cycle{0, 1, 2, 3}));
}

/// The deadlock-induced RCG with the illegitimate deadlocks as marked and
/// candidate vertices: the Resolve-set query synthesis makes.
void expect_resolve_query_matches_reference(const Protocol& p) {
  SCOPED_TRACE(p.name());
  const Digraph g = deadlock_rcg(p);
  std::vector<bool> marked(p.num_states(), false);
  for (const LocalStateId s : p.illegitimate_deadlocks()) marked[s] = true;
  expect_matches_reference(g, marked);
}

TEST(Feedback, MatchesReferenceOnEveryProtocolsResolveQuery) {
  namespace pr = protocols;
  for (const Protocol& p :
       {pr::agreement_empty(), pr::agreement_empty(3), pr::agreement_both(),
        pr::agreement_one_sided(true), pr::agreement_one_sided(false),
        pr::agreement_max(3), pr::array_agreement(), pr::array_sort(),
        pr::array_two_coloring(), pr::array_two_coloring_broken(),
        pr::coloring_empty(2), pr::coloring_empty(3),
        pr::three_coloring_rotation(), pr::coloring_with_choices(3, {1, 2, 0}),
        pr::herman_ring(), pr::matching_skeleton(),
        pr::matching_generalizable(), pr::matching_nongeneralizable(),
        pr::matching_gouda_acharya_fragment(),
        pr::matching_nongeneralizable_fixed(), pr::no_adjacent_ones_empty(),
        pr::no_adjacent_ones_solution(), pr::alternator_empty(),
        pr::monotone_empty(), pr::sum_not_two_empty(),
        pr::sum_not_two_solution(), pr::sum_not_two_rotation(true),
        pr::sum_not_two_rotation(false), pr::sum_not_q_empty(4, 3)})
    expect_resolve_query_matches_reference(p);
}

TEST(Feedback, MatchesReferenceOnEveryExampleRing) {
  std::size_t rings = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RINGSTAB_RINGS)) {
    if (entry.path().extension() != ".ring") continue;
    expect_resolve_query_matches_reference(
        parse_protocol_file(entry.path().string()));
    ++rings;
  }
  EXPECT_GE(rings, 10u);
}

TEST(Feedback, MatchingSkeletonHasItsEightResolveSets) {
  const Protocol p = protocols::matching_skeleton();
  std::vector<bool> marked(p.num_states(), false);
  for (const LocalStateId s : p.illegitimate_deadlocks()) marked[s] = true;
  const auto sets = minimal_feedback_sets(deadlock_rcg(p), marked);
  EXPECT_EQ(sets.size(), 8u);
}

TEST(Feedback, DenseRandomRingsSearchFewNodes) {
  // Domain-4 bidirectional random protocols (64 local states). Branching on
  // the first bad cycle a DFS found, their Resolve queries entered
  // 10,886,466 nodes (seed 15) and 1,464,408 (seed 197); branching on a bad
  // cycle with the fewest marked vertices, 107 and 24.
  testing::RandomProtocolOptions opts;
  opts.max_domain = 4;
  opts.allow_bidirectional = true;
  for (const unsigned seed : {15u, 197u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const Protocol p = testing::random_protocol(rng, opts);
    ASSERT_EQ(p.num_states(), 64u);
    const Digraph g = deadlock_rcg(p);
    std::vector<bool> marked(p.num_states(), false);
    for (const LocalStateId s : p.illegitimate_deadlocks()) marked[s] = true;
    obs::Registry::global().reset_counters();
    obs::g_enabled.store(true);
    const auto sets = minimal_feedback_sets(g, marked);
    obs::g_enabled.store(false);
    EXPECT_LE(obs::counter("feedback.search_nodes").total(), 1000u);
    EXPECT_FALSE(sets.empty());
    expect_minimal_and_sufficient(g, marked, sets);
  }
}

/// `pairs` disjoint marked 2-cycles {5i, 5i+1}, so the later ones sit past
/// vertex 64: every choice of one vertex per cycle is a minimal feedback
/// set, 2^pairs of them.
Digraph disjoint_two_cycles(std::size_t pairs) {
  Digraph g(5 * pairs);
  for (VertexId i = 0; i < pairs; ++i) {
    g.add_arc(5 * i, 5 * i + 1);
    g.add_arc(5 * i + 1, 5 * i);
  }
  return g;
}

TEST(Feedback, SearchBelowTheCapIsExhaustive) {
  const Digraph g = disjoint_two_cycles(16);  // 2^16 sets, below the cap
  const std::vector<bool> all(g.num_vertices(), true);
  const auto sets = minimal_feedback_sets(g, all);
  ASSERT_EQ(sets.size(), 256u);
  std::vector<VertexId> smallest;
  for (VertexId i = 0; i < 16; ++i) smallest.push_back(5 * i);
  EXPECT_EQ(sets.front(), smallest);
  for (const auto& s : sets) EXPECT_EQ(s.size(), 16u);
}

TEST(Feedback, SearchPastTheCapThrowsInsteadOfTruncating) {
  const Digraph g = disjoint_two_cycles(17);  // 2^17 sets, past the cap
  const std::vector<bool> all(g.num_vertices(), true);
  try {
    (void)minimal_feedback_sets(g, all);
    FAIL() << "a partial list of feedback sets was returned";
  } catch (const CapacityError& e) {
    EXPECT_NE(std::string(e.what()).find("100000"), std::string::npos)
        << e.what();
  }
}

TEST(Walks, RingSpectrumIsMultiples) {
  const Digraph g = ring_graph(4);
  std::vector<bool> marked{true, false, false, false};
  const auto spec = closed_walk_lengths(g, marked, 20);
  for (std::size_t k = 1; k <= 20; ++k)
    EXPECT_EQ(spec.at(k), k % 4 == 0) << k;
  EXPECT_EQ(spec.smallest(), 4u);
}

TEST(Walks, TwoCyclesComposeLengths) {
  // Cycles of length 2 and 3 sharing vertex 0: lengths {2,3,4,5,...}.
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(0, 2);
  g.add_arc(2, 3);
  g.add_arc(3, 0);
  std::vector<bool> marked{true, false, false, false};
  const auto spec = closed_walk_lengths(g, marked, 12);
  EXPECT_FALSE(spec.at(1));
  for (std::size_t k = 2; k <= 12; ++k) EXPECT_TRUE(spec.at(k)) << k;
}

TEST(Walks, WitnessIsAValidClosedWalk) {
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(0, 2);
  g.add_arc(2, 3);
  g.add_arc(3, 0);
  std::vector<bool> marked{true, false, false, false};
  for (std::size_t len = 2; len <= 10; ++len) {
    const auto walk = closed_walk_of_length(g, marked, len);
    ASSERT_TRUE(walk.has_value()) << len;
    EXPECT_EQ(walk->size(), len);
    EXPECT_TRUE(marked[(*walk)[0]]);
    for (std::size_t i = 0; i < len; ++i)
      EXPECT_TRUE(g.has_arc((*walk)[i], (*walk)[(i + 1) % len]));
  }
  EXPECT_FALSE(closed_walk_of_length(g, marked, 1).has_value());
}

TEST(Dot, RendersVerticesAndArcs) {
  Digraph g(2);
  g.add_arc(0, 1);
  DotOptions opts;
  opts.label = [](VertexId v) { return v == 0 ? "zero" : "one"; };
  const std::string dot = to_dot(g, opts);
  EXPECT_NE(dot.find("zero"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(Dot, IncludeFilterDropsVertices) {
  Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  DotOptions opts;
  opts.include = [](VertexId v) { return v != 2; };
  const std::string dot = to_dot(g, opts);
  EXPECT_EQ(dot.find("n2"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

}  // namespace
}  // namespace ringstab
