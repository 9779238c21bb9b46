// The FB/FWBW parallel SCC engine: canonical labels cross-validated against
// the serial Tarjan on randomized digraphs, plus end-to-end livelock
// agreement between the global engine (parallel SCC, at 1 and 4 threads)
// and the serial reference checker over the protocol zoo.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "global/checker.hpp"
#include "global/symmetry.hpp"
#include "graph/digraph.hpp"
#include "graph/parallel_scc.hpp"
#include "graph/scc.hpp"
#include "helpers.hpp"

namespace ringstab {
namespace {

CsrGraph to_csr(const Digraph& g) {
  CsrGraph out;
  out.row.assign(g.num_vertices() + 1, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out.row[v + 1] = out.row[v] + g.out_degree(v);
    for (const VertexId w : g.out(v)) out.col.push_back(w);
  }
  return out;
}

/// Run parallel_scc at several thread counts and require all runs to agree
/// with the canonicalized serial Tarjan on labels and cycle membership.
void cross_validate(const Digraph& g) {
  const CsrGraph csr = to_csr(g);
  const SccResult serial = strongly_connected_components(g);
  const auto canonical = canonical_scc_labels(serial.component);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const ParallelSccResult par = parallel_scc(csr, threads);
    ASSERT_EQ(par.component, canonical) << threads << " threads";
    ASSERT_EQ(par.num_components, serial.num_components) << threads;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(par.on_cycle(v), on_cycle(g, serial, v))
          << "vertex " << v << " at " << threads << " threads";
  }
}

TEST(ParallelScc, EmptyGraph) {
  const CsrGraph g;  // zero vertices
  const ParallelSccResult r = parallel_scc(g, 4);
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_TRUE(r.component.empty());
}

TEST(ParallelScc, SingletonAndSelfLoop) {
  Digraph g(2);
  g.add_arc(1, 1);
  cross_validate(g);
  const ParallelSccResult r = parallel_scc(to_csr(g), 2);
  EXPECT_FALSE(r.on_cycle(0));
  EXPECT_TRUE(r.on_cycle(1));
  EXPECT_TRUE(r.self_loop.test(1));
  EXPECT_FALSE(r.nontrivial.test(1));  // its SCC is still {1}
}

TEST(ParallelScc, ChainIsFullyTrimmed) {
  Digraph g(64);
  for (VertexId v = 0; v + 1 < 64; ++v) g.add_arc(v, v + 1);
  cross_validate(g);
  const ParallelSccResult r = parallel_scc(to_csr(g), 4);
  EXPECT_EQ(r.num_components, 64u);
  for (VertexId v = 0; v < 64; ++v) EXPECT_FALSE(r.on_cycle(v));
}

TEST(ParallelScc, TwoCyclesAndABridge) {
  // 0→1→2→0 and 5→6→5, bridged 2→5, plus a dead tail 3→4.
  Digraph g(7);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 0);
  g.add_arc(2, 5);
  g.add_arc(5, 6);
  g.add_arc(6, 5);
  g.add_arc(3, 4);
  cross_validate(g);
  const ParallelSccResult r = parallel_scc(to_csr(g), 2);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[0], 0u);  // labeled by smallest member
  EXPECT_EQ(r.component[5], 5u);
  EXPECT_NE(r.component[0], r.component[5]);
  const auto cyc = extract_component_cycle(to_csr(g), r, 0);
  ASSERT_EQ(cyc.size(), 3u);
  EXPECT_EQ(cyc[0], 0u);
}

TEST(ParallelScc, RandomDigraphsMatchSerialTarjan) {
  std::mt19937 rng(20260809);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng() % 120;
    Digraph g(n);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    const double density = 0.5 + 3.0 * coin(rng);  // avg out-degree
    const double p = std::min(1.0, density / static_cast<double>(n));
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v = 0; v < n; ++v)
        if (coin(rng) < p) g.add_arc(u, v);  // self-loops included
    cross_validate(g);
  }
}

TEST(ParallelScc, LargeRandomDigraphExercisesFbRecursion) {
  // Avg out-degree 2 over 20k vertices leaves a giant SCC core after trim,
  // well above the serial-Tarjan fallback threshold, so the FB/FWBW
  // reachability path itself is what gets validated here.
  std::mt19937 rng(7);
  const std::size_t n = 20000;
  Digraph g(n);
  for (VertexId u = 0; u < n; ++u)
    for (int e = 0; e < 2; ++e)
      g.add_arc(u, static_cast<VertexId>(rng() % n));
  cross_validate(g);
}

TEST(ParallelScc, WitnessCycleIsClosedAndInComponent) {
  std::mt19937 rng(99);
  const std::size_t n = 400;
  Digraph g(n);
  for (VertexId u = 0; u < n; ++u)
    for (int e = 0; e < 3; ++e) g.add_arc(u, static_cast<VertexId>(rng() % n));
  const CsrGraph csr = to_csr(g);
  const ParallelSccResult r = parallel_scc(csr, 4);
  for (VertexId v = 0; v < n; ++v) {
    if (!r.on_cycle(v)) continue;
    const auto cyc = extract_component_cycle(csr, r, v);
    ASSERT_FALSE(cyc.empty());
    EXPECT_EQ(cyc.front(), v);
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      EXPECT_EQ(r.component[cyc[i]], r.component[v]);
      EXPECT_TRUE(g.has_arc(cyc[i], cyc[(i + 1) % cyc.size()]));
    }
  }
}

/// The global engine's livelock verdicts and state sets must match the
/// serial reference checker (Tarjan) exactly over the zoo, and its witness
/// must be bit-identical between 1 and 4 threads.
TEST(ParallelScc, GlobalEngineMatchesTarjanOverZoo) {
  for (const Protocol& p : testing::protocol_zoo()) {
    for (std::size_t k = 2; k <= 8; ++k) {
      RingInstance ring(p, k);
      const GlobalChecker checker1(ring, 1);
      const GlobalChecker checker4(ring, 4);
      const testing::ReferenceResult ref = testing::reference_check(ring);

      const auto states = checker1.livelock_states();
      ASSERT_EQ(states, ref.livelock_states) << p.name() << " K=" << k;
      ASSERT_EQ(states, checker4.livelock_states()) << p.name() << " K=" << k;

      const auto w1 = checker1.find_livelock();
      const auto w4 = checker4.find_livelock();
      ASSERT_EQ(w1.has_value(), ref.verdict.has_livelock)
          << p.name() << " K=" << k;
      ASSERT_EQ(w1, w4) << p.name() << " K=" << k;
      if (!w1) continue;

      // The witness is a genuine computation cycle entirely outside I and
      // inside the livelocked state set.
      const auto& cyc = *w1;
      for (std::size_t i = 0; i < cyc.size(); ++i) {
        EXPECT_FALSE(ring.in_invariant(cyc[i])) << p.name() << " K=" << k;
        EXPECT_TRUE(std::binary_search(states.begin(), states.end(), cyc[i]));
        std::vector<RingInstance::Step> succ;
        ring.successors(cyc[i], succ);
        const GlobalStateId next = cyc[(i + 1) % cyc.size()];
        EXPECT_TRUE(std::any_of(
            succ.begin(), succ.end(),
            [&](const RingInstance::Step& s) { return s.target == next; }))
            << p.name() << " K=" << k << " edge " << i;
      }
    }
  }
}

/// The symmetry quotient's livelock pass rides the same parallel SCC
/// engine; its lifted witness must be thread-count-invariant across the
/// zoo and agree with the full-space engine on the verdict.
TEST(ParallelScc, SymmetryQuotientWitnessIsThreadInvariant) {
  for (const Protocol& p : testing::protocol_zoo()) {
    for (std::size_t k = 2; k <= 10; ++k) {
      RingInstance ring(p, k);
      const SymmetricCheckResult serial = check_symmetric(ring, 8, 1);
      const SymmetricCheckResult par = check_symmetric(ring, 8, 4);
      ASSERT_EQ(serial.has_livelock, par.has_livelock)
          << p.name() << " K=" << k;
      ASSERT_EQ(serial.livelock_cycle, par.livelock_cycle)
          << p.name() << " K=" << k;
      ASSERT_EQ(serial.has_livelock,
                GlobalChecker(ring, 2).find_livelock().has_value())
          << p.name() << " K=" << k;
    }
  }
}

}  // namespace
}  // namespace ringstab
