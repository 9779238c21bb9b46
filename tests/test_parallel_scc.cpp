// The checker's two serial verdict passes over a NotInvariantGraph, held to
// independent oracles: cyclic_verdict's canonical labels and on-cycle bits
// to the graph/scc.hpp Tarjan on randomized digraphs, both passes' reach
// verdicts to a backward BFS, and acyclic_verdict's depth to a brute-force
// longest path; plus end-to-end livelock agreement between the global
// engine (at 1 and 4 threads) and the serial reference checker over the
// protocol zoo.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "global/checker.hpp"
#include "global/symmetry.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "helpers.hpp"

namespace ringstab {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

CsrGraph to_csr(const Digraph& g) {
  CsrGraph out;
  out.row.assign(g.num_vertices() + 1, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out.row[v + 1] = out.row[v] + g.out_degree(v);
    for (const VertexId w : g.out(v)) out.col.push_back(w);
  }
  return out;
}

/// Relabel an arbitrary component-id vector (SccResult::component from the
/// serial Tarjan) so component[v] = smallest vertex in v's component — the
/// normal form cyclic_verdict emits.
std::vector<std::uint32_t> canonical_scc_labels(
    const std::vector<std::uint32_t>& component) {
  std::uint32_t max_id = 0;
  for (const std::uint32_t c : component) max_id = std::max(max_id, c);
  std::vector<std::uint32_t> first(component.empty() ? 0 : max_id + 1, kNone);
  for (std::uint32_t v = 0; v < component.size(); ++v)
    if (first[component[v]] == kNone) first[component[v]] = v;
  std::vector<std::uint32_t> out(component.size());
  for (std::uint32_t v = 0; v < component.size(); ++v)
    out[v] = first[component[v]];
  return out;
}

/// `g` with random `to_inv` bits at a per-graph density. On about half the
/// graphs every vertex without out-arcs also steps into I, so DAGs where
/// every vertex reaches I are as common as DAGs with a deadlock.
NotInvariantGraph with_random_to_inv(const Digraph& g, std::mt19937& rng) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double share = 0.25 + 0.75 * coin(rng);
  const bool sinks_exit = coin(rng) < 0.5;
  NotInvariantGraph out{to_csr(g), PackedBitset(g.num_vertices())};
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (coin(rng) < share || (sinks_exit && g.out_degree(v) == 0))
      out.to_inv.set(v);
  return out;
}

/// Every vertex reaches I, by backward BFS from the vertices that step
/// into I over the reversed arcs of `g`.
bool bfs_all_reach_invariant(const Digraph& g, const PackedBitset& to_inv) {
  std::vector<std::vector<VertexId>> pred(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (const VertexId w : g.out(v)) pred[w].push_back(v);
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> queue;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (to_inv.test(v)) {
      seen[v] = true;
      queue.push_back(v);
    }
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (const VertexId u : pred[queue[head]])
      if (!seen[u]) {
        seen[u] = true;
        queue.push_back(u);
      }
  return queue.size() == g.num_vertices();
}

/// Longest path into I by relaxation: on a DAG, |V| + 1 rounds of
/// d(v) = max(1 if v steps into I, 1 + d(w) for every arc v -> w) from
/// d = 0 reach the fixpoint.
std::size_t brute_force_depth(const Digraph& g, const PackedBitset& to_inv) {
  std::vector<std::size_t> d(g.num_vertices(), 0);
  for (std::size_t round = 0; round <= g.num_vertices(); ++round) {
    std::vector<std::size_t> next(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      next[v] = to_inv.test(v) ? 1 : 0;
      for (const VertexId w : g.out(v)) next[v] = std::max(next[v], 1 + d[w]);
    }
    d = std::move(next);
  }
  return d.empty() ? 0 : *std::max_element(d.begin(), d.end());
}

/// cyclic_verdict's labels, component count and on-cycle bits must equal
/// the canonicalized graph/scc.hpp Tarjan, and its reach verdict the
/// backward BFS. acyclic_verdict must be nullopt exactly when that Tarjan
/// finds a vertex on a cycle (a self-loop included); when it finishes, its
/// reach verdict must equal the BFS and its depth the brute-force longest
/// path.
void cross_validate(const Digraph& g, const NotInvariantGraph& ni) {
  const SccResult serial = strongly_connected_components(g);
  const bool reaches = bfs_all_reach_invariant(g, ni.to_inv);
  const CyclicVerdict tarjan = cyclic_verdict(ni);
  ASSERT_EQ(tarjan.scc.component, canonical_scc_labels(serial.component));
  ASSERT_EQ(tarjan.scc.num_components, serial.num_components);
  ASSERT_EQ(tarjan.reaches_invariant, reaches);
  bool cyclic = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(tarjan.scc.on_cycle(v), on_cycle(g, serial, v)) << "vertex " << v;
    cyclic = cyclic || on_cycle(g, serial, v);
  }
  const auto pass = acyclic_verdict(ni);
  ASSERT_EQ(pass.has_value(), !cyclic) << g.num_vertices() << " vertices";
  if (!pass) return;
  ASSERT_EQ(pass->reaches_invariant, reaches);
  ASSERT_EQ(pass->recovery_steps, brute_force_depth(g, ni.to_inv));
}

void cross_validate(const Digraph& g) {
  cross_validate(g,
                 NotInvariantGraph{to_csr(g), PackedBitset(g.num_vertices())});
}

TEST(ParallelScc, EmptyGraph) {
  const NotInvariantGraph g;  // zero ranks
  const CyclicVerdict r = cyclic_verdict(g);
  EXPECT_EQ(r.scc.num_components, 0u);
  EXPECT_TRUE(r.scc.component.empty());
  EXPECT_TRUE(r.reaches_invariant);
}

TEST(ParallelScc, SingletonAndSelfLoop) {
  Digraph g(2);
  g.add_arc(1, 1);
  cross_validate(g);
  const SccLabels r = cyclic_verdict({to_csr(g), PackedBitset(2)}).scc;
  EXPECT_FALSE(r.on_cycle(0));
  EXPECT_TRUE(r.on_cycle(1));
  EXPECT_TRUE(r.self_loop.test(1));
  EXPECT_FALSE(r.nontrivial.test(1));  // its SCC is still {1}
}

TEST(ParallelScc, ChainIsAllSingletons) {
  Digraph g(64);
  for (VertexId v = 0; v + 1 < 64; ++v) g.add_arc(v, v + 1);
  cross_validate(g);
  NotInvariantGraph ni{to_csr(g), PackedBitset(64)};
  ni.to_inv.set(63);  // the tail steps into I, so every rank reaches it
  const CyclicVerdict r = cyclic_verdict(ni);
  EXPECT_EQ(r.scc.num_components, 64u);
  for (VertexId v = 0; v < 64; ++v) EXPECT_FALSE(r.scc.on_cycle(v));
  EXPECT_TRUE(r.reaches_invariant);
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
  NotInvariantGraph ni{to_csr(g), PackedBitset(7)};
  ni.to_inv.set(6);
  ni.to_inv.set(4);
  const CyclicVerdict r = cyclic_verdict(ni);
  EXPECT_EQ(r.scc.component[0], r.scc.component[1]);
  EXPECT_EQ(r.scc.component[0], 0u);  // labeled by smallest member
  EXPECT_EQ(r.scc.component[5], 5u);
  EXPECT_NE(r.scc.component[0], r.scc.component[5]);
  // {0,1,2} reaches I only over the bridge into {5,6}, and 3 through 4.
  EXPECT_TRUE(r.reaches_invariant);
  ni.to_inv.reset(6);  // {5,6}, and with it {0,1,2}, lose their way into I
  EXPECT_FALSE(cyclic_verdict(ni).reaches_invariant);
  const auto cyc = extract_component_cycle(ni.csr, r.scc, 0);
  ASSERT_EQ(cyc.size(), 3u);
  EXPECT_EQ(cyc[0], 0u);
}

TEST(ParallelScc, RandomDigraphsMatchSerialTarjan) {
  std::mt19937 rng(20260809);
  std::mt19937 dag_rng(20261017);  // DAGs and to_inv bits
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng() % 120;
    Digraph g(n);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    const double density = 0.5 + 3.0 * coin(rng);  // avg out-degree
    const double p = std::min(1.0, density / static_cast<double>(n));
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v = 0; v < n; ++v)
        if (coin(rng) < p) g.add_arc(u, v);  // self-loops included
    cross_validate(g, with_random_to_inv(g, dag_rng));

    // A random DAG of the same size and density: arcs only go up a random
    // vertex order, so ascending roots meet them in any order.
    std::vector<VertexId> order(n);
    for (VertexId v = 0; v < n; ++v) order[v] = v;
    std::shuffle(order.begin(), order.end(), dag_rng);
    Digraph dag(n);
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v = 0; v < n; ++v)
        if (order[u] < order[v] && coin(dag_rng) < 2 * p) dag.add_arc(u, v);
    cross_validate(dag, with_random_to_inv(dag, dag_rng));
  }
}

TEST(AcyclicVerdict, SelfLoopIsACycle) {
  Digraph g(1);
  g.add_arc(0, 0);
  NotInvariantGraph ni{to_csr(g), PackedBitset(1)};
  ni.to_inv.set(0);  // an exit into I does not break the cycle
  EXPECT_FALSE(acyclic_verdict(ni).has_value());
}

/// Rank r steps to r + 1 for every r < n - 1; `wrap` adds n - 1 -> 0.
NotInvariantGraph long_path(std::uint32_t n, bool wrap) {
  NotInvariantGraph ni{CsrGraph{}, PackedBitset(n)};
  ni.csr.row.resize(n + 1);
  for (std::uint32_t r = 0; r <= n; ++r) ni.csr.row[r] = r;
  if (!wrap) ni.csr.row[n] = n - 1;
  ni.csr.col.resize(ni.csr.row[n]);
  for (std::uint32_t r = 0; r < ni.csr.col.size(); ++r)
    ni.csr.col[r] = (r + 1) % n;
  return ni;
}

TEST(AcyclicVerdict, LongChainNeedsNoCallStack) {
  // The last rank steps into I: 2^20 frames deep, far past what a
  // recursive DFS survives on a default thread stack.
  const std::uint32_t n = 1u << 20;
  NotInvariantGraph ni = long_path(n, /*wrap=*/false);
  ni.to_inv.set(n - 1);
  const auto pass = acyclic_verdict(ni);
  ASSERT_TRUE(pass.has_value());
  EXPECT_TRUE(pass->reaches_invariant);
  EXPECT_EQ(pass->recovery_steps, n);
}

TEST(CyclicVerdict, LongCycleNeedsNoCallStack) {
  // One 2^20-rank cycle: a single component, every rank labeled 0, that
  // reaches I exactly when some rank steps into I.
  const std::uint32_t n = 1u << 20;
  NotInvariantGraph ni = long_path(n, /*wrap=*/true);
  EXPECT_FALSE(acyclic_verdict(ni).has_value());
  const CyclicVerdict closed = cyclic_verdict(ni);
  EXPECT_EQ(closed.scc.num_components, 1u);
  EXPECT_EQ(std::count(closed.scc.component.begin(),
                       closed.scc.component.end(), 0u),
            static_cast<std::ptrdiff_t>(n));
  EXPECT_TRUE(closed.scc.nontrivial.all());
  EXPECT_FALSE(closed.reaches_invariant);
  ni.to_inv.set(n / 2);
  EXPECT_TRUE(cyclic_verdict(ni).reaches_invariant);
}

TEST(ParallelScc, LargeRandomDigraphGiantScc) {
  // Avg out-degree 2 over 20k vertices leaves one giant SCC plus a fringe
  // of small components that lead into it; one vertex steps into I.
  std::mt19937 rng(7);
  const std::size_t n = 20000;
  Digraph g(n);
  for (VertexId u = 0; u < n; ++u)
    for (int e = 0; e < 2; ++e)
      g.add_arc(u, static_cast<VertexId>(rng() % n));
  NotInvariantGraph ni{to_csr(g), PackedBitset(n)};
  ni.to_inv.set(rng() % n);
  cross_validate(g, ni);
}

TEST(ParallelScc, WitnessCycleIsClosedAndInComponent) {
  std::mt19937 rng(99);
  const std::size_t n = 400;
  Digraph g(n);
  for (VertexId u = 0; u < n; ++u)
    for (int e = 0; e < 3; ++e) g.add_arc(u, static_cast<VertexId>(rng() % n));
  const NotInvariantGraph ni{to_csr(g), PackedBitset(n)};
  const CsrGraph& csr = ni.csr;
  const SccLabels r = cyclic_verdict(ni).scc;
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

/// The symmetry quotient's livelock pass rides the same Tarjan pass; its
/// lifted witness must be thread-count-invariant across the zoo and agree
/// with the full-space engine on the verdict.
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
