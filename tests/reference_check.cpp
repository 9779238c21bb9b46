// The serial reference checker (see helpers.hpp).
#include <algorithm>
#include <deque>

#include "core/types.hpp"
#include "graph/scc.hpp"
#include "helpers.hpp"

namespace ringstab::testing {
namespace {

constexpr VertexId kNone = 0xffffffffu;

/// A cycle through `start` inside its SCC: BFS over the component's members
/// until an edge returns to `start`.
std::vector<GlobalStateId> cycle_through(const Digraph& g,
                                         const SccResult& scc,
                                         VertexId start) {
  if (g.has_arc(start, start)) return {start};
  std::vector<VertexId> parent(g.num_vertices(), kNone);
  std::deque<VertexId> queue{start};
  parent[start] = start;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const VertexId w : g.out(v)) {
      if (scc.component[w] != scc.component[start]) continue;
      if (w == start) {
        std::vector<GlobalStateId> cycle;
        for (VertexId x = v; x != start; x = parent[x]) cycle.push_back(x);
        cycle.push_back(start);
        std::reverse(cycle.begin(), cycle.end());
        return cycle;
      }
      if (parent[w] != kNone) continue;
      parent[w] = v;
      queue.push_back(w);
    }
  }
  throw ModelError("reference: on-cycle state without a cycle");
}

}  // namespace

ReferenceResult reference_check(const RingInstance& ring) {
  const GlobalStateId n = ring.num_states();
  ReferenceResult out;
  GlobalCheckResult& r = out.verdict;
  r.ring_size = ring.ring_size();
  r.num_states = n;

  std::vector<bool> in_inv(n);
  std::vector<std::vector<GlobalStateId>> succ(n);
  std::vector<RingInstance::Step> steps;
  for (GlobalStateId s = 0; s < n; ++s) {
    in_inv[s] = ring.in_invariant(s);
    ring.successors(s, steps);
    for (const auto& step : steps) succ[s].push_back(step.target);
  }

  for (GlobalStateId s = 0; s < n; ++s) {
    if (in_inv[s] || !ring.is_deadlock(s)) continue;
    ++r.num_deadlocks_outside_i;
    if (r.deadlock_samples.size() < 8) r.deadlock_samples.push_back(s);
  }

  for (GlobalStateId s = 0; s < n && r.closure_ok; ++s) {
    if (!in_inv[s]) continue;
    for (const GlobalStateId t : succ[s])
      if (!in_inv[t]) {
        r.closure_ok = false;
        r.closure_violation = {s, t};
        break;
      }
  }

  // Livelocks: the ¬I subgraph over global ids (I-states stay isolated).
  Digraph g(n);
  for (GlobalStateId s = 0; s < n; ++s) {
    if (in_inv[s]) continue;
    for (const GlobalStateId t : succ[s])
      if (!in_inv[t])
        g.add_arc(static_cast<VertexId>(s), static_cast<VertexId>(t));
  }
  const SccResult scc = strongly_connected_components(g);
  for (GlobalStateId s = 0; s < n; ++s)
    if (on_cycle(g, scc, static_cast<VertexId>(s)))
      out.livelock_states.push_back(s);
  r.has_livelock = !out.livelock_states.empty();
  if (r.has_livelock)
    r.livelock_cycle = cycle_through(
        g, scc, static_cast<VertexId>(out.livelock_states.front()));

  // Weak convergence: backward BFS from I over the full graph.
  std::vector<std::vector<GlobalStateId>> pred(n);
  for (GlobalStateId s = 0; s < n; ++s)
    for (const GlobalStateId t : succ[s]) pred[t].push_back(s);
  std::vector<bool> reaches = in_inv;
  std::deque<GlobalStateId> queue;
  for (GlobalStateId s = 0; s < n; ++s)
    if (in_inv[s]) queue.push_back(s);
  while (!queue.empty()) {
    const GlobalStateId t = queue.front();
    queue.pop_front();
    for (const GlobalStateId s : pred[t])
      if (!reaches[s]) {
        reaches[s] = true;
        queue.push_back(s);
      }
  }
  r.weakly_converges =
      std::find(reaches.begin(), reaches.end(), false) == reaches.end();

  // Recovery: longest path into I, by memoized DFS over the acyclic,
  // deadlock-free ¬I graph.
  if (r.strongly_converges()) {
    std::vector<std::size_t> depth(n, 0);
    std::vector<bool> known = in_inv;
    auto longest = [&](auto&& self, GlobalStateId s) -> std::size_t {
      if (known[s]) return depth[s];
      for (const GlobalStateId t : succ[s])
        depth[s] = std::max(depth[s], 1 + self(self, t));
      known[s] = true;
      return depth[s];
    };
    for (GlobalStateId s = 0; s < n; ++s)
      r.max_recovery_steps =
          std::max(r.max_recovery_steps, longest(longest, s));
  }
  return out;
}

}  // namespace ringstab::testing
