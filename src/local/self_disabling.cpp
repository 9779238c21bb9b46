#include "local/self_disabling.hpp"

#include <algorithm>

#include "core/fmt.hpp"
#include "graph/scc.hpp"

namespace ringstab {

Digraph t_arc_graph(const Protocol& p) {
  Digraph g(p.num_states());
  for (const auto& t : p.delta()) g.add_arc(t.from, t.to);
  return g;
}

bool is_self_disabling(const Protocol& p) {
  return std::all_of(p.delta().begin(), p.delta().end(),
                     [&](const LocalTransition& t) {
                       return p.is_deadlock(t.to);
                     });
}

bool is_self_terminating(const Protocol& p) {
  const Digraph g = t_arc_graph(p);
  std::vector<bool> all(p.num_states(), true);
  return !any_marked_on_cycle(g, all);
}

Protocol make_self_disabling(const Protocol& p) {
  if (!is_self_terminating(p))
    throw ModelError(cat("protocol '", p.name(),
                         "' violates Assumption 1 (a cycle of local "
                         "transitions exists); the self-disabling transform "
                         "is undefined"));
  if (is_self_disabling(p)) return p;

  // terminal[s] = the set of local deadlocks reachable from s via t-arcs
  // (s itself if s is a deadlock). Memoized DFS over the acyclic t-graph.
  std::vector<std::vector<LocalStateId>> terminal(p.num_states());
  std::vector<bool> done(p.num_states(), false);

  auto compute = [&](auto&& self, LocalStateId s) -> void {
    if (done[s]) return;
    done[s] = true;
    if (p.is_deadlock(s)) {
      terminal[s] = {s};
      return;
    }
    std::vector<LocalStateId> acc;
    for (const auto& t : p.transitions_from(s)) {
      self(self, t.to);
      acc.insert(acc.end(), terminal[t.to].begin(), terminal[t.to].end());
    }
    std::sort(acc.begin(), acc.end());
    acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
    terminal[s] = std::move(acc);
  };

  std::vector<LocalTransition> delta;
  for (const auto& t : p.delta()) {
    compute(compute, t.to);
    for (LocalStateId w : terminal[t.to]) {
      RINGSTAB_ASSERT(w != t.from, "terminal state equals enabled source");
      delta.push_back({t.from, w});
    }
  }
  return p.with_delta(p.name() + "_sd", std::move(delta));
}

}  // namespace ringstab
