#include "synthesis/candidates.hpp"

#include <algorithm>

#include "graph/feedback.hpp"
#include "local/rcg.hpp"

namespace ringstab {

std::vector<std::vector<LocalStateId>> enumerate_resolve_sets(
    const Protocol& p, std::size_t max_sets) {
  const Digraph g = deadlock_rcg(p);
  std::vector<bool> marked(p.num_states(), false);
  for (LocalStateId s : p.illegitimate_deadlocks()) marked[s] = true;
  auto sets = minimal_feedback_sets(g, marked, max_sets);
  std::vector<std::vector<LocalStateId>> out;
  out.reserve(sets.size());
  for (auto& s : sets) out.emplace_back(s.begin(), s.end());
  return out;
}

std::vector<LocalTransition> candidate_transitions(const Protocol& p,
                                                   LocalStateId s) {
  const auto& space = p.space();
  std::vector<LocalTransition> out;
  for (Value v = 0; v < space.domain().size(); ++v) {
    if (v == space.self(s)) continue;
    const LocalStateId target = space.with_self(s, v);
    // Writing into a state the input protocol already fires from would be
    // rewritten away by the self-disabling transformation anyway — skip the
    // redundant candidate. Targets inside the Resolve set stay in the
    // stream: combinations that chain resolved states into a t-arc cycle
    // (an Assumption 1 violation) are the static lane's job to discard
    // (RS002, StaticRejectionLane), not the enumerator's.
    if (p.is_enabled(target)) continue;
    out.push_back({s, target});
  }
  return out;
}

std::vector<std::vector<LocalTransition>> enumerate_candidate_sets(
    const Protocol& p, const std::vector<LocalStateId>& resolve,
    std::size_t max_sets) {
  std::vector<std::vector<LocalTransition>> per_state;
  per_state.reserve(resolve.size());
  for (LocalStateId s : resolve) {
    auto cands = candidate_transitions(p, s);
    if (cands.empty()) return {};  // this Resolve set cannot be realized
    per_state.push_back(std::move(cands));
  }

  std::vector<std::vector<LocalTransition>> out;
  if (per_state.empty()) {
    out.push_back({});  // already deadlock-free: the empty addition
    return out;
  }
  std::vector<std::size_t> pick(per_state.size(), 0);
  while (out.size() < max_sets) {
    std::vector<LocalTransition> set;
    set.reserve(per_state.size());
    for (std::size_t i = 0; i < per_state.size(); ++i)
      set.push_back(per_state[i][pick[i]]);
    out.push_back(std::move(set));
    std::size_t i = 0;
    for (; i < per_state.size(); ++i) {
      if (++pick[i] < per_state[i].size()) break;
      pick[i] = 0;
    }
    if (i == per_state.size()) break;
  }
  return out;
}

}  // namespace ringstab
