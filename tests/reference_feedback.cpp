// The reference Resolve-set searches (see helpers.hpp).
#include <algorithm>
#include <optional>
#include <set>

#include "core/fmt.hpp"
#include "graph/cycles.hpp"
#include "graph/scc.hpp"
#include "helpers.hpp"
#include "local/array.hpp"
#include "local/rcg.hpp"

namespace ringstab::testing {
namespace {

// Some cycle through a marked, non-removed vertex within the non-removed
// subgraph — or nullopt if none remains.
std::optional<Cycle> bad_cycle(const Digraph& g, const std::vector<bool>& marked,
                               const std::vector<bool>& removed) {
  std::vector<bool> keep(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) keep[v] = !removed[v];
  const Digraph sub = g.induced(keep);
  const SccResult scc = strongly_connected_components(sub);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!keep[v] || !marked[v]) continue;
    if (!on_cycle(sub, scc, v)) continue;
    auto c = find_cycle_through(sub, v);
    RINGSTAB_ASSERT(c.has_value(), "SCC says cycle exists but DFS found none");
    return c;
  }
  return std::nullopt;
}

class Enumerator {
 public:
  Enumerator(const Digraph& g, const std::vector<bool>& marked,
             const std::vector<bool>& candidates, std::size_t max_sets)
      : g_(g), marked_(marked), candidates_(candidates), max_sets_(max_sets) {}

  std::vector<std::vector<VertexId>> run() {
    std::vector<bool> removed(g_.num_vertices(), false);
    std::vector<VertexId> chosen;
    branch(removed, chosen);

    // Keep only inclusion-minimal sets.
    std::vector<std::vector<VertexId>> sets(found_.begin(), found_.end());
    std::vector<std::vector<VertexId>> minimal;
    for (const auto& s : sets) {
      const bool has_subset =
          std::any_of(sets.begin(), sets.end(), [&](const auto& t) {
            return t.size() < s.size() &&
                   std::includes(s.begin(), s.end(), t.begin(), t.end());
          });
      if (!has_subset) minimal.push_back(s);
    }
    std::sort(minimal.begin(), minimal.end(),
              [](const auto& a, const auto& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
    if (minimal.size() > max_sets_) minimal.resize(max_sets_);
    return minimal;
  }

 private:
  void branch(std::vector<bool>& removed, std::vector<VertexId>& chosen) {
    {
      auto key = chosen;
      std::sort(key.begin(), key.end());
      if (!visited_.insert(std::move(key)).second) return;
    }
    auto cycle = bad_cycle(g_, marked_, removed);
    if (!cycle) {
      auto s = chosen;
      std::sort(s.begin(), s.end());
      if (found_.size() == kSearchCap)
        throw CapacityError(cat("reference feedback-set search: more than ",
                                kSearchCap, " feedback sets"));
      found_.insert(std::move(s));
      return;
    }
    bool any = false;
    for (VertexId v : *cycle) {
      if (!candidates_[v]) continue;
      any = true;
      removed[v] = true;
      chosen.push_back(v);
      branch(removed, chosen);
      chosen.pop_back();
      removed[v] = false;
    }
    if (!any && chosen.empty())
      throw ModelError(
          cat("a cycle through a marked vertex contains no candidate vertex; "
              "no feedback set within the candidates exists (cycle length ",
              cycle->size(), ")"));
    // If !any deeper in the recursion the branch is simply infeasible.
  }

  static constexpr std::size_t kSearchCap = 100000;

  const Digraph& g_;
  const std::vector<bool>& marked_;
  const std::vector<bool>& candidates_;
  std::size_t max_sets_;
  std::set<std::vector<VertexId>> found_;
  std::set<std::vector<VertexId>> visited_;
};

// A bad walk: s_0 (left-boundary deadlock) → ... → s_m, all deadlocks not
// in `removed`, interior states ⊥-free, visiting some illegitimate state.
// Returns a shortest witness (BFS) or nullopt.
std::optional<std::vector<LocalStateId>> find_bad_walk(
    const Protocol& p, const Digraph& rcg, const std::vector<bool>& removed) {
  const Value bot = boundary_value(p);
  const auto& space = p.space();
  const int left = space.locality().left;

  auto is_start = [&](LocalStateId s) {
    // Feasible for position 0 of a long array: every negative offset ⊥,
    // the rest real.
    for (int off = -left; off <= 0; ++off)
      if ((space.value(s, off) == bot) != (off < 0)) return false;
    return true;
  };
  auto is_interior = [&](LocalStateId s) {
    for (int off = -left; off <= 0; ++off)
      if (space.value(s, off) == bot) return false;
    return true;
  };

  // BFS over (state), parents for witness reconstruction. Starts are
  // boundary-grade states for positions 0..left-1; to keep this simple (and
  // exact for left == 1, the supported case), we treat position-0 starts
  // and interior continuations.
  std::vector<LocalStateId> parent(p.num_states(), kInvalidLocalState);
  std::vector<bool> seen(p.num_states(), false);
  std::vector<LocalStateId> queue;
  for (LocalStateId s = 0; s < p.num_states(); ++s) {
    if (!p.is_deadlock(s) || removed[s] || !is_start(s)) continue;
    seen[s] = true;
    queue.push_back(s);
  }
  auto witness_from = [&](LocalStateId end) {
    std::vector<LocalStateId> walk{end};
    for (LocalStateId x = parent[end]; x != kInvalidLocalState;
         x = parent[x])
      walk.push_back(x);
    std::reverse(walk.begin(), walk.end());
    return walk;
  };
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const LocalStateId s = queue[head];
    if (!p.is_legit(s)) return witness_from(s);
    for (VertexId t : rcg.out(s)) {
      if (seen[t] || removed[t] || !p.is_deadlock(t) || !is_interior(t))
        continue;
      seen[t] = true;
      parent[t] = s;
      queue.push_back(t);
    }
  }
  return std::nullopt;
}

void enumerate_resolves(const Protocol& p, const Digraph& rcg,
                        std::vector<bool>& removed,
                        std::vector<LocalStateId>& chosen,
                        std::set<std::vector<LocalStateId>>& found,
                        std::size_t cap) {
  if (found.size() >= cap * 16) return;
  const auto walk = find_bad_walk(p, rcg, removed);
  if (!walk) {
    auto s = chosen;
    std::sort(s.begin(), s.end());
    found.insert(std::move(s));
    return;
  }
  bool any = false;
  for (LocalStateId v : *walk) {
    if (p.is_legit(v)) continue;  // only ¬LC states may be resolved
    any = true;
    removed[v] = true;
    chosen.push_back(v);
    enumerate_resolves(p, rcg, removed, chosen, found, cap);
    chosen.pop_back();
    removed[v] = false;
  }
  if (!any)
    throw ModelError(
        "a bad walk contains no illegitimate state to resolve (impossible: "
        "bad walks end at an illegitimate state)");
}

}  // namespace

std::vector<std::vector<VertexId>> reference_minimal_feedback_sets(
    const Digraph& g, const std::vector<bool>& marked,
    const std::vector<bool>& candidates, std::size_t max_sets) {
  RINGSTAB_ASSERT(marked.size() == g.num_vertices() &&
                      candidates.size() == g.num_vertices(),
                  "mask size mismatch");
  return Enumerator(g, marked, candidates, max_sets).run();
}

std::vector<std::vector<LocalStateId>> reference_array_resolve_sets(
    const Protocol& p, std::size_t max_sets) {
  const Digraph rcg = build_rcg(p.space());
  std::vector<bool> removed(p.num_states(), false);
  std::vector<LocalStateId> chosen;
  std::set<std::vector<LocalStateId>> found;
  enumerate_resolves(p, rcg, removed, chosen, found, max_sets);
  // Inclusion-minimal only.
  std::vector<std::vector<LocalStateId>> out;
  for (const auto& s : found) {
    const bool has_subset =
        std::any_of(found.begin(), found.end(), [&](const auto& t) {
          return t.size() < s.size() &&
                 std::includes(s.begin(), s.end(), t.begin(), t.end());
        });
    if (!has_subset) out.push_back(s);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  if (out.size() > max_sets) out.resize(max_sets);
  return out;
}

bool breaks_all_marked_cycles(const Digraph& g, const std::vector<bool>& marked,
                              const std::vector<VertexId>& removed_list) {
  std::vector<bool> removed(g.num_vertices(), false);
  for (VertexId v : removed_list) removed[v] = true;
  std::vector<bool> keep(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) keep[v] = !removed[v];
  const Digraph sub = g.induced(keep);
  std::vector<bool> marked_kept(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    marked_kept[v] = keep[v] && marked[v];
  return !any_marked_on_cycle(sub, marked_kept);
}

}  // namespace ringstab::testing
