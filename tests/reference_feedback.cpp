// The reference Resolve-set search (see helpers.hpp).
#include <algorithm>
#include <set>

#include "core/fmt.hpp"
#include "graph/cycles.hpp"
#include "graph/scc.hpp"
#include "helpers.hpp"

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

}  // namespace

std::vector<std::vector<VertexId>> reference_minimal_feedback_sets(
    const Digraph& g, const std::vector<bool>& marked,
    const std::vector<bool>& candidates, std::size_t max_sets) {
  RINGSTAB_ASSERT(marked.size() == g.num_vertices() &&
                      candidates.size() == g.num_vertices(),
                  "mask size mismatch");
  return Enumerator(g, marked, candidates, max_sets).run();
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
