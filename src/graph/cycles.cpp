#include "graph/cycles.hpp"

#include <algorithm>

#include "graph/scc.hpp"

namespace ringstab {
namespace {

/// A run walks at most max(max_cycles, this) cycles, kept or not, so a
/// graph whose cycles mostly avoid the marked vertices cannot stall
/// simple_cycles_through.
constexpr std::size_t kMaxWalkedCycles = 100'000;

// Johnson's simple-cycle enumeration, recursion bounded by vertex count.
// With `marked`, only cycles through a marked vertex are kept, and only
// they count toward `max_cycles`.
class Johnson {
 public:
  Johnson(const Digraph& g, const std::vector<bool>* marked,
          std::size_t max_cycles)
      : g_(g),
        marked_(marked),
        max_cycles_(max_cycles),
        max_walked_(std::max(max_cycles, kMaxWalkedCycles)) {}

  std::vector<Cycle> run() {
    const std::size_t n = g_.num_vertices();
    blocked_.assign(n, false);
    block_list_.assign(n, {});
    // A cycle whose least vertex is s lies in s's SCC, above s. With
    // `marked`, s starts no kept cycle unless that SCC holds a marked vertex
    // at or above s, so such starts are skipped: they would only spend the
    // walk budget on cycles nobody keeps.
    SccResult scc;
    std::vector<VertexId> marked_end;  // per SCC: its largest marked vertex + 1
    if (marked_ != nullptr) {
      scc = strongly_connected_components(g_);
      marked_end.assign(scc.num_components, 0);
      for (VertexId v = 0; v < n; ++v)
        if ((*marked_)[v]) marked_end[scc.component[v]] = v + 1;
    }
    for (VertexId s = 0; s < n && !done(); ++s) {
      if (marked_ != nullptr && marked_end[scc.component[s]] <= s) continue;
      start_ = s;
      std::fill(blocked_.begin(), blocked_.end(), false);
      for (auto& b : block_list_) b.clear();
      circuit(s);
    }
    std::sort(cycles_.begin(), cycles_.end(),
              [](const Cycle& a, const Cycle& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
    return std::move(cycles_);
  }

 private:
  bool circuit(VertexId v) {
    bool found = false;
    path_.push_back(v);
    blocked_[v] = true;
    for (VertexId w : g_.out(v)) {
      if (w < start_) continue;  // canonical: cycles start at min vertex
      if (w == start_) {
        ++walked_;
        if (through_marked()) cycles_.push_back(path_);
        found = true;
      } else if (!blocked_[w]) {
        if (circuit(w)) found = true;
      }
      if (done()) break;
    }
    if (found) {
      unblock(v);
    } else {
      for (VertexId w : g_.out(v)) {
        if (w < start_) continue;
        auto& bl = block_list_[w];
        if (std::find(bl.begin(), bl.end(), v) == bl.end()) bl.push_back(v);
      }
    }
    path_.pop_back();
    return found;
  }

  bool done() const {
    return cycles_.size() >= max_cycles_ || walked_ >= max_walked_;
  }

  bool through_marked() const {
    return marked_ == nullptr ||
           std::any_of(path_.begin(), path_.end(),
                       [&](VertexId v) { return (*marked_)[v]; });
  }

  void unblock(VertexId v) {
    blocked_[v] = false;
    auto pending = std::move(block_list_[v]);
    block_list_[v].clear();
    for (VertexId w : pending)
      if (blocked_[w]) unblock(w);
  }

  const Digraph& g_;
  const std::vector<bool>* marked_;
  std::size_t max_cycles_;
  std::size_t max_walked_;
  std::size_t walked_ = 0;
  VertexId start_ = 0;
  std::vector<bool> blocked_;
  std::vector<std::vector<VertexId>> block_list_;
  std::vector<VertexId> path_;
  std::vector<Cycle> cycles_;
};

}  // namespace

// DFS from each successor of v back to v, avoiding revisits.
std::optional<Cycle> find_cycle_through(const Digraph& g, VertexId v,
                                        const std::vector<bool>* allowed) {
  auto ok = [&](VertexId u) { return allowed == nullptr || (*allowed)[u]; };
  if (!ok(v)) return std::nullopt;
  if (g.has_arc(v, v)) return Cycle{v};

  // parent[u] is read only once u is visited.
  std::vector<VertexId> parent(g.num_vertices());
  std::vector<bool> visited(g.num_vertices(), false);
  std::vector<VertexId> stack;
  for (VertexId w : g.out(v)) {
    if (!ok(w) || visited[w]) continue;
    visited[w] = true;
    parent[w] = v;
    stack.push_back(w);
  }
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (VertexId w : g.out(u)) {
      if (w == v) {
        Cycle cycle{v};
        for (VertexId x = u; x != v; x = parent[x]) cycle.push_back(x);
        std::reverse(cycle.begin() + 1, cycle.end());
        return cycle;
      }
      if (!ok(w) || visited[w]) continue;
      visited[w] = true;
      parent[w] = u;
      stack.push_back(w);
    }
  }
  return std::nullopt;
}

// Layer d holds the reached vertices whose path from v (v excluded) has d
// marked vertices. A vertex is reached first from a predecessor of the
// lowest layer, so its layer is final when it is reached, and the first
// popped vertex with an arc back to v closes a cycle of fewest marked
// vertices. Within a layer the walk is depth-first.
std::size_t fewest_marked_cycle_through(const Digraph& g, VertexId v,
                                        const std::vector<bool>& keep,
                                        const std::vector<bool>& marked,
                                        std::size_t bound,
                                        CycleSearchBuffers& buffers,
                                        Cycle& cycle) {
  const std::size_t self = marked[v] ? 1 : 0;
  if (!keep[v] || self >= bound) return bound;
  if (g.has_arc(v, v)) {
    cycle.assign(1, v);
    return self;
  }

  auto& [parent, stamp, generation, layer, next] = buffers;
  if (stamp.size() < g.num_vertices()) {
    stamp.resize(g.num_vertices(), 0);
    parent.resize(g.num_vertices());
  }
  if (++generation == 0) {  // wrapped: no stale stamp may match
    std::fill(stamp.begin(), stamp.end(), 0);
    generation = 1;
  }
  layer.clear();
  next.clear();
  stamp[v] = generation;
  auto reach = [&](VertexId w, VertexId from) {
    if (!keep[w] || stamp[w] == generation) return;
    stamp[w] = generation;
    parent[w] = from;
    (marked[w] ? next : layer).push_back(w);
  };
  for (VertexId w : g.out(v)) reach(w, v);
  for (std::size_t count = self; count < bound; ++count) {
    while (!layer.empty()) {
      const VertexId u = layer.back();
      layer.pop_back();
      for (VertexId w : g.out(u)) {
        if (w == v) {
          cycle.assign(1, v);
          for (VertexId x = u; x != v; x = parent[x]) cycle.push_back(x);
          std::reverse(cycle.begin() + 1, cycle.end());
          return count;
        }
        reach(w, u);
      }
    }
    if (next.empty()) break;
    layer.swap(next);
  }
  return bound;
}

std::vector<Cycle> simple_cycles(const Digraph& g, std::size_t max_cycles) {
  return Johnson(g, nullptr, max_cycles).run();
}

std::vector<Cycle> simple_cycles_through(const Digraph& g,
                                         const std::vector<bool>& marked,
                                         std::size_t max_cycles) {
  return Johnson(g, &marked, max_cycles).run();
}

}  // namespace ringstab
