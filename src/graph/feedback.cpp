#include "graph/feedback.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <string_view>

#include "core/fmt.hpp"
#include "graph/cycles.hpp"
#include "graph/scc.hpp"
#include "obs/obs.hpp"

namespace ringstab {
namespace {

constexpr std::size_t kSearchCap = 100000;

/// A vertex set as its ascending vertex list.
using VertexSet = std::vector<VertexId>;

/// The removal sets the search has entered, as vertex lists packed in one
/// arena: open addressing over entry numbers, so entering a set allocates
/// only when the arena or the table grows, and an entry costs its size, not
/// the graph's.
class RemovalMemo {
 public:
  /// Enters `set`; false if it was entered before.
  bool insert(const VertexSet& set) {
    if (2 * (size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(set) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == kEmpty) {
        slots_[i] = static_cast<std::uint32_t>(size());
        arena_.insert(arena_.end(), set.begin(), set.end());
        start_.push_back(arena_.size());
        return true;
      }
      if (std::ranges::equal(set, entry(slots_[i]))) return false;
    }
  }

  std::size_t size() const { return start_.size() - 1; }

  /// The set entered `k`-th.
  std::span<const VertexId> entry(std::size_t k) const {
    return {arena_.data() + start_[k], arena_.data() + start_[k + 1]};
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  static std::size_t hash(std::span<const VertexId> set) {
    return std::hash<std::string_view>{}(
        std::string_view(reinterpret_cast<const char*>(set.data()),
                         set.size_bytes()));
  }

  void grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t k = 0; k < size(); ++k) {
      std::size_t i = hash(entry(k)) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = static_cast<std::uint32_t>(k);
    }
  }

  std::vector<VertexId> arena_;
  std::vector<std::size_t> start_{0};  // entry k: [start_[k], start_[k + 1])
  std::vector<std::uint32_t> slots_;
};

/// Branch on the marked vertices of one bad cycle per node: removing any
/// one of them is a choice, and a node without a bad cycle records its
/// removal set as a feedback set.
class Search {
 public:
  Search(const Digraph& g, const std::vector<bool>& marked)
      : g_(g), marked_(marked), keep_(g.num_vertices()) {
    // A cycle through v stays inside v's SCC, and a probe finds the same
    // cycle when it is confined to any vertex set holding that SCC: what it
    // reaches outside never leads back to v. So one Tarjan pass confines
    // every probe to the cyclic SCCs of g that hold a marked vertex, and the
    // marked vertices on no cycle of g are never probed.
    const SccResult scc = strongly_connected_components(g);
    std::vector<bool> probed(scc.num_components, false);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!marked[v] || !on_cycle(g, scc, v)) continue;
      probed[scc.component[v]] = true;
      roots_.push_back(v);
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      keep_[v] = probed[scc.component[v]];
  }

  std::vector<VertexSet> run(std::size_t max_sets) {
    branch();
    obs::counter("feedback.search_nodes").add(memo_.size());
    return minimal(max_sets);
  }

 private:
  /// `first`: the roots before it are removed or lie on no cycle of the
  /// graph without the removed vertices. Removing more keeps it so, so a
  /// child resumes there.
  void branch(std::size_t first = 0) {
    // The subtree below depends only on the removal *set*, not the order
    // the vertices were chosen in — prune revisits or the walk degenerates
    // to one branch per permutation (factorial blowup; matching's size-12
    // Resolve sets took ~25 s unpruned).
    if (!memo_.insert(removed_)) return;
    if (cycles_.size() == removed_.size()) cycles_.emplace_back();
    Cycle& cycle = cycles_[removed_.size()];
    if (!bad_cycle(first, cycle)) {
      if (found_.size() == kSearchCap)
        throw CapacityError(cat(
            "feedback-set search: more than ", kSearchCap,
            " feedback sets; the minimal ones cannot be told from a partial "
            "list"));
      found_.push_back(memo_.size() - 1);
      return;
    }
    // Every feedback set removes a marked vertex of this cycle, so the
    // branches reach every minimal one, whichever bad cycle is chosen.
    for (const VertexId v : cycle) {
      if (!marked_[v]) continue;
      keep_[v] = false;
      removed_.insert(std::upper_bound(removed_.begin(), removed_.end(), v),
                      v);
      branch(first);
      removed_.erase(std::lower_bound(removed_.begin(), removed_.end(), v));
      keep_[v] = true;
    }
  }

  /// Of the bad cycles through the live roots from `first` on, one with the
  /// fewest marked vertices, so the node branches as little as it can: the
  /// least root's wins a tie, and the scan stops at a cycle with one.
  /// `first` moves past the leading roots that are removed or on no cycle.
  bool bad_cycle(std::size_t& first, Cycle& cycle) {
    const std::size_t none = g_.num_vertices() + 1;
    std::size_t best = none;
    for (std::size_t i = first; i < roots_.size() && best > 1; ++i) {
      const std::size_t count = fewest_marked_cycle_through(
          g_, roots_[i], keep_, marked_, best, buffers_, probe_);
      if (count < best) {
        best = count;
        cycle.swap(probe_);
      } else if (best == none) {
        first = i + 1;
      }
    }
    return best != none;
  }

  /// The inclusion-minimal feedback sets, sorted by (size, lexicographic),
  /// the first `max_sets` of them.
  std::vector<VertexSet> minimal(std::size_t max_sets) {
    std::vector<std::span<const VertexId>> sets;
    sets.reserve(found_.size());
    for (const std::size_t k : found_) sets.push_back(memo_.entry(k));
    std::sort(sets.begin(), sets.end(), [](const auto& a, const auto& b) {
      if (a.size() != b.size()) return a.size() < b.size();
      return std::ranges::lexicographical_compare(a, b);
    });
    // Every strict subset of a set sorts before it, and it contains a
    // minimal one, so testing against the minimal sets kept so far suffices.
    std::vector<VertexSet> kept;
    for (const auto& s : sets) {
      if (kept.size() == max_sets) break;
      const bool has_subset =
          std::any_of(kept.begin(), kept.end(), [&](const VertexSet& m) {
            return std::includes(s.begin(), s.end(), m.begin(), m.end());
          });
      if (!has_subset) kept.emplace_back(s.begin(), s.end());
    }
    return kept;
  }

  const Digraph& g_;
  const std::vector<bool>& marked_;
  std::vector<VertexId> roots_;  // marked vertices on a cycle of g, ascending
  std::vector<bool> keep_;       // probed SCCs minus the removed vertices
  VertexSet removed_;
  RemovalMemo memo_;
  std::deque<Cycle> cycles_;     // the bad cycle of each open node, by depth
  Cycle probe_;                  // a root's cycle, until it beats the best
  CycleSearchBuffers buffers_;
  std::vector<std::size_t> found_;  // the feedback sets, as memo entries
};

}  // namespace

std::vector<std::vector<VertexId>> minimal_feedback_sets(
    const Digraph& g, const std::vector<bool>& marked, std::size_t max_sets) {
  RINGSTAB_ASSERT(marked.size() == g.num_vertices(), "mask size mismatch");
  return Search(g, marked).run(max_sets);
}

}  // namespace ringstab
