// Parallel strongly-connected components over compact CSR digraphs.
//
// The scheme is forward–backward reachability coloring (FB/FWBW) with trim
// preprocessing:
//  * trim peels vertices that cannot lie on a cycle (no live predecessor or
//    no live successor) via a Kahn-style worklist — O(V+E) total; the
//    global checker sends only ¬I graphs with a cycle here (acyclic ones
//    are decided by acyclic_verdict in global/checker.hpp);
//  * each surviving region picks its smallest vertex as pivot and computes
//    the forward set F and backward set B by level-synchronous BFS — the
//    memory-bound part, parallelized over the shared jthread pool — so
//    F ∩ B is one SCC and F \ SCC, B \ SCC, rest recurse independently;
//  * regions at or below a small threshold fall back to serial iterative
//    Tarjan (same partition, no sweep overhead).
//
// The output is canonical and therefore bit-identical for every thread
// count and schedule: component[v] is the smallest vertex id in v's SCC, a
// pure function of the graph. This makes the engine verdict- and
// witness-compatible with the serial `strongly_connected_components`
// (graph/scc.hpp): the partitions agree after canonical relabeling, and
// cycle extraction below is deterministic given the CSR edge order.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/bitset.hpp"

namespace ringstab {

/// Compact forward CSR over vertices [0, n): the out-edges of v are
/// col[row[v]], …, col[row[v]+1]-1] in a caller-chosen deterministic order.
struct CsrGraph {
  std::vector<std::uint64_t> row;  // size n + 1; row[0] == 0
  std::vector<std::uint32_t> col;

  std::uint32_t num_vertices() const {
    return row.empty() ? 0 : static_cast<std::uint32_t>(row.size() - 1);
  }
  std::uint64_t num_edges() const { return col.size(); }
};

/// The canonical SCC partition. Unlike SccResult (Tarjan's reverse
/// topological numbering), components are labeled by their smallest member,
/// which is algorithm- and thread-count-independent.
struct ParallelSccResult {
  /// component[v] = smallest vertex id in v's SCC.
  std::vector<std::uint32_t> component;
  /// v's SCC has >= 2 vertices.
  PackedBitset nontrivial;
  /// v has an edge v -> v (a one-vertex cycle; its SCC is still {v}).
  PackedBitset self_loop;
  std::uint64_t num_components = 0;

  /// v lies on some directed cycle.
  bool on_cycle(std::uint32_t v) const {
    return nontrivial.test(v) || self_loop.test(v);
  }
};

/// FB/FWBW SCC decomposition of `g`. `num_threads <= 1` runs every sweep
/// inline on the caller; the result is identical either way.
ParallelSccResult parallel_scc(const CsrGraph& g, std::size_t num_threads);

/// Relabel an arbitrary component-id vector (e.g. SccResult::component from
/// the serial Tarjan) so component[v] = smallest vertex in v's component —
/// the normal form parallel_scc emits, for cross-validation.
std::vector<std::uint32_t> canonical_scc_labels(
    const std::vector<std::uint32_t>& component);

/// A deterministic simple cycle through `start`, restricted to start's SCC:
/// {start} if start has a self-loop, else the first DFS path (CSR edge
/// order) from start back to itself through component members. `start` must
/// lie on a cycle.
std::vector<std::uint32_t> extract_component_cycle(
    const CsrGraph& g, const ParallelSccResult& scc, std::uint32_t start);

}  // namespace ringstab
