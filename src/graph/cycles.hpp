// Cycle search and enumeration.
#pragma once

#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace ringstab {

/// A simple cycle listed as its vertex sequence v0, v1, ..., v_{m-1} with
/// arcs v_i → v_{i+1 mod m}. A self-loop is the length-1 cycle {v}.
using Cycle = std::vector<VertexId>;

/// Find some simple cycle through `v`, optionally restricted to vertices
/// where `allowed` holds (v itself must be allowed). Returns the cycle
/// rotated to start at v, or nullopt.
std::optional<Cycle> find_cycle_through(const Digraph& g, VertexId v,
                                        const std::vector<bool>* allowed =
                                            nullptr);

/// The working storage of find_cycle_through, for a caller that searches
/// one graph many times and should not allocate per search.
struct CycleSearchBuffers {
  std::vector<VertexId> parent;
  std::vector<bool> visited;
  std::vector<VertexId> stack;
};

/// find_cycle_through working in `buffers`: the same cycle, written to
/// `cycle`; false (and `cycle` unspecified) if there is none.
bool find_cycle_through(const Digraph& g, VertexId v,
                        const std::vector<bool>* allowed,
                        CycleSearchBuffers& buffers, Cycle& cycle);

/// Enumerate simple cycles (Johnson's algorithm), capped at `max_cycles`.
/// Cycles are canonicalized to start at their smallest vertex and returned
/// sorted by (length, lexicographic).
std::vector<Cycle> simple_cycles(const Digraph& g,
                                 std::size_t max_cycles = 100000);

/// Cycles passing through at least one marked vertex: the first
/// `max_cycles` of them in simple_cycles' search order, returned like it.
/// The search walks at most max(max_cycles, 100,000) cycles in all, so on
/// a graph whose cycles mostly avoid the marked vertices the list can come
/// back short instead of stalling.
std::vector<Cycle> simple_cycles_through(const Digraph& g,
                                         const std::vector<bool>& marked,
                                         std::size_t max_cycles = 100000);

}  // namespace ringstab
