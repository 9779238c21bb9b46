// Cycle search and enumeration.
#pragma once

#include <cstdint>
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

/// The working storage of fewest_marked_cycle_through, for a caller that
/// probes one graph many times: a vertex counts as reached when its stamp
/// equals the probe's generation, so a probe clears nothing and costs only
/// the region it explores.
struct CycleSearchBuffers {
  std::vector<VertexId> parent;
  std::vector<std::uint32_t> stamp;
  std::uint32_t generation = 0;
  std::vector<VertexId> layer, next;
};

/// A simple cycle through `v` inside `keep` with the fewest vertices where
/// `marked` holds, written to `cycle` rotated to start at v. Returns that
/// marked count when it is below `bound`; otherwise returns `bound` (as it
/// does when v is not kept or lies on no such cycle) and leaves `cycle`
/// unspecified. A 0-1 BFS: it stops once no cycle can count below `bound`.
std::size_t fewest_marked_cycle_through(const Digraph& g, VertexId v,
                                        const std::vector<bool>& keep,
                                        const std::vector<bool>& marked,
                                        std::size_t bound,
                                        CycleSearchBuffers& buffers,
                                        Cycle& cycle);

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
