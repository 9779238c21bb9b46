// Minimal feedback vertex sets within the marked vertices.
#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace ringstab {

/// Enumerate minimal sets S of marked vertices such that deleting S from `g`
/// leaves no directed cycle through any marked vertex. (This is the paper's
/// `Resolve` computation: marked = illegitimate local deadlocks, the ¬LC_r
/// deadlocks synthesis may resolve.) Such a set always exists: all the
/// marked vertices on cycles.
///
/// A branching search: each node branches on the marked vertices of a bad
/// cycle with the fewest of them. Results are deduplicated,
/// inclusion-minimal, sorted by (size, lexicographic), and capped at
/// `max_sets` (the cap applies after minimization of discovered sets).
/// Throws CapacityError if the search finds more than 100,000 feedback
/// sets, minimal or not: the minimal ones cannot be told from a partial
/// list.
std::vector<std::vector<VertexId>> minimal_feedback_sets(
    const Digraph& g, const std::vector<bool>& marked,
    std::size_t max_sets = 256);

}  // namespace ringstab
