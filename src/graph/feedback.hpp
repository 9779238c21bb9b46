// Minimal feedback vertex sets restricted to candidate vertices.
#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace ringstab {

/// Enumerate minimal sets S ⊆ candidates such that deleting S from `g`
/// leaves no directed cycle through any marked vertex. (This is the paper's
/// `Resolve` computation: marked = illegitimate local deadlocks, candidates =
/// deadlocks in ¬LC_r that synthesis is allowed to resolve.)
///
/// Throws ModelError if some cycle through a marked vertex contains no
/// candidate vertex (then no S ⊆ candidates works). Results are
/// deduplicated, inclusion-minimal, sorted by (size, lexicographic), and
/// capped at `max_sets` (the cap applies after minimization of discovered
/// sets). Throws CapacityError if the search finds more than 100,000
/// feedback sets, minimal or not: the minimal ones cannot be told from a
/// partial list.
std::vector<std::vector<VertexId>> minimal_feedback_sets(
    const Digraph& g, const std::vector<bool>& marked,
    const std::vector<bool>& candidates, std::size_t max_sets = 256);

}  // namespace ringstab
