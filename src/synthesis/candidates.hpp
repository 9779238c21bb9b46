// Shared candidate enumeration for the local and global synthesizers
// (paper Section 6.1, steps 1–3).
#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace ringstab {

/// Step 2: the minimal Resolve sets — minimal subsets of the illegitimate
/// local deadlocks whose removal leaves the deadlock-induced RCG without
/// directed cycles through ¬LC_r (Theorem 4.2). Sorted by size then
/// lexicographically. Empty inner vectors mean p is already deadlock-free.
std::vector<std::vector<LocalStateId>> enumerate_resolve_sets(
    const Protocol& p, std::size_t max_sets = 64);

/// Step 3: candidate local transitions resolving one deadlock s ∈ Resolve:
/// every (s, s') whose target the input protocol does not already fire
/// from. Combinations that violate Assumption 1 (a t-arc cycle through the
/// resolved states) stay in the stream — the synthesizers' static lane
/// (StaticRejectionLane, analysis/absint.hpp) rejects them with an RS002
/// diagnostic.
std::vector<LocalTransition> candidate_transitions(const Protocol& p,
                                                   LocalStateId s);

/// All candidate *sets*: one candidate transition per state of `resolve`
/// (the paper's "it is sufficient to include only one local transition
/// originating at every local deadlock"). Cartesian product, capped.
std::vector<std::vector<LocalTransition>> enumerate_candidate_sets(
    const Protocol& p, const std::vector<LocalStateId>& resolve,
    std::size_t max_sets = 65536);

}  // namespace ringstab
