// Shared test utilities: the protocol zoo, random protocol generation,
// local-vs-global cross-validation helpers, and the serial reference checker.
#pragma once

#include <random>
#include <vector>

#include "core/builder.hpp"
#include "core/protocol.hpp"
#include "global/checker.hpp"
#include "graph/digraph.hpp"

namespace ringstab::testing {

/// Every built-in protocol, for parameterized sweeps.
std::vector<Protocol> protocol_zoo();

/// Deterministic random protocols: domain size in [2,3], unidirectional or
/// bidirectional window, random legitimacy mask (nonempty, not full), and a
/// random self-disabling transition set. Suitable for cross-validating the
/// local theorems against global model checking.
struct RandomProtocolOptions {
  std::size_t max_domain = 3;
  bool allow_bidirectional = false;
  double transition_density = 0.3;  // probability a deadlockable state fires
  double legit_density = 0.5;
};

Protocol random_protocol(std::mt19937_64& rng,
                         const RandomProtocolOptions& opts = {});

/// Deterministic random array-convention protocols (the domain's last value
/// is ⊥, local/array.hpp): 2..max_real real values, a random legitimacy
/// mask, and transitions only from illegitimate states with a real self
/// value, so I stays closed.
struct RandomArrayOptions {
  bool bidirectional = false;  // reads -1 .. 1 instead of -1 .. 0
  bool self_disabling = true;  // drop every transition whose target fires
  std::size_t max_real = 3;    // at least 2
};

Protocol random_array_protocol(std::mt19937_64& rng,
                               const RandomArrayOptions& opts = {});

/// True iff p(K) has a global deadlock outside I.
bool global_has_deadlock(const Protocol& p, std::size_t k);

/// True iff p(K) has a livelock (cycle outside I).
bool global_has_livelock(const Protocol& p, std::size_t k);

/// The serial reference checker's answer for p(K).
struct ReferenceResult {
  /// Every GlobalCheckResult field, with the engine's tie-breaks: the first
  /// 8 deadlocks ascending, and the smallest violating I-state with its
  /// first escaping successor in successors() order. The witness cycle is
  /// some valid cycle outside I, not necessarily the engine's.
  GlobalCheckResult verdict;
  /// All states on a cycle outside I, ascending.
  std::vector<GlobalStateId> livelock_states;
};

/// Serial brute force over RingInstance::successors, in_invariant and
/// is_deadlock: livelocks by the serial Tarjan (graph/scc.hpp), weak
/// convergence by backward BFS, recovery by memoized DFS. It shares none of
/// the CSR or fixpoint code of GlobalChecker and check_symmetric, so it is
/// the oracle both are cross-validated against. Small K only.
ReferenceResult reference_check(const RingInstance& ring);

/// minimal_feedback_sets (graph/feedback.hpp) by its first implementation:
/// per search node, the induced subgraph of the non-removed vertices, a
/// Tarjan pass, find_cycle_through from the first marked vertex on a cycle,
/// and a std::set of sorted removal lists as the visited memo. It still
/// takes a candidate mask and throws ModelError when a bad cycle holds no
/// candidate; with candidates = marked it returns the search's results in
/// the same order. It shares none of the search's probe, SCC confinement,
/// root resumption or memo, so it is the oracle the search is held to.
std::vector<std::vector<VertexId>> reference_minimal_feedback_sets(
    const Digraph& g, const std::vector<bool>& marked,
    const std::vector<bool>& candidates, std::size_t max_sets = 256);

/// The array synthesizer's first Resolve-set search
/// (synthesize_array_convergence): a recursive hitting-set enumerator that
/// BFS-searches for a bad walk, branches on its ¬LC_r states, and keeps the
/// inclusion-minimal sets, sorted by size then lexicographically and capped
/// at `max_sets`. The synthesizer's one-BFS Resolve set is held to it.
std::vector<std::vector<LocalStateId>> reference_array_resolve_sets(
    const Protocol& p, std::size_t max_sets = 64);

/// True iff removing `removed` from `g` leaves no cycle through a marked
/// vertex: the induced subgraph and a Tarjan pass.
bool breaks_all_marked_cycles(const Digraph& g, const std::vector<bool>& marked,
                              const std::vector<VertexId>& removed);

}  // namespace ringstab::testing
