// Explicit-state verification of concrete ring instances (the global
// baseline the paper contrasts with local reasoning).
#pragma once

#include <optional>
#include <vector>

#include "global/ring_instance.hpp"
#include "graph/parallel_scc.hpp"
#include "parallel/bitset.hpp"

namespace ringstab {

/// Results of checking one instance p(K) exhaustively.
struct GlobalCheckResult {
  std::size_t ring_size = 0;
  GlobalStateId num_states = 0;

  std::size_t num_deadlocks_outside_i = 0;
  std::vector<GlobalStateId> deadlock_samples;  // capped

  bool has_livelock = false;
  /// Witness cycle of global states, all outside I (empty if none).
  std::vector<GlobalStateId> livelock_cycle;

  bool closure_ok = true;
  std::optional<std::pair<GlobalStateId, GlobalStateId>> closure_violation;

  /// Every global state can reach I (weak convergence).
  bool weakly_converges = false;

  /// Strong convergence to I = closure + no deadlock outside I + no cycle
  /// outside I (Proposition 2.1).
  bool strongly_converges() const {
    return closure_ok && num_deadlocks_outside_i == 0 && !has_livelock;
  }

  /// Worst-case number of steps to reach I over all states and all
  /// schedules; meaningful only when strongly_converges() (else 0).
  std::size_t max_recovery_steps = 0;
};

/// The ¬I transition graph both checkers hand to the shared verdict stages
/// below: a CSR over the ranks of the states outside I (rank order follows
/// state order, so rank 0 is the smallest ¬I state), with edges into I
/// dropped from the CSR and recorded in `to_inv` instead. GlobalChecker
/// builds it over global state ids, check_symmetric over necklaces.
struct NotInvariantGraph {
  CsrGraph csr;
  PackedBitset to_inv;  // rank r has an edge into I
};

/// The ¬I SCC partition (FB/FWBW, graph/parallel_scc.hpp).
ParallelSccResult livelock_scc(const NotInvariantGraph& g,
                               std::size_t num_threads);

/// The canonical livelock witness, as ranks: anchored at the smallest rank
/// on any ¬I cycle, so it is identical at every thread count. nullopt when
/// the ¬I graph is acyclic.
std::optional<std::vector<std::uint32_t>> livelock_witness(
    const NotInvariantGraph& g, const ParallelSccResult& scc);

/// Every rank can reach I (weak convergence), by a tiled backward Jacobi
/// fixpoint whose round count is thread-count-invariant.
bool all_reach_invariant(const NotInvariantGraph& g, std::size_t num_threads);

/// What one DFS settles about an acyclic ¬I graph.
struct AcyclicVerdict {
  /// Every rank reaches I: on an acyclic graph, exactly when no rank is a
  /// ¬I deadlock (no CSR successor and no edge into I).
  bool reaches_invariant = true;
  /// Longest path into I, d(r) = max(1 if r steps into I, 1 + d(s) over
  /// CSR successors s); a recovery bound when reaches_invariant.
  std::size_t recovery_steps = 0;
};

/// One serial DFS with an explicit stack, rooted at each rank in ascending
/// order: nullopt at the first back edge (a self-loop is one), i.e. exactly
/// when the ¬I graph has a cycle. Counts closed ranks in
/// `checker.acyclic_ranks`.
std::optional<AcyclicVerdict> acyclic_verdict(const NotInvariantGraph& g);

/// Exhaustive checker over |D|^K global states.
///
/// The engine decodes the state space exactly twice per full verdict.
/// Pass 1 classifies every state (invariant membership + deadlock census)
/// in one cursor sweep. Pass 2 walks successors once, checking closure for
/// I-states and materializing the NotInvariantGraph over ¬I *ranks*
/// (popcount-indexed into the invariant mask). The shared verdict stages
/// above then run on that CSR with no further decoding: acyclic_verdict
/// decides an acyclic ¬I graph (Proposition 2.1: every strongly converging
/// instance) outright; only a ¬I cycle runs the livelock SCC and the
/// weak-convergence fixpoint, sweeping the packed bitsets in 64-byte tiles
/// that skip settled words. check_symmetric runs them over necklace ranks.
///
/// Verdicts, counts, samples, step bounds, and witness cycles are identical
/// at every thread count: the acyclic pass is serial, per-chunk partials
/// merge in ascending order over a thread-count-independent chunk
/// partition, and the SCC labeling is canonical (smallest member). A serial
/// brute-force reference checker in tests/ cross-validates every field.
///
/// `num_threads > 1` runs the sweeps as chunked scans on the shared pool.
/// A checker instance caches its sweeps and is not safe for concurrent use.
class GlobalChecker {
 public:
  /// At most this many deadlock samples are reported: pass 1 keeps the
  /// first 8 (ascending) and no query re-sweeps for more.
  static constexpr std::size_t kMaxSamples = 8;

  explicit GlobalChecker(const RingInstance& ring, std::size_t num_threads = 1)
      : ring_(&ring), num_threads_(num_threads == 0 ? 1 : num_threads) {}

  std::size_t num_threads() const { return num_threads_; }

  /// The packed I(K) membership mask, built (in parallel) on first use and
  /// cached for the checker's lifetime.
  const PackedBitset& invariant_mask() const;

  /// Count global deadlocks outside I, and sample the first
  /// min(`max_samples`, kMaxSamples) of them in ascending order.
  std::size_t count_deadlocks_outside_invariant(
      std::vector<GlobalStateId>* samples = nullptr,
      std::size_t max_samples = kMaxSamples) const;

  /// Find a cycle of global states entirely outside I (a livelock witness).
  std::optional<std::vector<GlobalStateId>> find_livelock() const;

  /// All states lying on some cycle outside I (the union of nontrivial
  /// ¬I SCCs), ascending.
  std::vector<GlobalStateId> livelock_states() const;

  /// Closure of I (Section 2.3): no transition leaves I. The violation is
  /// the smallest violating source with its first escaping successor.
  bool check_closure(
      std::optional<std::pair<GlobalStateId, GlobalStateId>>* violation =
          nullptr) const;

  /// Every global state can reach I (weak convergence): read off the
  /// acyclic pass, or by backward fixpoint when the ¬I graph has a cycle.
  bool check_weak_convergence() const;

  /// Longest path to I in the (acyclic, deadlock-free) ¬I subgraph.
  /// Throws ModelError if called on a non-strongly-converging instance.
  std::size_t max_recovery_steps() const;

  /// Everything at once.
  GlobalCheckResult check_all() const;

 private:
  // Pipeline stages, each cached after the first call.
  void ensure_masks() const;  // pass 1: invariant mask + deadlock census
  void ensure_graph() const;  // pass 2: closure + ¬I CSR + rank tables
  void ensure_acyclic() const;  // acyclic_verdict over the cached graph
  void ensure_scc() const;    // livelock_scc over the cached graph
  std::uint32_t rank_of(GlobalStateId s) const;

  const RingInstance* ring_;
  std::size_t num_threads_;

  // Pass 1 products.
  mutable bool census_done_ = false;
  mutable PackedBitset inv_mask_;
  mutable std::size_t deadlock_count_ = 0;
  mutable std::vector<GlobalStateId> deadlock_samples_;  // first 8, ascending

  // Pass 2 products. State s outside I has rank = #{t < s : t outside I};
  // word_rank_ holds the per-word prefix so rank_of() is one popcount.
  mutable bool graph_built_ = false;
  mutable NotInvariantGraph graph_;
  mutable std::vector<std::uint64_t> word_rank_;
  mutable std::vector<GlobalStateId> ni_ids_;  // rank -> global state id
  mutable bool closure_ok_ = true;
  mutable std::optional<std::pair<GlobalStateId, GlobalStateId>>
      closure_violation_;

  mutable bool acyclic_done_ = false;
  mutable std::optional<AcyclicVerdict> acyclic_;  // nullopt: a ¬I cycle

  mutable bool scc_done_ = false;
  mutable ParallelSccResult scc_;
};

/// Convenience: does p(K) strongly self-stabilize to I(K)?
bool strongly_stabilizing(const RingInstance& ring,
                          std::size_t num_threads = 1);

}  // namespace ringstab
