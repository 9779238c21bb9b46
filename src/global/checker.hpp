// Explicit-state verification of concrete ring instances (the global
// baseline the paper contrasts with local reasoning).
#pragma once

#include <optional>
#include <vector>

#include "global/ring_instance.hpp"
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

/// Compact forward CSR over vertices [0, n): the out-edges of v are
/// col[row[v]], …, col[row[v]+1]-1] in a caller-chosen deterministic order.
struct CsrGraph {
  std::vector<std::uint64_t> row;  // size n + 1; row[0] == 0
  std::vector<std::uint32_t> col;

  std::uint32_t num_vertices() const {
    return row.empty() ? 0 : static_cast<std::uint32_t>(row.size() - 1);
  }
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

/// The canonical SCC partition. Unlike SccResult (graph/scc.hpp: Tarjan's
/// reverse topological numbering), components are labeled by their
/// smallest member, a pure function of the graph.
struct SccLabels {
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

/// What one Tarjan pass settles about a ¬I graph with a cycle.
struct CyclicVerdict {
  SccLabels scc;
  /// Every rank reaches I (weak convergence).
  bool reaches_invariant = true;
};

/// One serial iterative Tarjan over the CSR (explicit stack, roots in
/// ascending rank order). As each component pops it is labeled by its
/// smallest rank, its size goes to the `scc.region_size` histogram, and its
/// reach-I bit is settled from `to_inv` and the components it points to,
/// all of which popped before it.
CyclicVerdict cyclic_verdict(const NotInvariantGraph& g);

/// A deterministic simple cycle through `start`, restricted to start's SCC:
/// {start} if start has a self-loop, else the first DFS path (CSR edge
/// order) from start back to itself through component members. `start` must
/// lie on a cycle.
std::vector<std::uint32_t> extract_component_cycle(const CsrGraph& g,
                                                   const SccLabels& scc,
                                                   std::uint32_t start);

/// The canonical livelock witness, as ranks: anchored at the smallest rank
/// on any ¬I cycle, so it is identical at every thread count. nullopt when
/// the ¬I graph is acyclic.
std::optional<std::vector<std::uint32_t>> livelock_witness(
    const NotInvariantGraph& g, const SccLabels& scc);

/// Exhaustive checker over the global states of a ring, array or tree
/// instance (|D|^K on a ring).
///
/// The engine decodes the state space exactly twice per full verdict.
/// Pass 1 classifies every state (invariant membership + deadlock census)
/// in one cursor sweep. Pass 2 walks successors once, checking closure for
/// I-states and materializing the NotInvariantGraph over ¬I *ranks*
/// (popcount-indexed into the invariant mask). The shared verdict stages
/// above then run on that CSR with no further decoding: acyclic_verdict
/// decides an acyclic ¬I graph (Proposition 2.1: every strongly converging
/// instance) outright; only a ¬I cycle runs cyclic_verdict, which settles
/// the livelock set and weak convergence in one Tarjan pass.
/// check_symmetric runs the same stages over necklace ranks.
///
/// Verdicts, counts, samples, step bounds, and witness cycles are identical
/// at every thread count: both verdict passes are serial, per-chunk
/// partials merge in ascending order over a thread-count-independent chunk
/// partition, and the SCC labeling is canonical (smallest member). A serial
/// brute-force reference checker in tests/ cross-validates every field.
///
/// `num_threads > 1` runs passes 1 and 2 as chunked scans on the shared pool.
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
  /// acyclic pass, or off the Tarjan pass when the ¬I graph has a cycle.
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
  void ensure_cyclic() const;   // cyclic_verdict, only on a ¬I cycle
  std::uint32_t rank_of(GlobalStateId s) const;
  GlobalStateId state_of(std::uint32_t rank) const;  // inverse of rank_of

  const RingInstance* ring_;
  std::size_t num_threads_;

  // Pass 1 products.
  mutable bool census_done_ = false;
  mutable PackedBitset inv_mask_;
  mutable std::size_t deadlock_count_ = 0;
  mutable std::vector<GlobalStateId> deadlock_samples_;  // first 8, ascending

  // Pass 2 products. State s outside I has rank = #{t < s : t outside I};
  // word_rank_ holds the per-word prefix so rank_of() is one popcount and
  // state_of() one select over the ¬I words.
  mutable bool graph_built_ = false;
  mutable NotInvariantGraph graph_;
  mutable std::vector<std::uint64_t> word_rank_;
  mutable bool closure_ok_ = true;
  mutable std::optional<std::pair<GlobalStateId, GlobalStateId>>
      closure_violation_;

  mutable bool acyclic_done_ = false;
  mutable std::optional<AcyclicVerdict> acyclic_;  // nullopt: a ¬I cycle

  mutable bool cyclic_done_ = false;
  mutable CyclicVerdict cyclic_;
};

/// Convenience: does p(K) strongly self-stabilize to I(K)?
bool strongly_stabilizing(const RingInstance& ring,
                          std::size_t num_threads = 1);

/// Every computation of `inst` is finite: its whole transition graph is
/// acyclic. Checks inst.without_invariant(), where every state is outside
/// I, so find_livelock() finds any cycle.
bool terminates(const RingInstance& inst, std::size_t num_threads = 1);

}  // namespace ringstab
