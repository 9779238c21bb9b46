// Contiguous trails in the LTG (paper Lemma 5.12 / Theorem 5.14).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "local/ltg.hpp"

namespace ringstab {

/// One arc of a contiguous trail.
struct TrailStep {
  bool is_t = false;  // t-arc (local transition) vs s-arc (continuation)
  LocalStateId from = kInvalidLocalState;
  LocalStateId to = kInvalidLocalState;
  std::size_t t_arc_index = 0;  // into protocol().delta(), valid iff is_t
};

/// A closed contiguous trail: the LTG shadow of a contiguous livelock with
/// |E| adjacent enablements on a ring of size K = |E| + P (Lemma 5.12).
///
/// Formalization (see DESIGN.md §1): the cyclic arc pattern per round is
///   [s-arc × (|E|−1)]  ·  [t-arc, s-arc] × P
/// repeated `rounds` times, closed, with no arc repeated, and every vertex
/// inside the w1 segment enabled. For |E| = 1 this degenerates to the strict
/// t,s,t,s,… alternation of Lemma 5.12 case 1.
struct ContiguousTrail {
  int num_enabled = 0;   // |E|
  int propagation = 0;   // P = K − |E|
  int rounds = 0;
  std::vector<TrailStep> steps;

  int implied_ring_size() const { return num_enabled + propagation; }

  /// The round-start global state on a ring of implied_ring_size()
  /// processes: processes 0..|E|-1 hold the w1 segment (sources of the w1
  /// s-arcs plus the firing vertex), processes |E|..K-1 the first round's
  /// w2 s-arc targets. nullopt when the trail is not instantiable: K is
  /// below 2 or the window, the trail is shorter than one round, or the
  /// segment's windows around the ring are not its w1 vertices.
  std::optional<std::vector<Value>> round_start_ring(const Protocol& p) const;

  /// "02 —t#4→ 01 ⇢ 11 ⇢ 11 —t#2→ 10 ⇢ 02  (|E|=2, P=1, K=3)"
  std::string to_string(const Protocol& p) const;
};

/// Search configuration. The bounds on P and |E| are exhaustive (a round's
/// P t-arcs are distinct, so P ≤ |δ_r|; its |E|−1 s-arcs are distinct
/// arcs between enabled states); the search reports kInconclusive rather
/// than kNoTrail if the node budget was hit, so "no trail" verdicts are
/// trustworthy.
struct TrailQuery {
  /// Restrict t-arcs to these delta() indices (empty = all of δ_r).
  std::vector<std::size_t> t_arc_whitelist;

  /// Theorem 5.14 condition 1: the trail must visit a ¬LC_r state.
  bool require_illegitimate = true;
  /// Theorem 5.14 condition 2: the trail's t-arcs must form pseudo-livelocks
  /// (their write projection is a union of value cycles).
  bool require_pseudo_livelock = true;

  std::size_t node_budget = 16'000'000;  // ~1s worst case; enough for
                                         // 3-layer products (≈4.2M nodes)

  /// ABLATION ONLY: skip the union-of-cycles static prune (see
  /// docs/theory.md §3). Verdicts are unchanged; the search just explores
  /// orders of magnitude more nodes. Exists so bench_ablation can quantify
  /// the prune.
  bool ablation_disable_cycle_prune = false;
};

enum class TrailSearchStatus {
  kNoTrail,       // exhaustive: no qualifying trail exists (within bounds
                  // that are provably sufficient)
  kTrailFound,    // witness in `trail`
  kInconclusive,  // node budget exhausted before the space was covered
};

struct TrailSearchResult {
  TrailSearchStatus status = TrailSearchStatus::kNoTrail;
  std::optional<ContiguousTrail> trail;
  std::size_t nodes_explored = 0;
  int max_enabled_used = 0;
  int max_propagation_used = 0;
};

/// Find a qualifying contiguous trail, smallest (|E|, P) first.
TrailSearchResult find_contiguous_trail(const Ltg& ltg,
                                        const TrailQuery& query = {});

}  // namespace ringstab
