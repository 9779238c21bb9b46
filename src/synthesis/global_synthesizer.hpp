// Fixed-K baseline synthesizer (the global-state-space approach of the
// paper's related work [16,17]: generate candidates, model-check each K).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "global/checker.hpp"
#include "synthesis/candidates.hpp"
#include "synthesis/portfolio.hpp"

namespace ringstab {

struct GlobalSynthesisOptions {
  /// Candidates are accepted iff p_ss(K) strongly stabilizes for every K in
  /// [min_ring, max_ring] (inclusive).
  std::size_t min_ring = 2;
  std::size_t max_ring = 5;
  std::size_t max_resolve_sets = 64;
  std::size_t max_candidate_sets = 65536;
  std::size_t max_solutions = 64;
  GlobalStateId max_states = GlobalStateId{1} << 24;

  /// Hybrid mode: run Theorem 4.2 on each candidate first and skip the
  /// model checking for candidates with deadlocks at *any* size. This both
  /// speeds up the baseline and removes one class of non-generalizable
  /// solutions (K-bounded livelock acceptance remains).
  bool prefilter_with_theorem42 = false;

  /// Portfolio execution (DESIGN.md §10): pool lanes evaluating candidates
  /// (each candidate's K sweep stays serial inside its lane). 0 and 1 run
  /// serially (the CLI resolves --jobs 0 to all hardware lanes). Results
  /// are bit-identical at any thread count.
  std::size_t num_threads = 1;

  /// Cache each candidate's full fixed-K verdict (+ the states it cost) in
  /// this table; null = no memo. `states_explored` charges cached
  /// candidates what their sweep originally cost, keeping totals thread-
  /// and memo-invariant. Within one call every candidate is distinct, so
  /// only a table shared across calls can hit.
  std::shared_ptr<VerdictMemo> memo;
};

struct GlobalSynthesisSolution {
  Protocol protocol;
  std::vector<LocalTransition> added;
  std::vector<LocalStateId> resolve;
};

struct GlobalSynthesisResult {
  bool success = false;
  std::vector<GlobalSynthesisSolution> solutions;
  std::size_t candidates_examined = 0;
  /// Candidates discarded by the Theorem 4.2 prefilter (hybrid mode only).
  std::size_t prefiltered_out = 0;
  /// Candidates refuted as ill-formed by the static lane (a t-arc cycle or
  /// an inherited skeleton error, in lint's RS002/RS020 sense).
  std::size_t ill_formed_out = 0;
  /// Global states visited across every model-checking run — the cost the
  /// local method avoids entirely.
  GlobalStateId states_explored = 0;

  std::string summary(const Protocol& input) const;
};

/// Enumerate the same candidate space as the local synthesizer, but decide
/// each candidate by exhaustive model checking of p_ss(K) for K in the
/// configured range. Solutions carry NO generalization guarantee: the paper's
/// Example 4.3 is exactly a protocol that passes K=5 yet deadlocks at K=4m
/// (see bench_synth_local_vs_global).
GlobalSynthesisResult synthesize_convergence_global(
    const Protocol& p, const GlobalSynthesisOptions& options = {});

}  // namespace ringstab
