// Automated addition of convergence in the local state space
// (paper Section 6: Problem 3.1 solved without exploring any global state).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "global/trail_check.hpp"
#include "local/closure.hpp"
#include "local/convergence.hpp"
#include "synthesis/candidates.hpp"
#include "synthesis/portfolio.hpp"

namespace ringstab {

struct SynthesisOptions {
  std::size_t max_resolve_sets = 64;
  std::size_t max_candidate_sets = 65536;  // per Resolve set
  std::size_t max_solutions = 64;          // stop once this many accepted
  bool keep_rejected_reports = true;
  bool require_closed_invariant = true;  // Problem 3.1 input validation
  TrailQuery trail_query;                // livelock-search configuration

  /// Classify each rejecting trail by attempting the paper's reconstruction
  /// at the implied ring size (diagnostic only: a spurious trail still
  /// rejects the candidate, as Theorem 5.14 is merely sufficient). Costs one
  /// small exhaustive check per rejection, skipped when the implied ring
  /// exceeds RingInstance's default state cap.
  bool classify_rejected_trails = true;

  /// Portfolio execution (DESIGN.md §10): pool lanes used to evaluate
  /// candidate sets. 0 and 1 run serially (the CLI resolves --jobs 0 to all
  /// hardware lanes). Results — solution order, reports, counters — are
  /// bit-identical at every thread count.
  std::size_t num_threads = 1;

  /// Reuse verdicts across candidates through a VerdictMemo: candidates
  /// sharing a write-projection signature reuse the NPL fast-path verdict,
  /// candidates collapsing to one self-disabled LTG reuse the trail-search
  /// outcome. Pure caching — results are identical with it off.
  bool memoize = true;

  /// Share a memo table across calls (batch sweeps, benchmarks). Null means
  /// a private table per synthesize_convergence call.
  std::shared_ptr<VerdictMemo> memo;
};

/// One examined candidate set and its fate in methodology steps 4–5.
struct CandidateReport {
  enum class Status {
    kAcceptedNpl,        // step 4: no pseudo-livelock at all → livelock-free
    kAcceptedPl,         // step 5: pseudo-livelocks exist but form no
                         // contiguous trail → livelock-free (Thm 5.14)
    kRejectedTrail,      // a qualifying trail exists → cannot certify
    kInconclusive,       // trail search budget exhausted
    kRejectedIllFormed,  // static lane: a t-arc cycle (Assumption 1
                         // fails) or an empty LC_r
  };
  Status status = Status::kInconclusive;
  std::vector<LocalTransition> added;
  std::optional<ContiguousTrail> trail;  // witness for kRejectedTrail

  /// Error diagnostics for kRejectedIllFormed, in RS002/RS020 form.
  std::vector<Diagnostic> ill_formed;

  /// Reconstruction outcome at the trail's implied K (set when
  /// options.classify_rejected_trails and the instance fits RingInstance's
  /// state cap; never set for static rejects — they skip classification).
  std::optional<TrailRealization> realization;

  /// True iff the static rejection lane (analysis/absint.hpp) refuted the
  /// candidate before the revision Protocol was built: every
  /// kRejectedIllFormed report, plus trail-certificate kRejectedTrail ones.
  bool static_reject = false;

  bool accepted() const {
    return status == Status::kAcceptedNpl || status == Status::kAcceptedPl;
  }
};

/// An accepted revision p_ss.
struct SynthesisSolution {
  Protocol protocol;                     // p_ss = p ∪ added
  std::vector<LocalTransition> added;
  std::vector<LocalStateId> resolve;     // the Resolve set realized
  bool via_npl = false;                  // accepted on the NPL fast path
};

struct SynthesisResult {
  bool success = false;
  std::vector<SynthesisSolution> solutions;
  std::vector<std::vector<LocalStateId>> resolve_sets;
  std::vector<CandidateReport> reports;
  std::size_t candidates_examined = 0;
  ClosureCheck closure;

  std::string summary(const Protocol& input) const;
};

/// Solve Problem 3.1: add strong convergence to I for every ring size K,
/// keeping behavior inside I untouched (only transitions sourced at
/// illegitimate local deadlocks are added). Throws ModelError if
/// options.require_closed_invariant and the local closure check fails.
SynthesisResult synthesize_convergence(const Protocol& p,
                                       const SynthesisOptions& options = {});

}  // namespace ringstab
