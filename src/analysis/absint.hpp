// Abstract interpretation over parsed ring protocols: per-action transfer
// functions on the box domain, the written-value worklist fixpoint, the
// RS1xx symbolic pass results, and the synthesizers' static rejection lane.
//
// Soundness contract (DESIGN.md "Abstract interpretation"): every proof
// object here errs toward "cannot tell". A vacuous-guard verdict (RS100), a
// self-disablement proof (RS101), an implication (RS102), a closure
// certificate (RS120) and a static candidate rejection are all only emitted
// when the abstract semantics *proves* the property; the concrete passes
// remain the fallback for everything else.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/domains.hpp"
#include "core/parser.hpp"
#include "core/protocol.hpp"
#include "local/trail.hpp"

namespace ringstab {

/// Symbolic facts about one sourced action, derived without expanding the
/// local state space.
struct ActionFacts {
  /// eval_guard(guard, ⊤): kFalse proves the guard unsatisfiable (RS100).
  absint::Truth guard_truth = absint::Truth::kMaybe;
  /// Guard-refined input box (assume(⊤, guard)).
  absint::Box in;
  /// Join of the transfer images over every effect alternative.
  absint::Box out;
  /// Values the action may write (offset 0 of `out`).
  absint::ValueSet writes;
  /// True iff eval_guard(guard, out_e) == kFalse for every effect
  /// alternative e: the write provably falsifies its own guard (RS101).
  bool proved_self_disabling = false;
};

/// Result of the source-level abstract interpretation: one ActionFacts per
/// action, plus the persistent written-value envelope.
struct AbsintResult {
  std::vector<ActionFacts> actions;

  /// Descending worklist fixpoint of W_{n+1} = ∪_a writes(a | window ⊆ W_n)
  /// from W_0 = D: once every process has moved n times, every variable's
  /// value lies in W_n, so W* bounds the persistently reachable values.
  absint::ValueSet persistent_values;

  /// True iff every action is proved_self_disabling — Assumption 2 holds,
  /// discharged without expansion (RS101).
  bool all_proved_self_disabling = false;
};

/// Run the abstract interpretation over a parsed source. Pure; never throws
/// on malformed expressions (those degrade to top and stay RS000's job).
AbsintResult analyze_source(const ProtocolSource& src);

/// RS120: symbolic proof that the invariant I = ∧_r LC_r is closed under
/// every action — the mover's own LC survives its write, and so does the LC
/// of every neighbor whose window reads the written variable. kTrue is a
/// proof that lets RS030 skip both its expansion check and its confirmation
/// sweep; kMaybe defers to the concrete path.
absint::Truth prove_invariant_closure(const ProtocolSource& src);

/// RS110: deterministic replay of a contiguous trail at its implied ring
/// size. Reconstructs the round-start ring exactly as realize_trail does,
/// then fires the trail's t-arcs in pattern order. A read/write mismatch —
/// the previous segment's write cannot produce the local state the next
/// t-arc requires — proves the trail statically unrealizable at that K
/// (the Theorem 5.14 rejection is spurious there). Replay success
/// reconstructs a concrete closed execution: the trail is sound.
struct TrailReplay {
  enum class Verdict {
    kRealizable,      // replay closed: the trail is a concrete livelock at K
    kUnrealizable,    // replay derailed or failed to close (see `reason`)
    kNotInstantiable, // ring smaller than the window / inconsistent windows
  };
  Verdict verdict = Verdict::kNotInstantiable;
  std::size_t ring_size = 0;
  std::string reason;  // set iff kUnrealizable
};

TrailReplay replay_trail(const Protocol& p, const ContiguousTrail& trail);

/// The synthesizers' one candidate screen: facts computed once from the
/// skeleton let a candidate be refuted before Protocol construction, memo
/// traffic, trail searches or fixed-K sweeps. The lane only ever *rejects*,
/// and only with a certificate the concrete pipeline would also reject on:
///   kIllFormed — the added t-arcs close a local transition cycle (exactly
///     lint_candidate_errors' RS002 error on the revision, for every
///     candidate enumerate_candidate_sets yields), or the skeleton itself
///     carries an error-level diagnostic every revision inherits;
///   kTrail — a qualifying |E| = 1 contiguous trail was constructed
///     outright (distinct arcs, a ¬LC_r visit, a repetitive write
///     projection), so the trail search must return kTrailFound.
class StaticRejectionLane {
 public:
  /// `query` is the trail-search configuration the concrete pipeline will
  /// use; the lane only emits trail certificates the configured search
  /// would also find (restricted queries disable the certificate stage,
  /// never the soundness of the ill-formedness screen).
  explicit StaticRejectionLane(const Protocol& skeleton,
                               const TrailQuery& query = {});

  struct Rejection {
    enum class Kind { kIllFormed, kTrail };
    Kind kind = Kind::kIllFormed;
    std::vector<Diagnostic> diagnostics;      // kIllFormed: RS002/RS020 form
    std::optional<ContiguousTrail> trail;     // kTrail: the certificate
  };

  /// Try to refute the candidate `skeleton + added`. std::nullopt means the
  /// lane cannot decide; the concrete pipeline proceeds unchanged.
  std::optional<Rejection> refute(
      const std::vector<LocalTransition>& added) const;

  /// Ill-formedness screen only (no trail certificates) — the sound subset
  /// for the global synthesizer, whose rejections are fixed-K facts that a
  /// parameterized trail does not imply.
  std::optional<Rejection> refute_ill_formed_only(
      const std::vector<LocalTransition>& added) const;

 private:
  std::optional<Rejection> refute_impl(
      const std::vector<LocalTransition>& added, bool try_trail) const;

  const Protocol& skeleton_;
  std::vector<Diagnostic> skeleton_errors_;  // inherited by every candidate
  bool skeleton_self_disabling_ = false;
  bool trail_certificates_ = false;  // query compatible with the certificate
  // skeleton_enabled_[s]: s has an outgoing skeleton t-arc.
  std::vector<bool> skeleton_enabled_;
};

}  // namespace ringstab
