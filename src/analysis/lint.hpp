// Static-analysis passes over a Protocol and, when available, its .ring
// source: machine-checkable well-formedness per the paper's preconditions.
//
// Pass registry (stable codes; full table in docs/lint.md):
//   RS000  front-end error (syntax / unresolved name / unreadable file)
//   RS001  write-discipline: stutter assignments (warning) and out-of-domain
//          writes (error)
//   RS002  self-termination / self-disablement (Assumptions 1 & 2): a t-arc
//          cycle is an error (trail reasoning undefined, and an all-illegit
//          cycle is a one-process livelock); non-self-disabling transitions
//          are a warning
//   RS003  overlapping actions with conflicting writes from one local state
//          (cross-action nondeterminism)
//   RS010  dead actions (no transitions) and, defensively, RCG-unrealizable
//          transition sources (Def. 4.1)
//   RS011  illegitimate-deadlock witness: a deadlock-RCG cycle through ¬LC_r
//          proves rings of matching sizes deadlock outside I (Theorem 4.2)
//   RS020  degenerate LC_r (empty = error / full = warning) and unused
//          domain values (note)
//   RS030  closure interference: a transition enabled inside I whose write
//          leaves I (violates Problem 3.1's no-behavior-change constraint)
//
// Symbolic passes (RS1xx) — abstract interpretation over the source
// (src/analysis/absint.hpp), proofs only, no state-space expansion:
//   RS100  vacuous guards: proved unsatisfiable outright (warning), or
//          unsatisfiable inside the persistent written-value envelope W*
//          (note)
//   RS101  Assumption 2 discharged symbolically: every write falsifies
//          every guard (certificate note, gated by absint_certificates;
//          the discharge itself always short-circuits RS002)
//   RS102  guard containment between actions with different writes,
//          proved by implication — refines RS003's concrete overlap
//   RS110  statically-unrealizable trail: the Theorem 5.14 finding
//          replayed symbolically fails, so the livelock rejection it
//          witnesses is spurious at the implied ring size
//   RS120  invariant closure proved symbolically (certificate note, gated
//          by absint_certificates; the proof always discharges RS030's
//          concrete sweep)
//
// File-wide suppression: a `# lint: allow(RS003, RS011)` comment in the
// .ring source drops matching findings (counted in LintResult::suppressed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/parser.hpp"
#include "core/protocol.hpp"

namespace ringstab {

struct LintOptions {
  /// Analyze as an open array (batch `# topology: array` convention):
  /// RS011 uses the array deadlock analysis and ring-only passes are
  /// skipped.
  bool array_topology = false;
  /// Emit RS101/RS120 positive-certificate notes when the symbolic proofs
  /// succeed. Off by default — a note on every healthy file is noise; the
  /// discharge wiring (skipped concrete RS002/RS030 checks) is active
  /// regardless.
  bool absint_certificates = false;
  /// RS110: node budget for the contiguous-trail search whose finding is
  /// replayed statically. 0 disables the pass.
  std::size_t trail_replay_budget = 4'000'000;
  /// Codes to suppress, merged with the source's `# lint: allow(...)`.
  std::vector<std::string> allow;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;
  /// Findings dropped by allow() suppressions.
  std::size_t suppressed = 0;

  bool has_error() const;
  std::size_t count(Severity s) const;
};

/// Protocol-level passes only (RS002/RS010/RS011/RS020/RS030); findings
/// carry no source spans.
LintResult lint_protocol(const Protocol& p, const LintOptions& opts = {});

/// Source + protocol passes: expands each action for located RS001/RS003/
/// RS010 findings, then runs the protocol passes on the built protocol.
/// Honors the source's `# lint: allow(...)` directives and
/// `# topology: array` marker.
LintResult lint_source(const ProtocolSource& src, const LintOptions& opts = {});

/// Read + parse + lint a .ring file. Parse failures come back as RS000
/// diagnostics instead of exceptions.
LintResult lint_ring_file(const std::string& path, const LintOptions& opts = {});

/// Parse + lint .ring text already in memory (the serve daemon's lint
/// command); `path` labels diagnostics exactly as lint_ring_file would.
/// In-text parse failures come back as RS000 diagnostics.
LintResult lint_ring_text(const std::string& text, const std::string& path,
                          const LintOptions& opts = {});

/// Error-severity-only fast subset: a candidate revision with a t-arc cycle
/// (RS002: the trail pipeline is undefined and would throw mid-portfolio)
/// or an empty LC_r (RS020) can never be a valid solution. Cheap — no
/// RCG/spectrum/global work. The synthesizers get the same verdict from
/// StaticRejectionLane (analysis/absint.hpp) without building the revision;
/// tests hold the two equal on every enumerated candidate.
std::vector<Diagnostic> lint_candidate_errors(const Protocol& p);

}  // namespace ringstab
