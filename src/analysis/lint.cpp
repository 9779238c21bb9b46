#include "analysis/lint.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "analysis/absint.hpp"
#include "core/fmt.hpp"
#include "global/checker.hpp"
#include "global/ring_instance.hpp"
#include "graph/cycles.hpp"
#include "graph/digraph.hpp"
#include "local/array.hpp"
#include "local/closure.hpp"
#include "local/deadlock.hpp"
#include "local/livelock.hpp"
#include "local/rcg.hpp"
#include "local/self_disabling.hpp"
#include "obs/obs.hpp"

namespace ringstab {

bool LintResult::has_error() const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic& d) {
                       return d.severity == Severity::kError;
                     });
}

std::size_t LintResult::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

namespace {

/// Per-pass cap on emitted findings (witness lists can be long).
constexpr std::size_t kMaxDiagsPerPass = 8;
/// RS011 reports deadlocked ring sizes up to this K.
constexpr std::size_t kDeadlockSpectrumMaxK = 16;
/// RS030 confirms local closure suspicions with a global sweep at
/// K = window + 2 when the instance fits this many states; otherwise the
/// suspicion downgrades to a note.
constexpr std::uint64_t kClosureConfirmBudget = std::uint64_t{1} << 20;

/// Routes pass findings into a LintResult: fills in the default file,
/// applies `allow(...)` suppressions, enforces the per-pass cap, and bumps
/// the emission counter.
class Collector {
 public:
  Collector(LintResult& res, const LintOptions& opts, std::string file)
      : res_(res), opts_(opts), file_(std::move(file)) {}

  void begin_pass() { pass_count_ = 0; }

  void emit(Diagnostic d) {
    if (d.file.empty()) d.file = file_;
    if (std::find(opts_.allow.begin(), opts_.allow.end(), d.code) !=
        opts_.allow.end()) {
      ++res_.suppressed;
      return;
    }
    if (pass_count_ >= kMaxDiagsPerPass) return;
    ++pass_count_;
    obs::counter("lint.diags_emitted").add(1);
    res_.diagnostics.push_back(std::move(d));
  }

 private:
  LintResult& res_;
  const LintOptions& opts_;
  std::string file_;
  std::size_t pass_count_ = 0;
};

std::optional<Cycle> find_t_arc_cycle(const Protocol& p) {
  const Digraph g = t_arc_graph(p);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) == 0) continue;
    if (auto cyc = find_cycle_through(g, v)) return cyc;
  }
  return std::nullopt;
}

std::string render_cycle(const LocalStateSpace& space, const Cycle& cyc) {
  return join(cyc, " -> ", [&](VertexId v) {
    return space.brief(static_cast<LocalStateId>(v));
  });
}

std::string render_sizes(const std::vector<std::size_t>& sizes,
                         std::size_t cap = 8) {
  std::string out;
  for (std::size_t i = 0; i < sizes.size() && i < cap; ++i)
    out += cat(i ? " " : "", sizes[i]);
  if (sizes.size() > cap) out += " ...";
  return out;
}

/// Proof results of the source-level abstract interpretation, threaded into
/// the protocol passes so a successful symbolic proof discharges the
/// corresponding concrete check. All-null/kMaybe (the lint_protocol entry
/// point) means "no proofs: run everything concretely".
struct SourceFacts {
  const AbsintResult* absint = nullptr;
  absint::Truth closure = absint::Truth::kMaybe;
};

// RS002: Assumption 1 (self-termination) and Assumption 2 (self-disabling).
void pass_rs002(const Protocol& p, Collector& c, const SourceFacts& facts) {
  obs::Span span("lint.pass.rs002");
  c.begin_pass();
  // RS101 discharge: a symbolic proof that every action's write falsifies
  // its own guard implies Assumption 2 outright, and Assumption 1 with it
  // (every t-arc then lands in a deadlock, so no t-arc cycle exists).
  if (facts.absint && facts.absint->all_proved_self_disabling) {
    obs::counter("lint.rs101_discharged").add(1);
    return;
  }
  if (const auto cyc = find_t_arc_cycle(p)) {
    const bool all_illegit =
        std::none_of(cyc->begin(), cyc->end(), [&](VertexId v) {
          return p.is_legit(static_cast<LocalStateId>(v));
        });
    Diagnostic d;
    d.code = "RS002";
    d.severity = Severity::kError;
    d.message = cat(
        "local transition cycle ", render_cycle(p.space(), *cyc),
        ": a single process can fire forever (Assumption 1 fails), so trail "
        "reasoning and make_self_disabling are undefined",
        all_illegit
            ? "; every state on the cycle is illegitimate, so the cycle is a "
              "one-process livelock outside I at every ring size"
            : "");
    d.hint =
        "break the cycle: make each action's write disable it (or at least "
        "terminate every chain of its own transitions)";
    c.emit(std::move(d));
    return;  // self-disablement is moot on a cyclic t-arc graph
  }
  if (is_self_disabling(p)) return;
  std::string examples;
  std::size_t offending = 0;
  for (const auto& t : p.delta()) {
    if (p.is_deadlock(t.to)) continue;
    ++offending;
    if (offending <= 4)
      examples += cat(offending > 1 ? ", " : "", p.space().brief(t.from),
                      " -> ", p.space().brief(t.to));
  }
  Diagnostic d;
  d.code = "RS002";
  d.severity = Severity::kWarning;
  d.message = cat(
      offending, " transition(s) leave their process enabled (", examples,
      offending > 4 ? ", ..." : "",
      "): Assumption 2 (self-disabling) fails, so livelock trail analysis "
      "falls back on the self-disabling image");
  d.hint =
      "apply make_self_disabling(p) or strengthen guards so each write "
      "disables its own process";
  c.emit(std::move(d));
}

// RS010 (protocol part): transition sources must lie on an RCG cycle to be
// realizable in some ring (Def. 4.1). On rings every local state has |D|
// continuations both ways, so this is a defensive invariant check.
void pass_rs010_rcg(const Protocol& p, Collector& c) {
  obs::Span span("lint.pass.rs010");
  c.begin_pass();
  const Digraph rcg = build_rcg(p.space());
  std::set<LocalStateId> sources;
  for (const auto& t : p.delta()) sources.insert(t.from);
  for (const LocalStateId s : sources) {
    if (find_cycle_through(rcg, static_cast<VertexId>(s))) continue;
    Diagnostic d;
    d.code = "RS010";
    d.severity = Severity::kWarning;
    d.message =
        cat("local state ", p.space().brief(s),
            " lies on no RCG cycle: no ring of any size realizes it, so its ",
            p.transitions_from(s).size(),
            " transition(s) can never fire (Def. 4.1)");
    d.hint = "remove the unreachable transitions";
    c.emit(std::move(d));
  }
}

// RS011: Theorem 4.2 witness — a deadlock-RCG cycle through ¬LC_r.
void pass_rs011(const Protocol& p, Collector& c, const LintOptions& opts) {
  obs::Span span("lint.pass.rs011");
  c.begin_pass();
  if (opts.array_topology) {
    try {
      const auto ada = analyze_array_deadlocks(p, kDeadlockSpectrumMaxK);
      if (ada.deadlock_free_all_n) return;
      Diagnostic d;
      d.code = "RS011";
      d.severity = Severity::kWarning;
      d.message =
          cat("arrays deadlock outside I at sizes ",
              render_sizes(ada.deadlocked_sizes()),
              " (array analogue of Theorem 4.2)");
      d.hint =
          "resolve the illegitimate deadlocks (`ringstab synthesize`), or "
          "mark intent with '# lint: allow(RS011)' if this file is a "
          "synthesis input";
      c.emit(std::move(d));
    } catch (const Error& e) {
      Diagnostic d;
      d.code = "RS011";
      d.severity = Severity::kNote;
      d.message = cat("array deadlock analysis skipped: ", e.what());
      c.emit(std::move(d));
    }
    return;
  }
  const auto da =
      analyze_deadlocks(p, kDeadlockSpectrumMaxK, kMaxDiagsPerPass);
  if (da.deadlock_free_all_k) return;
  const std::string sizes = render_sizes(da.deadlocked_sizes());
  for (const auto& cyc : da.bad_cycles) {
    const auto it = std::find_if(cyc.begin(), cyc.end(), [&](VertexId v) {
      return !p.is_legit(static_cast<LocalStateId>(v));
    });
    Diagnostic d;
    d.code = "RS011";
    d.severity = Severity::kWarning;
    d.message = cat(
        "deadlock-RCG cycle ", render_cycle(p.space(), cyc),
        " passes through illegitimate deadlock ",
        it == cyc.end() ? "?" : p.space().brief(static_cast<LocalStateId>(*it)),
        ": rings built from it deadlock outside I (Theorem 4.2); affected "
        "sizes up to K=",
        kDeadlockSpectrumMaxK, ": ", sizes);
    d.hint =
        "resolve the illegitimate deadlocks (`ringstab synthesize`), or mark "
        "intent with '# lint: allow(RS011)' if this file is a synthesis "
        "input";
    c.emit(std::move(d));
  }
}

// RS020: degenerate LC_r and unused domain values.
void pass_rs020(const Protocol& p, Collector& c) {
  obs::Span span("lint.pass.rs020");
  c.begin_pass();
  const std::size_t nl = p.num_legit();
  if (nl == 0) {
    Diagnostic d;
    d.code = "RS020";
    d.severity = Severity::kError;
    d.message =
        "LC_r holds in no local state: I(K) is empty for every K, so there "
        "is nothing to converge to";
    d.hint = "fix the 'legit:' predicate";
    c.emit(std::move(d));
  } else if (nl == p.num_states()) {
    Diagnostic d;
    d.code = "RS020";
    d.severity = Severity::kWarning;
    d.message =
        "LC_r holds in every local state: I(K) is the full state space, so "
        "stabilization is vacuous";
    d.hint = "fix the 'legit:' predicate";
    c.emit(std::move(d));
  }
  const Domain& dom = p.domain();
  std::vector<bool> used(dom.size(), false);
  for (const auto& t : p.delta()) {
    used[p.space().self(t.from)] = true;
    used[p.space().self(t.to)] = true;
  }
  for (LocalStateId s = 0; s < p.num_states(); ++s)
    if (p.is_legit(s)) used[p.space().self(s)] = true;
  for (Value v = 0; v < static_cast<Value>(dom.size()); ++v) {
    if (used[v]) continue;
    Diagnostic d;
    d.code = "RS020";
    d.severity = Severity::kNote;
    d.message = cat("domain value '", dom.name(v),
                    "' is never written, never enables an action and is "
                    "never legitimate as x[0]");
    d.hint = "drop it from the domain or use it";
    c.emit(std::move(d));
  }
}

// RS030: closure interference (Problem 3.1 forbids behavior change in I).
void pass_rs030(const Protocol& p, Collector& c, const LintOptions& opts,
                const SourceFacts& facts) {
  obs::Span span("lint.pass.rs030");
  c.begin_pass();
  // RS120 discharge: the symbolic closure certificate makes both the local
  // check and the K = window + 2 confirmation sweep redundant.
  if (facts.closure == absint::Truth::kTrue) {
    obs::counter("lint.rs120_discharged").add(1);
    if (opts.absint_certificates) {
      Diagnostic d;
      d.code = "RS120";
      d.severity = Severity::kNote;
      d.message =
          "invariant closure proved symbolically: every action's write "
          "keeps its own LC and every reading neighbor's LC true, so the "
          "RS030 expansion check and its confirmation sweep were skipped";
      c.emit(std::move(d));
    }
    return;
  }
  const ClosureCheck cc = check_invariant_closure(p);
  if (cc.verdict == ClosureCheck::Verdict::kClosed) return;
  // The local check is conservative; confirm on a small instance before
  // reporting an error.
  const std::size_t k = static_cast<std::size_t>(p.locality().window()) + 2;
  try {
    const RingInstance inst =
        opts.array_topology
            ? RingInstance::array(p, k, kClosureConfirmBudget)
            : RingInstance(p, k, kClosureConfirmBudget);
    if (GlobalChecker(inst).check_closure())
      return;  // local suspicion not realizable
    Diagnostic d;
    d.code = "RS030";
    d.severity = Severity::kError;
    d.message = cat(cc.describe(p), "; confirmed at ",
                    opts.array_topology ? "array length " : "K=", k,
                    ": a transition enabled inside I leaves I");
    d.hint =
        "disable the action inside I (conjoin the guard with a violated LC "
        "term); Problem 3.1 forbids changing behavior within the invariant";
    c.emit(std::move(d));
  } catch (const CapacityError&) {
    Diagnostic d;
    d.code = "RS030";
    d.severity = Severity::kNote;
    d.message =
        cat(cc.describe(p),
            "; could not be confirmed within the closure budget (instance "
            "exceeds ",
            kClosureConfirmBudget, " states)");
    d.hint = cat("confirm with the exhaustive check, `ringstab check -k ", k,
                 opts.array_topology ? " --array" : "", "`");
    c.emit(std::move(d));
  }
}

// RS110: statically-unrealizable trails. When the Theorem 5.14 search does
// find a qualifying trail, replay it deterministically at its implied ring
// size; a replay failure proves the trail spurious *at that K* without any
// global sweep — the sound half of the paper's "we fail to reconstruct"
// discussion. Replay success means the trail is a concrete livelock, so no
// sound trail is ever flagged.
void pass_rs110(const Protocol& p, Collector& c, const LintOptions& opts) {
  if (opts.array_topology || opts.trail_replay_budget == 0) return;
  if (!is_self_disabling(p)) return;  // the trail indexes the s.d. image
  obs::Span span("lint.pass.rs110");
  c.begin_pass();
  TrailQuery query;
  query.node_budget = opts.trail_replay_budget;
  const auto live = check_livelock_freedom(p, query);
  if (live.verdict != LivelockAnalysis::Verdict::kTrailFound) return;
  const auto replay = replay_trail(p, *live.trail());
  if (replay.verdict == TrailReplay::Verdict::kRealizable) return;
  Diagnostic d;
  d.code = "RS110";
  d.severity = Severity::kNote;
  d.message = cat(
      "the qualifying contiguous trail (|E|=", live.trail()->num_enabled,
      ", P=", live.trail()->propagation, ", rounds=", live.trail()->rounds,
      ") is statically unrealizable at its implied ring size K=",
      live.trail()->implied_ring_size(), ": ",
      replay.verdict == TrailReplay::Verdict::kNotInstantiable
          ? "its windows are inconsistent around the ring"
          : replay.reason,
      " — the Theorem 5.14 rejection it witnesses is spurious at that size "
      "(livelocks at other sizes remain possible)");
  d.hint =
      "confirm with `ringstab analyze --check-k` at the sizes of interest, "
      "or acknowledge with '# lint: allow(RS110)'";
  c.emit(std::move(d));
}

void run_protocol_passes(const Protocol& p, Collector& c,
                         const LintOptions& opts, const SourceFacts& facts) {
  pass_rs002(p, c, facts);
  if (!opts.array_topology) pass_rs010_rcg(p, c);
  pass_rs011(p, c, opts);
  pass_rs020(p, c);
  pass_rs030(p, c, opts, facts);
  pass_rs110(p, c, opts);
}

}  // namespace

LintResult lint_protocol(const Protocol& p, const LintOptions& opts) {
  obs::Span span("lint.protocol");
  LintResult res;
  Collector c(res, opts, {});
  run_protocol_passes(p, c, opts, SourceFacts{});
  return res;
}

LintResult lint_source(const ProtocolSource& src, const LintOptions& opts) {
  obs::Span span("lint.source");
  LintOptions merged = opts;
  merged.allow.insert(merged.allow.end(), src.lint_allows.begin(),
                      src.lint_allows.end());
  if (src.array_topology) merged.array_topology = true;

  LintResult res;
  Collector c(res, merged, src.file);

  const LocalStateSpace space(src.domain, src.locality);
  std::vector<ActionExpansion> exps;
  exps.reserve(src.actions.size());
  for (const auto& a : src.actions) exps.push_back(expand_action(space, a));

  // RS000: expression evaluation failures (unresolved names, reads outside
  // the window, division by zero) — these abort parse_protocol with the same
  // location.
  {
    obs::Span sp("lint.pass.rs000");
    c.begin_pass();
    for (std::size_t i = 0; i < exps.size(); ++i)
      for (const auto& msg : exps[i].eval_errors) {
        Diagnostic d;
        d.code = "RS000";
        d.severity = Severity::kError;
        d.message = cat("in action '", src.actions[i].label, "': ", msg);
        d.span = src.actions[i].span;
        c.emit(std::move(d));
      }
  }

  // RS001: write discipline — out-of-domain writes and stutters.
  {
    obs::Span sp("lint.pass.rs001");
    c.begin_pass();
    for (std::size_t i = 0; i < exps.size(); ++i) {
      const auto& a = src.actions[i];
      for (const auto& msg : exps[i].domain_errors) {
        Diagnostic d;
        d.code = "RS001";
        d.severity = Severity::kError;
        d.message = cat("in action '", a.label, "': ", msg);
        d.hint =
            "writes must stay inside the domain; reduce modulo the domain "
            "size or extend the domain";
        d.span = a.span;
        c.emit(std::move(d));
      }
      if (!exps[i].stutter_states.empty() && !exps[i].transitions.empty()) {
        Diagnostic d;
        d.code = "RS001";
        d.severity = Severity::kWarning;
        d.message = cat(
            "action '", a.label, "' stutters (rewrites x[0] to its current "
            "value) at ", exps[i].stutter_states.size(),
            " enabled state(s), e.g. ",
            space.brief(exps[i].stutter_states.front()),
            "; stutter transitions carry no information and are dropped");
        d.hint =
            "strengthen the guard to exclude states already holding the "
            "written value";
        d.span = a.span;
        c.emit(std::move(d));
      }
    }
  }

  // RS003: cross-action overlap with conflicting writes.
  {
    obs::Span sp("lint.pass.rs003");
    c.begin_pass();
    std::map<LocalStateId, std::vector<std::pair<std::size_t, LocalStateId>>>
        by_from;
    for (std::size_t i = 0; i < exps.size(); ++i)
      for (const auto& t : exps[i].transitions)
        by_from[t.from].emplace_back(i, t.to);
    std::set<std::pair<std::size_t, std::size_t>> reported;
    for (const auto& [from, writes] : by_from) {
      for (std::size_t a = 0; a < writes.size(); ++a)
        for (std::size_t b = a + 1; b < writes.size(); ++b) {
          if (writes[a].first == writes[b].first) continue;  // same action
          if (writes[a].second == writes[b].second) continue;  // same write
          const auto pair =
              std::minmax(writes[a].first, writes[b].first);
          if (!reported.insert(pair).second) continue;
          const auto& dom = space.domain();
          Diagnostic d;
          d.code = "RS003";
          d.severity = Severity::kWarning;
          d.message = cat(
              "actions '", src.actions[pair.first].label, "' and '",
              src.actions[pair.second].label, "' overlap at ",
              space.brief(from), " with conflicting writes (x[0] := ",
              dom.name(space.self(writes[a].second)), " vs ",
              dom.name(space.self(writes[b].second)),
              "): the scheduler picks nondeterministically");
          d.hint =
              "make the guards mutually exclusive, or acknowledge the "
              "nondeterminism with '# lint: allow(RS003)'";
          d.span = src.actions[pair.second].span;
          c.emit(std::move(d));
        }
    }
  }

  // RS010 (source part): dead actions.
  {
    obs::Span sp("lint.pass.rs010");
    c.begin_pass();
    for (std::size_t i = 0; i < exps.size(); ++i) {
      if (!exps[i].transitions.empty()) continue;
      if (!exps[i].eval_errors.empty()) continue;  // already RS000
      const auto& a = src.actions[i];
      Diagnostic d;
      d.code = "RS010";
      d.severity = Severity::kWarning;
      d.message =
          exps[i].enabled_states == 0
              ? cat("action '", a.label,
                    "' is dead: its guard holds in no local state")
              : cat("action '", a.label,
                    "' is dead: every enabled assignment stutters, so it "
                    "generates no transitions");
      d.hint = "delete the action or fix its guard/assignment";
      d.span = a.span;
      c.emit(std::move(d));
    }
  }

  // Symbolic passes (RS1xx): abstract interpretation over the source —
  // no state-space expansion, proofs only (kMaybe defers to the concrete
  // passes below).
  const AbsintResult ai = analyze_source(src);
  SourceFacts facts;
  facts.absint = &ai;
  facts.closure = prove_invariant_closure(src);

  // RS100: vacuous guards. A guard proved unsatisfiable outright is a
  // symbolic dead action; one satisfiable only outside the persistent
  // written-value envelope W* can fire at most finitely often from an
  // arbitrary start (reported only when other actions do stay live in W* —
  // a protocol whose *every* action dies in W* has simply converged).
  {
    obs::Span sp("lint.pass.rs100");
    c.begin_pass();
    std::vector<bool> env_unsat(src.actions.size(), false);
    for (std::size_t i = 0; i < src.actions.size(); ++i) {
      const auto& a = src.actions[i];
      if (!a.guard || !exps[i].eval_errors.empty()) continue;
      if (ai.actions[i].guard_truth == absint::Truth::kFalse) {
        Diagnostic d;
        d.code = "RS100";
        d.severity = Severity::kWarning;
        d.message = cat("guard of action '", a.label,
                        "' is unsatisfiable (proved symbolically): the "
                        "action can never fire");
        d.hint = "delete the action or fix the contradictory guard";
        d.span = a.span;
        c.emit(std::move(d));
        env_unsat[i] = true;
        continue;
      }
      absint::Box env = absint::Box::top(space);
      for (int off = env.min_offset(); off <= env.max_offset(); ++off)
        env.at(off) = env.at(off) & ai.persistent_values;
      const absint::Box refined = absint::assume(env, *a.guard, src.domain);
      env_unsat[i] =
          refined.is_bottom() ||
          absint::eval_guard(*a.guard, refined, src.domain) ==
              absint::Truth::kFalse;
    }
    const bool all_dead =
        std::all_of(env_unsat.begin(), env_unsat.end(), [](bool b) { return b; });
    if (!all_dead) {
      for (std::size_t i = 0; i < src.actions.size(); ++i) {
        if (!env_unsat[i] || !src.actions[i].guard ||
            !exps[i].eval_errors.empty())
          continue;
        if (ai.actions[i].guard_truth == absint::Truth::kFalse) continue;
        Diagnostic d;
        d.code = "RS100";
        d.severity = Severity::kNote;
        d.message = cat(
            "action '", src.actions[i].label,
            "' is persistently vacuous: its guard is unsatisfiable once "
            "every variable lies in the persistent written-value envelope "
            "{",
            join(ai.persistent_values.values(src.domain.size()), ", ",
                 [&](Value v) { return std::string(src.domain.name(v)); }),
            "}, so it fires at most finitely often while other actions "
            "stay live");
        d.hint = "the action only matters during stabilization; delete it "
                 "if that was not intended";
        d.span = src.actions[i].span;
        c.emit(std::move(d));
      }
    }
  }

  // RS101 (certificate note; the discharge itself happens in pass_rs002).
  if (merged.absint_certificates && ai.all_proved_self_disabling) {
    obs::Span sp("lint.pass.rs101");
    c.begin_pass();
    Diagnostic d;
    d.code = "RS101";
    d.severity = Severity::kNote;
    d.message = cat(
        "all ", src.actions.size(),
        " action(s) proved self-disabling symbolically (every write "
        "falsifies its own guard): Assumption 2 holds, discharged without "
        "expanding the local state space");
    c.emit(std::move(d));
  }

  // RS102: guard-overlap determinism, refined by implication. RS003 reports
  // concrete overlap states; this pass proves the *containment structure*
  // between guards of actions with different write expressions, which
  // syntactic comparison cannot see.
  {
    obs::Span sp("lint.pass.rs102");
    c.begin_pass();
    for (std::size_t i = 0; i < src.actions.size(); ++i) {
      for (std::size_t j = i + 1; j < src.actions.size(); ++j) {
        const auto& a = src.actions[i];
        const auto& b = src.actions[j];
        if (!a.guard || !b.guard) continue;
        if (!exps[i].eval_errors.empty() || !exps[j].eval_errors.empty())
          continue;
        // Identical write sets cannot conflict on the written value.
        if (ai.actions[i].writes == ai.actions[j].writes &&
            ai.actions[i].writes.count() <= 1)
          continue;
        const auto rel = absint::relate_guards(*a.guard, *b.guard, space);
        const char* how = nullptr;
        switch (rel) {
          case absint::GuardRelation::kEquivalent:
            how = "is equivalent to";
            break;
          case absint::GuardRelation::kLeftImpliesRight:
            how = "implies";
            break;
          case absint::GuardRelation::kRightImpliesLeft:
            how = "is implied by";
            break;
          default:
            break;
        }
        if (how == nullptr) continue;
        Diagnostic d;
        d.code = "RS102";
        d.severity = Severity::kNote;
        d.message = cat(
            "guard of action '", a.label, "' ", how, " the guard of '",
            b.label,
            "' (proved symbolically): wherever the narrower guard holds "
            "both actions compete and the scheduler picks "
            "nondeterministically");
        d.hint =
            "make the guards mutually exclusive, or acknowledge with "
            "'# lint: allow(RS102)'";
        d.span = b.span;
        c.emit(std::move(d));
      }
    }
  }

  // Build the protocol best-effort (skipping bad writes, treating
  // unevaluable legitimacy as false) and run the protocol-level passes.
  std::vector<LocalTransition> delta;
  for (const auto& ex : exps)
    delta.insert(delta.end(), ex.transitions.begin(), ex.transitions.end());
  std::vector<bool> legit(space.size(), false);
  std::string legit_error;
  for (LocalStateId s = 0; s < space.size(); ++s) {
    const LocalView view(space, s);
    try {
      legit[s] = src.legit && src.legit->eval(view) != 0;
    } catch (const ParseError& e) {
      if (legit_error.empty()) legit_error = e.what();
    }
  }
  if (!legit_error.empty()) {
    obs::Span sp("lint.pass.rs000");
    c.begin_pass();
    Diagnostic d;
    d.code = "RS000";
    d.severity = Severity::kError;
    d.message = cat("in 'legit': ", legit_error);
    d.span = src.legit_span;
    c.emit(std::move(d));
  }
  const Protocol p(src.name.empty() ? "<unnamed>" : src.name, space,
                   std::move(delta), std::move(legit));
  run_protocol_passes(p, c, merged, facts);
  return res;
}

LintResult lint_ring_file(const std::string& path, const LintOptions& opts) {
  obs::Span span("lint.file");
  try {
    return lint_ring_text(read_source_file(path), path, opts);
  } catch (const ParseError& e) {
    // read_source_file failed; report the unreadable file as RS000 with no
    // source span (lint_ring_text handles in-text parse errors itself).
    LintResult res;
    Collector c(res, opts, path);
    c.begin_pass();
    Diagnostic d;
    d.code = "RS000";
    d.severity = Severity::kError;
    d.message = e.what();
    c.emit(std::move(d));
    return res;
  }
}

LintResult lint_ring_text(const std::string& text, const std::string& path,
                          const LintOptions& opts) {
  try {
    return lint_source(parse_protocol_source(text, path), opts);
  } catch (const ParseError& e) {
    LintResult res;
    Collector c(res, opts, path);
    c.begin_pass();
    Diagnostic d;
    d.code = "RS000";
    d.severity = Severity::kError;
    // The parser's message already carries `path:line:column: error:`;
    // recover the span so the diagnostic structure matches.
    std::string msg = e.what();
    const std::string prefix = path + ":";
    if (msg.rfind(prefix, 0) == 0) {
      int line = 0, column = 0;
      std::size_t i = prefix.size();
      while (i < msg.size() && std::isdigit(static_cast<unsigned char>(msg[i])))
        line = line * 10 + (msg[i++] - '0');
      if (i < msg.size() && msg[i] == ':') {
        ++i;
        while (i < msg.size() &&
               std::isdigit(static_cast<unsigned char>(msg[i])))
          column = column * 10 + (msg[i++] - '0');
      }
      const std::string marker = ": error: ";
      const std::size_t at = msg.find(marker, prefix.size());
      if (line > 0 && at != std::string::npos) {
        d.span = SourceSpan{line, column};
        msg = msg.substr(at + marker.size());
      }
    }
    d.message = std::move(msg);
    c.emit(std::move(d));
    return res;
  }
}

std::vector<Diagnostic> lint_candidate_errors(const Protocol& p) {
  std::vector<Diagnostic> out;
  if (const auto cyc = find_t_arc_cycle(p)) {
    Diagnostic d;
    d.code = "RS002";
    d.severity = Severity::kError;
    d.message = cat("local transition cycle ",
                    render_cycle(p.space(), *cyc),
                    ": a single process can fire forever (Assumption 1 "
                    "fails); the trail pipeline is undefined");
    out.push_back(std::move(d));
  }
  if (p.num_legit() == 0) {
    Diagnostic d;
    d.code = "RS020";
    d.severity = Severity::kError;
    d.message = "LC_r holds in no local state: nothing to converge to";
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace ringstab
