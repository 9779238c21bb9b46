#include "analysis/absint.hpp"

#include <algorithm>
#include <set>

#include "analysis/lint.hpp"
#include "core/fmt.hpp"
#include "local/precedence.hpp"
#include "local/self_disabling.hpp"

namespace ringstab {

namespace absint {
namespace {

IntSet lift_truth(Truth t) {
  switch (t) {
    case Truth::kFalse: return IntSet::of(0);
    case Truth::kTrue: return IntSet::of(1);
    case Truth::kMaybe: return IntSet::from_values({0, 1});
  }
  return IntSet::top();
}

/// Pairwise arithmetic image; any failure (division by zero alternative)
/// degrades that pair to top.
IntSet arith(const std::string& op, const IntSet& l, const IntSet& r) {
  if (l.is_top() || r.is_top()) return IntSet::top();
  std::vector<long long> out;
  for (const long long a : l.values())
    for (const long long b : r.values()) {
      if (op == "+") out.push_back(a + b);
      else if (op == "-") out.push_back(a - b);
      else if (op == "*") out.push_back(a * b);
      else if (op == "/") {
        if (b == 0) return IntSet::top();
        out.push_back(a / b);
      } else if (op == "%") {
        if (b == 0) return IntSet::top();
        out.push_back(a % b);
      } else {
        return IntSet::top();
      }
      if (out.size() > IntSet::kMaxValues * IntSet::kMaxValues)
        return IntSet::top();
    }
  return IntSet::from_values(std::move(out));
}

bool cmp(const std::string& op, long long a, long long b) {
  if (op == "==") return a == b;
  if (op == "!=") return a != b;
  if (op == "<") return a < b;
  if (op == "<=") return a <= b;
  if (op == ">") return a > b;
  return a >= b;  // ">="
}

Truth compare(const std::string& op, const IntSet& l, const IntSet& r) {
  if (l.is_top() || r.is_top()) return Truth::kMaybe;
  bool any_true = false, any_false = false;
  for (const long long a : l.values())
    for (const long long b : r.values())
      (cmp(op, a, b) ? any_true : any_false) = true;
  if (any_true && any_false) return Truth::kMaybe;
  return any_true ? Truth::kTrue : Truth::kFalse;
}

bool is_comparison(const std::string& op) {
  return op == "==" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

std::string negate_comparison(const std::string& op) {
  if (op == "==") return "!=";
  if (op == "!=") return "==";
  if (op == "<") return ">=";
  if (op == "<=") return ">";
  if (op == ">") return "<=";
  return "<";  // ">="
}

std::string flip_comparison(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  return op;  // == and != are symmetric
}

/// Structural refinement of one comparison `x[k] OP rhs`: keep the values v
/// of offset k for which some rhs value satisfies v OP r.
void narrow_offset(Box& box, int offset, const std::string& op,
                   const IntSet& rhs, const Domain& domain) {
  if (!box.covers(offset) || rhs.is_top()) return;
  ValueSet kept;
  for (const Value v : box.at(offset).values(domain.size())) {
    for (const long long r : rhs.values())
      if (cmp(op, v, r)) {
        kept.add(v);
        break;
      }
  }
  box.at(offset) = kept;
}

void assume_into(Box& box, const Expr& guard, const Domain& domain,
                 bool negated);

/// Refinement of `a OP b` (comparison, possibly under negation).
void assume_comparison(Box& box, const Expr& lhs, std::string op,
                       const Expr& rhs, const Domain& domain, bool negated) {
  if (negated) op = negate_comparison(op);
  if (lhs.kind == Expr::Kind::kVar) {
    narrow_offset(box, lhs.offset, op, eval_abs(rhs, box, domain), domain);
  }
  if (rhs.kind == Expr::Kind::kVar) {
    narrow_offset(box, rhs.offset, flip_comparison(op),
                  eval_abs(lhs, box, domain), domain);
  }
}

void assume_into(Box& box, const Expr& guard, const Domain& domain,
                 bool negated) {
  switch (guard.kind) {
    case Expr::Kind::kUnary:
      if (guard.op == "!")
        assume_into(box, *guard.lhs, domain, !negated);
      return;
    case Expr::Kind::kBinary:
      if (is_comparison(guard.op)) {
        assume_comparison(box, *guard.lhs, guard.op, *guard.rhs, domain,
                          negated);
        return;
      }
      // `&&` refines both conjuncts; `¬(a || b)` is a conjunction too.
      if ((guard.op == "&&" && !negated) || (guard.op == "||" && negated)) {
        assume_into(box, *guard.lhs, domain, negated);
        assume_into(box, *guard.rhs, domain, negated);
        return;
      }
      // A disjunction refines to the join of the branch refinements.
      if ((guard.op == "||" && !negated) || (guard.op == "&&" && negated)) {
        Box l = box, r = box;
        assume_into(l, *guard.lhs, domain, negated);
        assume_into(r, *guard.rhs, domain, negated);
        box = l.join(r);
        return;
      }
      return;
    default:
      return;  // bare values / variables: no structural refinement
  }
}

}  // namespace

IntSet eval_abs(const Expr& e, const Box& box, const Domain& domain) {
  switch (e.kind) {
    case Expr::Kind::kInt:
      return IntSet::of(e.value);
    case Expr::Kind::kName: {
      const auto v = domain.value_of(e.name);
      return v ? IntSet::of(*v) : IntSet::top();  // unknown name: RS000's job
    }
    case Expr::Kind::kVar: {
      if (!box.covers(e.offset)) return IntSet::top();
      std::vector<long long> vals;
      for (const Value v : box.at(e.offset).values(domain.size()))
        vals.push_back(v);
      return IntSet::from_values(std::move(vals));
    }
    case Expr::Kind::kUnary: {
      if (e.op == "!") return lift_truth(truth_not(eval_guard(*e.lhs, box, domain)));
      const IntSet inner = eval_abs(*e.lhs, box, domain);  // "-"
      if (inner.is_top()) return IntSet::top();
      std::vector<long long> vals;
      for (const long long v : inner.values()) vals.push_back(-v);
      return IntSet::from_values(std::move(vals));
    }
    case Expr::Kind::kBinary: {
      if (e.op == "&&" || e.op == "||") {
        const Truth l = eval_guard(*e.lhs, box, domain);
        const Truth r = eval_guard(*e.rhs, box, domain);
        if (e.op == "&&") {
          if (l == Truth::kFalse || r == Truth::kFalse)
            return lift_truth(Truth::kFalse);
          if (l == Truth::kTrue && r == Truth::kTrue)
            return lift_truth(Truth::kTrue);
          return lift_truth(Truth::kMaybe);
        }
        if (l == Truth::kTrue || r == Truth::kTrue)
          return lift_truth(Truth::kTrue);
        if (l == Truth::kFalse && r == Truth::kFalse)
          return lift_truth(Truth::kFalse);
        return lift_truth(Truth::kMaybe);
      }
      if (is_comparison(e.op))
        return lift_truth(compare(e.op, eval_abs(*e.lhs, box, domain),
                                  eval_abs(*e.rhs, box, domain)));
      return arith(e.op, eval_abs(*e.lhs, box, domain),
                   eval_abs(*e.rhs, box, domain));
    }
  }
  return IntSet::top();
}

Truth eval_guard(const Expr& e, const Box& box, const Domain& domain) {
  return eval_abs(e, box, domain).truth();
}

Box assume(Box box, const Expr& guard, const Domain& domain) {
  assume_into(box, guard, domain, /*negated=*/false);
  // Filtering pass: drop any remaining value the guard refutes outright
  // when pinned. This catches relational guards the structural walk cannot
  // (e.g. x[-1] + x[0] == 2 narrowing nothing by itself but refuting
  // endpoints), at |window| · |D| extra guard evaluations.
  for (int off = box.min_offset(); off <= box.max_offset(); ++off) {
    ValueSet kept;
    for (const Value v : box.at(off).values(domain.size())) {
      Box pinned = box;
      pinned.at(off) = ValueSet::of(v);
      if (eval_guard(guard, pinned, domain) != Truth::kFalse) kept.add(v);
    }
    box.at(off) = kept;
  }
  return box;
}

Box transfer(const Box& in, const Expr& effect, const Domain& domain) {
  Box out = in;
  const IntSet image = eval_abs(effect, in, domain);
  if (image.is_top()) {
    out.at(0) = ValueSet::all(domain.size());
    return out;
  }
  ValueSet written;
  for (const long long v : image.values())
    if (domain.contains(v)) written.add(static_cast<Value>(v));
  out.at(0) = written;
  return out;
}

GuardRelation relate_guards(const Expr& a, const Expr& b,
                            const LocalStateSpace& space) {
  const Domain& domain = space.domain();
  const Box top = Box::top(space);
  const Box in_a = assume(top, a, domain);
  const Box in_b = assume(top, b, domain);
  const bool a_unsat = in_a.is_bottom() || eval_guard(a, in_a, domain) == Truth::kFalse;
  const bool b_unsat = in_b.is_bottom() || eval_guard(b, in_b, domain) == Truth::kFalse;
  if (a_unsat || b_unsat) return GuardRelation::kDisjoint;
  // a ⇒ b iff b is provably true on every state satisfying a; the
  // guard-refined box over-approximates that set, so kTrue there is a proof.
  const bool a_implies_b = eval_guard(b, in_a, domain) == Truth::kTrue;
  const bool b_implies_a = eval_guard(a, in_b, domain) == Truth::kTrue;
  if (a_implies_b && b_implies_a) return GuardRelation::kEquivalent;
  if (a_implies_b) return GuardRelation::kLeftImpliesRight;
  if (b_implies_a) return GuardRelation::kRightImpliesLeft;
  const bool disjoint = eval_guard(b, in_a, domain) == Truth::kFalse ||
                        eval_guard(a, in_b, domain) == Truth::kFalse;
  return disjoint ? GuardRelation::kDisjoint : GuardRelation::kUnknown;
}

}  // namespace absint

using absint::Box;
using absint::Truth;
using absint::ValueSet;

AbsintResult analyze_source(const ProtocolSource& src) {
  const LocalStateSpace space(src.domain, src.locality);
  const Domain& domain = src.domain;
  AbsintResult res;
  res.actions.reserve(src.actions.size());

  for (const auto& a : src.actions) {
    ActionFacts facts;
    facts.in = Box::top(space);
    facts.out = Box::top(space);
    if (!a.guard) {
      res.actions.push_back(std::move(facts));
      continue;
    }
    facts.guard_truth = eval_guard(*a.guard, Box::top(space), domain);
    facts.in = absint::assume(Box::top(space), *a.guard, domain);
    if (facts.in.is_bottom()) facts.guard_truth = Truth::kFalse;

    // Self-disablement (Assumption 2) is a property of the *process*: after
    // the write, no action — not merely this one — may be enabled. Check
    // every guard against every effect image.
    bool all_disable = !a.effects.empty();
    Box joined = facts.in;
    bool first = true;
    for (const auto& effect : a.effects) {
      if (!effect) {
        all_disable = false;
        continue;
      }
      const Box out_e = absint::transfer(facts.in, *effect, domain);
      facts.writes = facts.writes | out_e.at(0);
      joined = first ? out_e : joined.join(out_e);
      first = false;
      if (out_e.is_bottom()) continue;  // the alternative never fires
      for (const auto& b : src.actions) {
        if (!b.guard) {
          all_disable = false;
          break;
        }
        if (eval_guard(*b.guard, out_e, domain) != Truth::kFalse) {
          all_disable = false;
          break;
        }
      }
    }
    facts.out = joined;
    // A vacuous action fires nowhere; it is trivially self-disabling.
    facts.proved_self_disabling =
        facts.guard_truth == Truth::kFalse || facts.in.is_bottom() ||
        all_disable;
    res.actions.push_back(std::move(facts));
  }

  res.all_proved_self_disabling =
      !res.actions.empty() &&
      std::all_of(res.actions.begin(), res.actions.end(),
                  [](const ActionFacts& f) { return f.proved_self_disabling; });

  // Persistent written-value envelope: descending Kleene iteration from
  // W_0 = D. Each step re-evaluates every action's write image over a box
  // whose every offset is restricted to W_n — sound because once every
  // process has moved n times, every readable variable's value lies in W_n.
  ValueSet w = ValueSet::all(domain.size());
  for (std::size_t iter = 0; iter <= domain.size(); ++iter) {
    Box env = Box::top(space);
    for (int off = env.min_offset(); off <= env.max_offset(); ++off)
      env.at(off) = env.at(off) & w;
    ValueSet next;
    for (std::size_t i = 0; i < src.actions.size(); ++i) {
      const auto& a = src.actions[i];
      if (!a.guard) continue;
      const Box in = absint::assume(env, *a.guard, domain);
      if (in.is_bottom()) continue;
      for (const auto& effect : a.effects) {
        if (!effect) continue;
        next = next | absint::transfer(in, *effect, domain).at(0);
      }
    }
    if (next == w) break;
    w = next;
  }
  res.persistent_values = w;
  return res;
}

absint::Truth prove_invariant_closure(const ProtocolSource& src) {
  if (!src.legit) return Truth::kMaybe;
  const LocalStateSpace space(src.domain, src.locality);
  const Domain& domain = src.domain;
  const Box top = Box::top(space);

  for (const auto& a : src.actions) {
    if (!a.guard) return Truth::kMaybe;
    // The mover fires inside I: its guard and its own LC hold.
    Box in = absint::assume(top, *a.guard, domain);
    in = absint::assume(in, *src.legit, domain);
    if (in.is_bottom()) continue;  // the action never fires inside I
    ValueSet written;
    for (const auto& effect : a.effects) {
      if (!effect) return Truth::kMaybe;
      const Box out = absint::transfer(in, *effect, domain);
      // The mover's own LC must survive its write.
      if (eval_guard(*src.legit, out, domain) != Truth::kTrue)
        return Truth::kMaybe;
      written = written | out.at(0);
    }
    // Every neighbor reading the written variable at offset `off` must keep
    // its LC too: its box is ⊤ refined by LC with the pre-write value range
    // at `off`, and LC must stay provably true once `off` is replaced by
    // the write image.
    for (int off = top.min_offset(); off <= top.max_offset(); ++off) {
      if (off == 0) continue;
      Box nb = absint::assume(top, *src.legit, domain);
      nb.at(off) = nb.at(off) & in.at(0);  // pre-write value seen at `off`
      if (nb.is_bottom()) continue;        // no legitimate neighbor sees it
      nb.at(off) = written;
      if (nb.is_bottom()) continue;
      if (eval_guard(*src.legit, nb, domain) != Truth::kTrue)
        return Truth::kMaybe;
    }
  }
  return Truth::kTrue;
}

TrailReplay replay_trail(const Protocol& p, const ContiguousTrail& trail) {
  TrailReplay res;
  const auto& space = p.space();
  const std::size_t k = static_cast<std::size_t>(trail.implied_ring_size());
  res.ring_size = k;
  const auto start = trail.round_start_ring(p);
  if (!start) return res;  // kNotInstantiable
  std::vector<Value> ring = *start;

  // Walk the trail as the execution it shadows: the walk visits ring
  // positions left to right with wraparound — an s-arc moves the focus one
  // process rightward, a t-arc fires the focused process in place. Every
  // step asserts what the focused process's window must read at that
  // moment; a mismatch proves no execution of the ring follows the trail.
  res.verdict = TrailReplay::Verdict::kUnrealizable;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < trail.steps.size(); ++i) {
    const TrailStep& step = trail.steps[i];
    if (step.is_t) {
      const LocalStateId actual = local_state_of(p, ring, pos % k);
      if (actual != step.from) {
        res.reason = cat(
            "step ", i + 1, " expects process ", pos % k, " in local state ",
            space.brief(step.from), " before t#", step.t_arc_index,
            ", but the preceding writes leave it in ", space.brief(actual),
            ": no execution of the ring follows this trail");
        return res;
      }
      ring[pos % k] = space.self(step.to);
    } else {
      ++pos;
      const LocalStateId actual = local_state_of(p, ring, pos % k);
      if (actual != step.to) {
        res.reason = cat(
            "step ", i + 1, " claims process ", pos % k, " sits in local state ",
            space.brief(step.to), ", but the execution so far leaves it in ",
            space.brief(actual),
            ": no execution of the ring follows this trail");
        return res;
      }
    }
  }
  // Closure: the walk re-enters its start vertex at position `pos`, so the
  // final configuration must be the start configuration rotated by the
  // total s-arc drift — the livelock repeats shifted, not pinned.
  for (std::size_t i = 0; i < k; ++i) {
    if (ring[(i + pos) % k] != (*start)[i]) {
      res.reason =
          "the trail's writes do not reproduce the start configuration "
          "(rotated by the walk's drift), so the walk does not close into "
          "an execution cycle";
      return res;
    }
  }
  res.verdict = TrailReplay::Verdict::kRealizable;
  return res;
}

namespace {

/// Write-projection check for the E = 1 certificate without building a
/// Protocol: the projected value multigraph of the chosen t-arcs must have
/// every arc on a directed value cycle (Def. 5.13 lifted to sets).
bool projection_forms_pseudo_livelocks(
    const LocalStateSpace& space, const std::vector<LocalTransition>& arcs) {
  const std::size_t n = space.domain().size();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& t : arcs)
    adj[space.self(t.from)][space.self(t.to)] = true;
  // reach[a][b]: b reachable from a in ≥ 1 step.
  std::vector<std::vector<bool>> reach = adj;
  for (std::size_t m = 0; m < n; ++m)
    for (std::size_t a = 0; a < n; ++a)
      if (reach[a][m])
        for (std::size_t b = 0; b < n; ++b)
          if (reach[m][b]) reach[a][b] = true;
  for (const auto& t : arcs) {
    const Value from = space.self(t.from);
    const Value to = space.self(t.to);
    if (!(to == from || reach[to][from])) return false;
  }
  return true;
}

}  // namespace

StaticRejectionLane::StaticRejectionLane(const Protocol& skeleton,
                                         const TrailQuery& query)
    : skeleton_(skeleton) {
  skeleton_errors_ = lint_candidate_errors(skeleton);
  skeleton_self_disabling_ = is_self_disabling(skeleton);
  skeleton_enabled_.assign(skeleton.num_states(), false);
  for (const auto& t : skeleton.delta()) skeleton_enabled_[t.from] = true;
  // The certificate stage needs the concrete search to (a) accept an
  // |E| = 1 trail — true under the default require flags and under weaker
  // ones — and (b) consider every t-arc. A whitelist or a starved node
  // budget voids that; the ill-formedness screen stays on regardless.
  trail_certificates_ =
      query.t_arc_whitelist.empty() && query.node_budget >= 1'000'000;
}

std::optional<StaticRejectionLane::Rejection> StaticRejectionLane::refute(
    const std::vector<LocalTransition>& added) const {
  return refute_impl(added, /*try_trail=*/true);
}

std::optional<StaticRejectionLane::Rejection>
StaticRejectionLane::refute_ill_formed_only(
    const std::vector<LocalTransition>& added) const {
  return refute_impl(added, /*try_trail=*/false);
}

std::optional<StaticRejectionLane::Rejection> StaticRejectionLane::refute_impl(
    const std::vector<LocalTransition>& added, bool try_trail) const {
  // Errors of the skeleton itself (a pre-existing t-arc cycle, an empty
  // LC_r) are inherited by every revision: lint_candidate_errors on the
  // candidate would find the same findings.
  if (!skeleton_errors_.empty()) {
    Rejection rej;
    rej.kind = Rejection::Kind::kIllFormed;
    rej.diagnostics = skeleton_errors_;
    return rej;
  }

  // A candidate adds at most one transition per (deadlock) source state and
  // only targets states the skeleton does not fire from. Any t-arc cycle of
  // the revision therefore chains added arcs exclusively: skeleton arcs
  // start at skeleton-enabled states, which no arc of the revision can
  // enter (all targets are skeleton-deadlocks). Detecting a cycle among the
  // added arcs alone is thus exactly lint_candidate_errors' RS002 check.
  const auto next_added = [&](LocalStateId s) -> const LocalTransition* {
    for (const auto& t : added)
      if (t.from == s) return &t;
    return nullptr;
  };
  for (std::size_t i = 0; i < added.size(); ++i) {
    // Follow the added-arc chain from added[i] with a step cap of the set
    // size; revisiting the origin proves the cycle.
    LocalStateId at = added[i].to;
    for (std::size_t steps = 0; steps < added.size(); ++steps) {
      if (at == added[i].from) {
        Rejection rej;
        rej.kind = Rejection::Kind::kIllFormed;
        Diagnostic d;
        d.code = "RS002";
        d.severity = Severity::kError;
        std::string cyc = skeleton_.space().brief(added[i].from);
        LocalStateId walk = added[i].to;
        cyc += cat(" -> ", skeleton_.space().brief(walk));
        while (walk != added[i].from) {
          const LocalTransition* n = next_added(walk);
          walk = n->to;
          cyc += cat(" -> ", skeleton_.space().brief(walk));
        }
        d.message = cat(
            "added transitions close the local cycle ", cyc,
            ": a single process can fire forever (Assumption 1 fails); the "
            "trail pipeline is undefined [static]");
        rej.diagnostics.push_back(std::move(d));
        return rej;
      }
      const LocalTransition* n = next_added(at);
      if (n == nullptr) break;
      at = n->to;
    }
  }

  if (!try_trail || !trail_certificates_ || !skeleton_self_disabling_)
    return std::nullopt;

  // The certificate runs on the revision itself, so the revision must be
  // self-disabling (otherwise the concrete search analyzes the
  // make_self_disabling image, whose arcs differ): no arc target may have
  // gained an outgoing added arc.
  const auto target_enabled = [&](LocalStateId s) {
    if (skeleton_enabled_[s]) return true;
    return std::any_of(added.begin(), added.end(),
                       [&](const LocalTransition& t) { return t.from == s; });
  };
  for (const auto& t : skeleton_.delta())
    if (target_enabled(t.to)) return std::nullopt;
  for (const auto& t : added)
    if (target_enabled(t.to)) return std::nullopt;

  // |E| = 1 certificate: a cyclic chain of distinct t-arcs t_0 … t_{L-1}
  // with right_continues(to(t_i), from(t_{i+1})), pairwise-distinct s-arc
  // ids, a ¬LC_r visit, and a repetitive write projection is a qualifying
  // contiguous trail outright (w1 is automatic at |E| = 1), so the search
  // must report kTrailFound. Bounded DFS; giving up is always sound.
  const auto& space = skeleton_.space();
  std::vector<LocalTransition> arcs(skeleton_.delta().begin(),
                                    skeleton_.delta().end());
  arcs.insert(arcs.end(), added.begin(), added.end());
  std::sort(arcs.begin(), arcs.end());

  constexpr std::size_t kNodeCap = 65'536;
  std::size_t nodes = 0;
  std::vector<std::size_t> chain;
  std::vector<bool> used(arcs.size(), false);
  std::set<std::pair<LocalStateId, Value>> s_ids;  // (source, top value)

  const int right = space.locality().right;
  const auto rightmost = [&](LocalStateId v) {
    return space.value(v, right);
  };
  const auto illegit = [&](LocalStateId v) {
    return !skeleton_.is_legit(v);
  };

  std::optional<ContiguousTrail> found;
  auto dfs = [&](auto&& self, std::size_t start) -> bool {
    if (found || ++nodes > kNodeCap) return false;
    const std::size_t cur = chain.back();
    // Try closing the cycle back to the start arc.
    if (space.right_continues(arcs[cur].to, arcs[start].from) &&
        !s_ids.count({arcs[cur].to, rightmost(arcs[start].from)})) {
      bool visits_illegit = false;
      std::vector<LocalTransition> chosen;
      for (const std::size_t i : chain) {
        chosen.push_back(arcs[i]);
        if (illegit(arcs[i].from) || illegit(arcs[i].to))
          visits_illegit = true;
      }
      if (visits_illegit &&
          projection_forms_pseudo_livelocks(space, chosen)) {
        ContiguousTrail trail;
        trail.num_enabled = 1;
        trail.propagation = 1;
        trail.rounds = static_cast<int>(chain.size());
        for (std::size_t pos = 0; pos < chain.size(); ++pos) {
          const LocalTransition& t = arcs[chain[pos]];
          const LocalTransition& nxt =
              arcs[chain[(pos + 1) % chain.size()]];
          TrailStep ts;
          ts.is_t = true;
          ts.from = t.from;
          ts.to = t.to;
          ts.t_arc_index = chain[pos];  // arcs is sorted = revision delta()
          trail.steps.push_back(ts);
          TrailStep ss;
          ss.is_t = false;
          ss.from = t.to;
          ss.to = nxt.from;
          trail.steps.push_back(ss);
        }
        found = std::move(trail);
        return true;
      }
    }
    for (std::size_t j = 0; j < arcs.size(); ++j) {
      if (used[j] || found) continue;
      if (!space.right_continues(arcs[cur].to, arcs[j].from)) continue;
      const std::pair<LocalStateId, Value> sid{arcs[cur].to,
                                               rightmost(arcs[j].from)};
      if (s_ids.count(sid)) continue;
      used[j] = true;
      chain.push_back(j);
      s_ids.insert(sid);
      self(self, start);
      s_ids.erase(sid);
      chain.pop_back();
      used[j] = false;
      if (found) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < arcs.size() && !found; ++i) {
    chain.assign(1, i);
    used.assign(arcs.size(), false);
    used[i] = true;
    s_ids.clear();
    dfs(dfs, i);
  }
  if (!found) return std::nullopt;

  Rejection rej;
  rej.kind = Rejection::Kind::kTrail;
  rej.trail = std::move(found);
  return rej;
}

}  // namespace ringstab
