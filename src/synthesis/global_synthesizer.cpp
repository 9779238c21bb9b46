#include "synthesis/global_synthesizer.hpp"

#include <optional>

#include "analysis/absint.hpp"
#include "core/fmt.hpp"
#include "core/printer.hpp"
#include "local/deadlock.hpp"
#include "obs/obs.hpp"

namespace ringstab {
namespace {

/// One candidate's fixed-K verdict, parked in its portfolio slot.
struct GlobalEval {
  bool prefiltered = false;  // discarded by the Theorem 4.2 prefilter
  bool ill_formed = false;   // refuted by the static lane (no revision)
  bool ok = false;           // strongly stabilizing for every configured K
  GlobalStateId states = 0;  // global states the K sweep cost
  std::optional<Protocol> pss;  // kept only when ok
};

GlobalEval evaluate_candidate(const Protocol& p,
                              const GlobalSynthesisOptions& options,
                              const StaticRejectionLane& lane,
                              const VerdictMemo* memo, std::size_t ordinal,
                              const std::vector<LocalTransition>& added) {
  GlobalEval eval;
  // The one candidate screen: an added-arc cycle is refuted from skeleton
  // facts before the revision is constructed. No trail certificates here —
  // this synthesizer's rejections are fixed-K facts a trail does not imply.
  if (lane.refute_ill_formed_only(added)) {
    eval.ill_formed = true;
    return eval;
  }

  Protocol pss =
      p.with_added(cat(p.name(), "_gss", ordinal), added);

  // status 0 iff the Theorem 4.2 prefilter discarded the candidate; flag:
  // strongly stabilizing for every configured K; amount: states explored.
  const auto sweep = [&] {
    CachedVerdict v;
    if (options.prefilter_with_theorem42 &&
        !analyze_deadlocks(pss, /*spectrum=*/2).deadlock_free_all_k)
      return v;
    v.status = 1;
    // The per-candidate K sweep stays serial: each K short-circuits the
    // next, and candidate-level fan-out already saturates the pool.
    bool ok = true;
    for (std::size_t k = options.min_ring; k <= options.max_ring && ok;
         ++k) {
      const RingInstance ring(pss, k, options.max_states);
      v.amount += ring.num_states();
      ok = strongly_stabilizing(ring);
    }
    v.flag = ok;
    return v;
  };
  CachedVerdict v;
  if (memo != nullptr) {
    std::string key = memo_key_protocol('G', pss);
    memo_append_u64(key, options.min_ring);
    memo_append_u64(key, options.max_ring);
    memo_append_u64(key, options.max_states);
    key.push_back(options.prefilter_with_theorem42 ? 1 : 0);
    v = memo->get_or_compute(key, sweep);
  } else {
    v = sweep();
  }
  eval.prefiltered = v.status == 0;
  eval.ok = v.flag;
  eval.states = v.amount;
  if (eval.ok) eval.pss = std::move(pss);
  return eval;
}

}  // namespace

GlobalSynthesisResult synthesize_convergence_global(
    const Protocol& p, const GlobalSynthesisOptions& options) {
  const obs::Span span("synth.global");
  obs::Counter& generated = obs::counter("synth.candidates_generated");
  obs::Counter& pruned = obs::counter("synth.candidates_pruned");
  obs::Counter& found = obs::counter("synth.solutions_found");
  obs::Counter& explored = obs::counter("synth.global_states_explored");
  obs::Counter& lint_rejected = obs::counter("lint.candidates_rejected");
  obs::Counter& static_rejects = obs::counter("synth.static_rejects");
  GlobalSynthesisResult res;
  const auto resolve_sets = [&] {
    const obs::Span enumerate("synth.enumerate");
    return enumerate_resolve_sets(p, options.max_resolve_sets);
  }();

  const StaticRejectionLane lane(p);

  const VerdictMemo* memo = options.memo.get();

  for (const auto& resolve : resolve_sets) {
    if (res.solutions.size() >= options.max_solutions) break;
    const auto batch = [&] {
      const obs::Span enumerate("synth.enumerate");
      return enumerate_candidate_sets(p, resolve, options.max_candidate_sets);
    }();
    const std::size_t base = res.candidates_examined;
    const std::size_t quota = options.max_solutions - res.solutions.size();
    run_portfolio<GlobalEval>(
        batch.size(), options.num_threads, quota,
        [&](std::size_t i) {
          return evaluate_candidate(p, options, lane, memo, base + i + 1,
                                    batch[i]);
        },
        [](const GlobalEval& e) { return e.ok; },
        [&](std::size_t i, GlobalEval eval) {
          if (res.solutions.size() >= options.max_solutions)
            return PortfolioStep::kStop;
          ++res.candidates_examined;
          generated.add(1);
          res.states_explored += eval.states;
          explored.add(eval.states);
          if (eval.ill_formed) {
            ++res.ill_formed_out;
            pruned.add(1);
            lint_rejected.add(1);
            static_rejects.add(1);
          } else if (eval.prefiltered) {
            ++res.prefiltered_out;
            pruned.add(1);
          } else if (eval.ok) {
            res.solutions.push_back({std::move(*eval.pss), batch[i], resolve});
            found.add(1);
          } else {
            pruned.add(1);
          }
          return PortfolioStep::kContinue;
        });
  }
  res.success = !res.solutions.empty();
  return res;
}

std::string GlobalSynthesisResult::summary(const Protocol& input) const {
  std::ostringstream os;
  os << "global fixed-K synthesis for " << input.name() << ": "
     << (success ? "SUCCESS" : "FAILURE") << "\n"
     << "  candidates examined: " << candidates_examined
     << "  solutions: " << solutions.size()
     << "  global states explored: " << states_explored << "\n";
  if (ill_formed_out > 0)
    os << "  rejected (ill-formed by lint): " << ill_formed_out << "\n";
  for (std::size_t i = 0; i < solutions.size() && i < 4; ++i)
    os << "  solution " << i + 1 << ": added "
       << join(solutions[i].added, "; ",
               [&](const LocalTransition& t) {
                 return describe_transition(solutions[i].protocol, t);
               })
       << "\n";
  if (solutions.size() > 4)
    os << "  … and " << solutions.size() - 4 << " more\n";
  return os.str();
}

}  // namespace ringstab
