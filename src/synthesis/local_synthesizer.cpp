#include "synthesis/local_synthesizer.hpp"

#include <algorithm>

#include "analysis/absint.hpp"
#include "core/fmt.hpp"
#include "core/printer.hpp"
#include "global/checker.hpp"
#include "local/livelock.hpp"
#include "local/pseudo_livelock.hpp"
#include "local/self_disabling.hpp"
#include "obs/obs.hpp"

namespace ringstab {
namespace {

/// One evaluated candidate, parked in its portfolio slot until the
/// ascending merge (see portfolio.hpp).
struct LocalEval {
  CandidateReport report;
  std::optional<Protocol> pss;  // kept only when accepted (solutions need it)
};

/// Methodology steps 4–5 for one candidate set: a pure function of
/// (p, options, ordinal, added), safe to run on any pool lane.
LocalEval evaluate_candidate(const Protocol& p, const SynthesisOptions& options,
                             const StaticRejectionLane& lane,
                             const VerdictMemo* memo, std::size_t ordinal,
                             const std::vector<LocalTransition>& added) {
  LocalEval eval;
  CandidateReport& report = eval.report;
  report.added = added;

  // The static rejection lane is the one candidate screen: it refutes
  // ill-formed candidates (a t-arc cycle — Assumption 1 fails and the trail
  // pipeline below is undefined) and certified |E| = 1 trails from
  // skeleton facts alone, before the revision Protocol is even built.
  if (auto rej = lane.refute(added)) {
    report.static_reject = true;
    if (rej->kind == StaticRejectionLane::Rejection::Kind::kIllFormed) {
      report.status = CandidateReport::Status::kRejectedIllFormed;
      report.ill_formed = std::move(rej->diagnostics);
    } else {
      report.status = CandidateReport::Status::kRejectedTrail;
      report.trail = std::move(rej->trail);
    }
    return eval;
  }

  Protocol pss = p.with_added(cat(p.name(), "_ss", ordinal), added);

  // Step 4 fast path (NPL): if the write projection of the *entire* δ_r of
  // p_ss has no value cycle, no subset can form a pseudo-livelock, so
  // Theorem 5.14 certifies livelock-freedom with no trail search. The
  // verdict depends only on the projected write-pair set, so candidates
  // sharing that signature share one memo entry.
  const auto npl = [&] {
    CachedVerdict v;
    v.flag = WriteProjection(pss, {}).has_pseudo_livelock();
    return v;
  };
  const bool npl_livelock_free =
      !(memo != nullptr ? memo->get_or_compute(memo_key_npl(pss), npl) : npl())
           .flag;

  if (npl_livelock_free) {
    report.status = CandidateReport::Status::kAcceptedNpl;
  } else {
    // Step 5 (PL): search for a qualifying contiguous trail in the LTG of
    // the self-disabled p_ss. The search reads nothing but that
    // self-disabled image, so distinct additions collapsing to one
    // self-disabled LTG share the trail verdict.
    const auto search = [&] {
      const LivelockAnalysis live =
          check_livelock_freedom(pss, options.trail_query);
      auto status = CandidateReport::Status::kInconclusive;
      CachedVerdict v;
      switch (live.verdict) {
        case LivelockAnalysis::Verdict::kLivelockFree:
          status = CandidateReport::Status::kAcceptedPl;
          break;
        case LivelockAnalysis::Verdict::kTrailFound:
          status = CandidateReport::Status::kRejectedTrail;
          v.trail = live.trail();
          break;
        case LivelockAnalysis::Verdict::kInconclusive:
          break;
      }
      v.status = static_cast<std::uint8_t>(status);
      return v;
    };
    CachedVerdict verdict;
    if (memo != nullptr) {
      std::string key = memo_key_protocol(
          'T', is_self_disabling(pss) ? pss : make_self_disabling(pss));
      memo_append_query(key, options.trail_query);
      verdict = memo->get_or_compute(key, search);
    } else {
      verdict = search();
    }
    report.status = static_cast<CandidateReport::Status>(verdict.status);
    report.trail = std::move(verdict.trail);

    if (report.status == CandidateReport::Status::kRejectedTrail &&
        options.classify_rejected_trails) {
      try {
        report.realization = realize_trail(pss, *report.trail).verdict;
      } catch (const CapacityError&) {
        // implied K too large for RingInstance's state cap
      }
    }
  }

  if (report.accepted()) {
    // Defensive: the Resolve construction guarantees deadlock-freedom;
    // verify the Theorem 4.2 condition on the revised protocol anyway.
    const DeadlockAnalysis dl = analyze_deadlocks(pss, /*spectrum=*/2);
    RINGSTAB_ASSERT(dl.deadlock_free_all_k,
                    "Resolve set failed to break all bad cycles");
    eval.pss = std::move(pss);
  }
  return eval;
}

}  // namespace

SynthesisResult synthesize_convergence(const Protocol& p,
                                       const SynthesisOptions& options) {
  const obs::Span span("synth.local");
  obs::Counter& generated = obs::counter("synth.candidates_generated");
  obs::Counter& pruned = obs::counter("synth.candidates_pruned");
  obs::Counter& found = obs::counter("synth.solutions_found");
  obs::Counter& ill_formed = obs::counter("lint.candidates_rejected");
  obs::Counter& static_rejects = obs::counter("synth.static_rejects");
  SynthesisResult res;
  res.closure = check_invariant_closure(p);
  if (options.require_closed_invariant &&
      res.closure.verdict != ClosureCheck::Verdict::kClosed) {
    // The local check is sound but conservative: confirm the suspected
    // violation on a small concrete ring before rejecting the input.
    const std::size_t k =
        static_cast<std::size_t>(p.locality().window()) + 2;
    const RingInstance ring(p, k);
    if (!GlobalChecker(ring).check_closure())
      throw ModelError(cat("Problem 3.1 input invalid: ",
                           res.closure.describe(p), " (confirmed at K=", k,
                           ")"));
  }

  {
    const obs::Span enumerate("synth.enumerate");
    res.resolve_sets = enumerate_resolve_sets(p, options.max_resolve_sets);
  }

  const StaticRejectionLane lane(p, options.trail_query);

  std::shared_ptr<VerdictMemo> local_memo;
  const VerdictMemo* memo = nullptr;
  if (options.memoize) {
    local_memo =
        options.memo ? options.memo : std::make_shared<VerdictMemo>();
    memo = local_memo.get();
  }

  for (const auto& resolve : res.resolve_sets) {
    if (res.solutions.size() >= options.max_solutions) break;
    const auto batch = [&] {
      const obs::Span enumerate("synth.enumerate");
      return enumerate_candidate_sets(p, resolve, options.max_candidate_sets);
    }();
    const std::size_t base = res.candidates_examined;
    const std::size_t quota = options.max_solutions - res.solutions.size();
    run_portfolio<LocalEval>(
        batch.size(), options.num_threads, quota,
        [&](std::size_t i) {
          return evaluate_candidate(p, options, lane, memo, base + i + 1,
                                    batch[i]);
        },
        [](const LocalEval& e) { return e.report.accepted(); },
        [&](std::size_t, LocalEval eval) {
          if (res.solutions.size() >= options.max_solutions)
            return PortfolioStep::kStop;
          ++res.candidates_examined;
          generated.add(1);
          const bool accepted = eval.report.accepted();
          if (accepted) {
            SynthesisSolution sol{std::move(*eval.pss), eval.report.added,
                                  resolve,
                                  eval.report.status ==
                                      CandidateReport::Status::kAcceptedNpl};
            res.solutions.push_back(std::move(sol));
            found.add(1);
          } else {
            pruned.add(1);
            // Counted here, in the deterministic ascending merge, so the
            // total is invariant under thread count and quota early-exit.
            if (eval.report.status ==
                CandidateReport::Status::kRejectedIllFormed)
              ill_formed.add(1);
            if (eval.report.static_reject) static_rejects.add(1);
          }
          if (options.keep_rejected_reports || accepted)
            res.reports.push_back(std::move(eval.report));
          return PortfolioStep::kContinue;
        });
  }
  res.success = !res.solutions.empty();
  return res;
}

std::string SynthesisResult::summary(const Protocol& input) const {
  std::ostringstream os;
  os << "synthesis for " << input.name() << ": "
     << (success ? "SUCCESS" : "FAILURE") << "\n"
     << "  resolve sets: " << resolve_sets.size() << "  candidates examined: "
     << candidates_examined << "  solutions: " << solutions.size() << "\n";
  std::size_t rejected = 0, inconclusive = 0, real = 0, spurious = 0,
              ill = 0;
  for (const auto& r : reports) {
    if (r.status == CandidateReport::Status::kRejectedTrail) {
      ++rejected;
      if (r.realization) {
        if (*r.realization == TrailRealization::kRealized ||
            *r.realization == TrailRealization::kOtherLivelock)
          ++real;
        else
          ++spurious;
      }
    }
    if (r.status == CandidateReport::Status::kInconclusive) ++inconclusive;
    if (r.status == CandidateReport::Status::kRejectedIllFormed) ++ill;
  }
  os << "  rejected (trail found): " << rejected;
  if (real + spurious > 0)
    os << " (" << real << " realized as livelocks, " << spurious
       << " spurious at the implied K)";
  os << "  inconclusive: " << inconclusive << "\n";
  if (ill > 0) os << "  rejected (ill-formed by lint): " << ill << "\n";
  for (std::size_t i = 0; i < solutions.size() && i < 4; ++i) {
    os << "  solution " << i + 1 << (solutions[i].via_npl ? " (NPL)" : " (PL)")
       << ": added "
       << join(solutions[i].added, "; ",
               [&](const LocalTransition& t) {
                 return describe_transition(solutions[i].protocol, t);
               })
       << "\n";
  }
  if (solutions.size() > 4)
    os << "  … and " << solutions.size() - 4 << " more\n";
  return os.str();
}

}  // namespace ringstab
