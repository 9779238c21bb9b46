#include "synthesis/array_synthesizer.hpp"

#include <algorithm>

#include "core/fmt.hpp"
#include "core/printer.hpp"
#include "global/checker.hpp"
#include "local/array.hpp"
#include "local/rcg.hpp"
#include "local/self_disabling.hpp"
#include "obs/obs.hpp"
#include "synthesis/candidates.hpp"
#include "synthesis/portfolio.hpp"

namespace ringstab {
namespace {

/// The input's closure of I is spot-checked globally at this array length.
constexpr std::size_t kClosureCheckLength = 5;
/// Solutions returned at most: the first ones of the candidate odometer.
constexpr std::size_t kMaxSolutions = 64;

// The Resolve set: the ¬LC_r deadlocks that a walk of local deadlocks from
// a position-0 state reaches through LC_r states only. Such a walk is a bad
// walk that its last state alone cuts, and every bad walk begins with one,
// so this set is the unique minimal cut (docs/theory.md §4). One BFS, which
// collects ¬LC_r states instead of expanding them; sorted.
std::vector<LocalStateId> resolve_set(const Protocol& p, const Digraph& rcg) {
  // With left span 1, position 0 reads ⊥ then a real value, and every
  // later position (here 1 of 2) reads two real values.
  std::vector<bool> seen(p.num_states(), false);
  std::vector<LocalStateId> queue;
  for (LocalStateId s = 0; s < p.num_states(); ++s) {
    if (!p.is_deadlock(s) || !feasible_array_state(p, s, 0, 1)) continue;
    seen[s] = true;
    queue.push_back(s);
  }
  std::vector<LocalStateId> resolve;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const LocalStateId s = queue[head];
    if (!p.is_legit(s)) {
      resolve.push_back(s);
      continue;
    }
    for (VertexId t : rcg.out(s)) {
      if (seen[t] || !p.is_deadlock(t) || !feasible_array_state(p, t, 1, 2))
        continue;
      seen[t] = true;
      queue.push_back(t);
    }
  }
  std::sort(resolve.begin(), resolve.end());
  return resolve;
}

/// One built-and-verified candidate, parked in its portfolio slot (every
/// array candidate is accepted; the verdict only carries the artifacts).
struct ArrayEval {
  Protocol pss;
  std::vector<LocalTransition> added;
};

}  // namespace

ArraySynthesisResult synthesize_array_convergence(
    const Protocol& p, const ArraySynthesisOptions& options) {
  const obs::Span span("synth.array");
  validate_array_protocol(p);
  if (!p.locality().is_unidirectional() || p.locality().left != 1)
    throw ModelError(
        "array synthesis supports unidirectional localities with left span "
        "1 (reads x[-1]..x[0])");
  if (!is_self_disabling(p))
    throw ModelError("array synthesis requires a self-disabling input");

  if (!GlobalChecker(RingInstance::array(p, kClosureCheckLength))
           .check_closure())
    throw ModelError(cat("input invariant is not closed (witnessed at array "
                         "length ",
                         kClosureCheckLength, ")"));

  ArraySynthesisResult res;
  obs::Counter& generated = obs::counter("synth.candidates_generated");
  obs::Counter& found = obs::counter("synth.solutions_found");
  const std::vector<LocalStateId>& resolve =
      res.resolve_sets.emplace_back(resolve_set(p, build_rcg(p.space())));

  // Candidates per resolved state: real-valued writes into a state that
  // neither fires nor is resolved itself. Every candidate is accepted, so
  // the first kMaxSolutions of the odometer are the solutions.
  const Value bot = boundary_value(p);
  std::vector<std::vector<LocalTransition>> per_state;
  std::size_t batch = 1;
  for (LocalStateId s : resolve) {
    auto cands = candidate_transitions(p, s);
    std::erase_if(cands, [&](const LocalTransition& t) {
      return p.space().self(t.to) == bot ||
             std::binary_search(resolve.begin(), resolve.end(), t.to);
    });
    if (cands.empty()) return res;  // this Resolve set cannot be realized
    batch = std::min(batch * cands.size(), kMaxSolutions);
    per_state.push_back(std::move(cands));
  }

  run_portfolio<ArrayEval>(
      batch, options.num_threads, /*accept_quota=*/0,
      [&](std::size_t j) {
        // Decode candidate j of the odometer (index 0 least significant).
        std::vector<LocalTransition> added;
        std::size_t rem = j;
        for (const auto& cands : per_state) {
          added.push_back(cands[rem % cands.size()]);
          rem /= cands.size();
        }
        Protocol pss = p.with_added(cat(p.name(), "_ass", j + 1), added);
        // Defensive re-check of the local theorem on the revision.
        RINGSTAB_ASSERT(analyze_array_deadlocks(pss, 8).deadlock_free_all_n,
                        "array Resolve set failed to cut all bad walks");
        return ArrayEval{std::move(pss), std::move(added)};
      },
      [](const ArrayEval&) { return true; },
      [&](std::size_t, ArrayEval eval) {
        ++res.candidates_examined;
        generated.add(1);
        res.solutions.push_back(
            {std::move(eval.pss), std::move(eval.added), resolve});
        found.add(1);
        return PortfolioStep::kContinue;
      });
  res.success = !res.solutions.empty();
  return res;
}

std::string ArraySynthesisResult::summary(const Protocol& input) const {
  std::ostringstream os;
  os << "array synthesis for " << input.name() << ": "
     << (success ? "SUCCESS" : "FAILURE") << "\n"
     << "  resolve sets: " << resolve_sets.size()
     << "  candidates examined: " << candidates_examined
     << "  solutions: " << solutions.size()
     << " (livelock-freedom is automatic: unidirectional self-disabling "
        "arrays terminate)\n";
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
