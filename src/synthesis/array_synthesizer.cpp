#include "synthesis/array_synthesizer.hpp"

#include <algorithm>
#include <set>

#include "core/fmt.hpp"
#include "core/printer.hpp"
#include "global/checker.hpp"
#include "local/array.hpp"
#include "local/rcg.hpp"
#include "local/self_disabling.hpp"
#include "obs/obs.hpp"
#include "synthesis/portfolio.hpp"

namespace ringstab {
namespace {

/// The input's closure of I is spot-checked globally at this array length.
constexpr std::size_t kClosureCheckLength = 5;

// A bad walk: s_0 (left-boundary deadlock) → ... → s_m, all deadlocks not
// in `removed`, interior states ⊥-free, visiting some illegitimate state.
// Returns a shortest witness (BFS) or nullopt.
std::optional<std::vector<LocalStateId>> find_bad_walk(
    const Protocol& p, const Digraph& rcg, const std::vector<bool>& removed) {
  const Value bot = boundary_value(p);
  const auto& space = p.space();
  const int left = space.locality().left;

  auto is_start = [&](LocalStateId s) {
    // Feasible for position 0 of a long array: every negative offset ⊥,
    // the rest real.
    for (int off = -left; off <= 0; ++off)
      if ((space.value(s, off) == bot) != (off < 0)) return false;
    return true;
  };
  auto is_interior = [&](LocalStateId s) {
    for (int off = -left; off <= 0; ++off)
      if (space.value(s, off) == bot) return false;
    return true;
  };

  // BFS over (state), parents for witness reconstruction. Starts are
  // boundary-grade states for positions 0..left-1; to keep this simple (and
  // exact for left == 1, the supported case), we treat position-0 starts
  // and interior continuations.
  std::vector<LocalStateId> parent(p.num_states(), kInvalidLocalState);
  std::vector<bool> seen(p.num_states(), false);
  std::vector<LocalStateId> queue;
  for (LocalStateId s = 0; s < p.num_states(); ++s) {
    if (!p.is_deadlock(s) || removed[s] || !is_start(s)) continue;
    seen[s] = true;
    queue.push_back(s);
  }
  auto witness_from = [&](LocalStateId end) {
    std::vector<LocalStateId> walk{end};
    for (LocalStateId x = parent[end]; x != kInvalidLocalState;
         x = parent[x])
      walk.push_back(x);
    std::reverse(walk.begin(), walk.end());
    return walk;
  };
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const LocalStateId s = queue[head];
    if (!p.is_legit(s)) return witness_from(s);
    for (VertexId t : rcg.out(s)) {
      if (seen[t] || removed[t] || !p.is_deadlock(t) || !is_interior(t))
        continue;
      seen[t] = true;
      parent[t] = s;
      queue.push_back(t);
    }
  }
  return std::nullopt;
}

void enumerate_resolves(const Protocol& p, const Digraph& rcg,
                        std::vector<bool>& removed,
                        std::vector<LocalStateId>& chosen,
                        std::set<std::vector<LocalStateId>>& found,
                        std::size_t cap) {
  if (found.size() >= cap * 16) return;
  const auto walk = find_bad_walk(p, rcg, removed);
  if (!walk) {
    auto s = chosen;
    std::sort(s.begin(), s.end());
    found.insert(std::move(s));
    return;
  }
  bool any = false;
  for (LocalStateId v : *walk) {
    if (p.is_legit(v)) continue;  // only ¬LC states may be resolved
    any = true;
    removed[v] = true;
    chosen.push_back(v);
    enumerate_resolves(p, rcg, removed, chosen, found, cap);
    chosen.pop_back();
    removed[v] = false;
  }
  if (!any)
    throw ModelError(
        "a bad walk contains no illegitimate state to resolve (impossible: "
        "bad walks end at an illegitimate state)");
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
  const Digraph rcg = build_rcg(p.space());

  // Resolve sets: minimal ¬LC hitting sets of all bad walks.
  {
    std::vector<bool> removed(p.num_states(), false);
    std::vector<LocalStateId> chosen;
    std::set<std::vector<LocalStateId>> found;
    enumerate_resolves(p, rcg, removed, chosen, found,
                       options.max_resolve_sets);
    // Inclusion-minimal only.
    for (const auto& s : found) {
      const bool has_subset =
          std::any_of(found.begin(), found.end(), [&](const auto& t) {
            return t.size() < s.size() &&
                   std::includes(s.begin(), s.end(), t.begin(), t.end());
          });
      if (!has_subset) res.resolve_sets.push_back(s);
    }
    std::sort(res.resolve_sets.begin(), res.resolve_sets.end(),
              [](const auto& a, const auto& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
    if (res.resolve_sets.size() > options.max_resolve_sets)
      res.resolve_sets.resize(options.max_resolve_sets);
  }

  const Value bot = boundary_value(p);
  for (const auto& resolve : res.resolve_sets) {
    if (res.solutions.size() >= options.max_solutions) break;
    // Candidates per resolved state: any real-valued self-disabling write.
    std::vector<std::vector<LocalTransition>> per_state;
    bool feasible = true;
    for (LocalStateId s : resolve) {
      std::vector<LocalTransition> cands;
      if (p.space().self(s) == bot) {
        feasible = false;  // virtual state: cannot act (should not happen)
        break;
      }
      for (Value v = 0; v < bot; ++v) {
        if (v == p.space().self(s)) continue;
        const LocalStateId target = p.space().with_self(s, v);
        if (std::find(resolve.begin(), resolve.end(), target) !=
            resolve.end())
          continue;
        if (p.is_enabled(target)) continue;
        cands.push_back({s, target});
      }
      if (cands.empty()) {
        feasible = false;
        break;
      }
      per_state.push_back(std::move(cands));
    }
    if (!feasible) continue;

    // Batch size replicating the serial odometer's stopping rule exactly:
    // the loop ran while the solution quota had room, and checked the
    // max_candidate_sets cap only *after* accepting — so a Resolve set
    // reached with the cap already spent still contributed one candidate.
    std::uint64_t odometer_total = 1;
    for (const auto& cands : per_state) {
      odometer_total *= cands.size();
      if (odometer_total > options.max_candidate_sets + options.max_solutions)
        break;  // beyond every other bound; avoid overflow
    }
    const std::size_t base = res.candidates_examined;
    const std::size_t cap_room =
        options.max_candidate_sets > base
            ? options.max_candidate_sets - base
            : std::size_t{1};
    const std::size_t batch = std::min<std::uint64_t>(
        odometer_total,
        std::min<std::uint64_t>(options.max_solutions - res.solutions.size(),
                                std::max<std::size_t>(cap_room, 1)));

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
          Protocol pss =
              p.with_added(cat(p.name(), "_ass", base + j + 1), added);
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
  }
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
