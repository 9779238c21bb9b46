// synth-matching: the matching skeleton through the local synthesizer
// (Theorems 4.2 and 5.14, no global state) and the fixed-K global baseline.
//
// The traced run replays both synthesizers' per-candidate pipelines stage by
// stage through the layers' public functions, and checks that the replay
// reproduces the synthesizers' own verdict counts exactly.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/absint.hpp"
#include "analysis/lint.hpp"
#include "local/livelock.hpp"
#include "local/pseudo_livelock.hpp"
#include "protocols/matching.hpp"
#include "synthesis/global_synthesizer.hpp"
#include "synthesis/local_synthesizer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ringstab;

constexpr std::size_t kLocalCandidates = 4213;
constexpr std::size_t kGlobalCandidates = 4224;
constexpr std::size_t kSolutions = 64;

/// The CLI's `synthesize` defaults, on `lanes` lanes.
SynthesisOptions local_options(std::size_t lanes) {
  SynthesisOptions o;
  o.num_threads = lanes;
  return o;
}

/// The fixed-K baseline over K in [2, 9].
GlobalSynthesisOptions global_options(std::size_t lanes) {
  GlobalSynthesisOptions o;
  o.min_ring = 2;
  o.max_ring = 9;
  o.num_threads = lanes;
  return o;
}

using Additions = std::vector<std::vector<LocalTransition>>;

Additions added_of(const SynthesisResult& r) {
  Additions out;
  for (const auto& s : r.solutions) out.push_back(s.added);
  return out;
}

Additions added_of(const GlobalSynthesisResult& r) {
  Additions out;
  for (const auto& s : r.solutions) out.push_back(s.added);
  return out;
}

/// Candidate fates, as the synthesizers count them.
struct Funnel {
  std::size_t candidates = 0;
  std::size_t static_rejects = 0;
  std::size_t ill_formed = 0;
  std::size_t npl_accepts = 0;
  std::size_t pl_accepts = 0;
  std::size_t trail_rejects = 0;
  std::size_t inconclusive = 0;
  std::size_t fixedk_rejects = 0;
  std::size_t solutions = 0;
  GlobalStateId states = 0;

  bool operator==(const Funnel&) const = default;
};

Funnel funnel_of(const SynthesisResult& r) {
  Funnel f;
  f.candidates = r.candidates_examined;
  f.solutions = r.solutions.size();
  for (const CandidateReport& c : r.reports) {
    f.static_rejects += c.static_reject;
    switch (c.status) {
      case CandidateReport::Status::kAcceptedNpl: ++f.npl_accepts; break;
      case CandidateReport::Status::kAcceptedPl: ++f.pl_accepts; break;
      case CandidateReport::Status::kRejectedTrail: ++f.trail_rejects; break;
      case CandidateReport::Status::kInconclusive: ++f.inconclusive; break;
      case CandidateReport::Status::kRejectedIllFormed: ++f.ill_formed; break;
    }
  }
  return f;
}

Funnel funnel_of(const GlobalSynthesisResult& r) {
  Funnel f;
  f.candidates = r.candidates_examined;
  f.ill_formed = r.ill_formed_out;
  f.solutions = r.solutions.size();
  f.fixedk_rejects = f.candidates - f.ill_formed - f.solutions;
  f.states = r.states_explored;
  return f;
}

/// Resolve sets, then candidate sets per resolve set, in the synthesizers'
/// order; `visit(added)` returns true once the solution quota is met.
template <typename Visit>
void for_each_candidate(Tracer& tracer, const Protocol& p,
                        std::size_t max_resolve_sets,
                        std::size_t max_candidate_sets, Visit&& visit) {
  std::vector<std::vector<LocalStateId>> resolve_sets;
  {
    const Span s(tracer, "synthesis.enumerate");
    resolve_sets = enumerate_resolve_sets(p, max_resolve_sets);
  }
  for (const auto& resolve : resolve_sets) {
    Additions batch;
    {
      const Span s(tracer, "synthesis.enumerate");
      batch = enumerate_candidate_sets(p, resolve, max_candidate_sets);
    }
    for (const auto& added : batch)
      if (visit(added)) return;
  }
}

/// synthesize_convergence's per-candidate pipeline (lane, lint screen, NPL,
/// trail search), serial and without the memo, one span per stage.
Funnel replay_local(Tracer& tracer, const Protocol& p,
                    const SynthesisOptions& o) {
  Funnel f;
  const StaticRejectionLane lane(p, o.trail_query);
  for_each_candidate(tracer, p, o.max_resolve_sets, o.max_candidate_sets,
                     [&](const std::vector<LocalTransition>& added) {
    if (f.solutions >= o.max_solutions) return true;
    const std::uint64_t id = ++f.candidates;
    std::optional<StaticRejectionLane::Rejection> rej;
    {
      const Span s(tracer, "analysis.lane", id);
      rej = lane.refute(added);
    }
    if (rej) {
      ++f.static_rejects;
      if (rej->kind == StaticRejectionLane::Rejection::Kind::kIllFormed)
        ++f.ill_formed;
      else
        ++f.trail_rejects;
      return false;
    }
    const Protocol pss =
        p.with_added(p.name() + "_ss" + std::to_string(id), added);
    bool ill_formed;
    {
      const Span s(tracer, "analysis.lint_screen", id);
      ill_formed = !lint_candidate_errors(pss).empty();
    }
    if (ill_formed) {
      ++f.ill_formed;
      return false;
    }
    bool pseudo_livelock;
    {
      const Span s(tracer, "local.npl", id);
      pseudo_livelock = WriteProjection(pss, {}).has_pseudo_livelock();
    }
    if (!pseudo_livelock) {
      ++f.npl_accepts;
      ++f.solutions;
      return false;
    }
    LivelockAnalysis::Verdict verdict;
    {
      const Span s(tracer, "local.trail", id);
      verdict = check_livelock_freedom(pss, o.trail_query).verdict;
    }
    switch (verdict) {
      case LivelockAnalysis::Verdict::kLivelockFree:
        ++f.pl_accepts;
        ++f.solutions;
        break;
      case LivelockAnalysis::Verdict::kTrailFound: ++f.trail_rejects; break;
      case LivelockAnalysis::Verdict::kInconclusive: ++f.inconclusive; break;
    }
    return false;
  });
  return f;
}

/// synthesize_convergence_global's per-candidate pipeline (ill-formedness
/// lane, lint screen, fixed-K checks), serial and without the memo.
Funnel replay_global(Tracer& tracer, const Protocol& p,
                     const GlobalSynthesisOptions& o) {
  Funnel f;
  const StaticRejectionLane lane(p);
  for_each_candidate(tracer, p, o.max_resolve_sets, o.max_candidate_sets,
                     [&](const std::vector<LocalTransition>& added) {
    if (f.solutions >= o.max_solutions) return true;
    const std::uint64_t id = ++f.candidates;
    bool ill_formed;
    {
      const Span s(tracer, "analysis.lane", id);
      ill_formed = lane.refute_ill_formed_only(added).has_value();
    }
    if (ill_formed) {
      ++f.ill_formed;
      return false;
    }
    const Protocol pss =
        p.with_added(p.name() + "_gss" + std::to_string(id), added);
    {
      const Span s(tracer, "analysis.lint_screen", id);
      ill_formed = !lint_candidate_errors(pss).empty();
    }
    if (ill_formed) {
      ++f.ill_formed;
      return false;
    }
    bool ok = true;
    {
      const Span s(tracer, "global.fixedk", id);
      for (std::size_t k = o.min_ring; k <= o.max_ring && ok; ++k) {
        const RingInstance ring(pss, k, o.max_states);
        f.states += ring.num_states();
        ok = strongly_stabilizing(ring);
      }
    }
    ++(ok ? f.solutions : f.fixedk_rejects);
    return false;
  });
  return f;
}

/// Checks each synthesizer's counts and solution list against the first run.
class SynthChecker {
 public:
  void local(Outcome& out, const SynthesisResult& r) {
    out.expect(r.candidates_examined == kLocalCandidates &&
                   r.solutions.size() == kSolutions,
               "local synthesis: 4213 candidates, 64 solutions");
    same(out, local_, added_of(r), "local synthesis: same solutions");
  }
  void global(Outcome& out, const GlobalSynthesisResult& r) {
    out.expect(r.candidates_examined == kGlobalCandidates &&
                   r.solutions.size() == kSolutions,
               "global synthesis: 4224 candidates, 64 solutions");
    same(out, global_, added_of(r), "global synthesis: same solutions");
    out.expect(!states_ || *states_ == r.states_explored,
               "global synthesis: same states explored");
    states_ = r.states_explored;
  }

 private:
  static void same(Outcome& out, std::optional<Additions>& first,
                   Additions now, const std::string& what) {
    if (!first) first = std::move(now);
    else out.expect(now == *first, what);
  }
  std::optional<Additions> local_, global_;
  std::optional<GlobalStateId> states_;
};

}  // namespace

void run_synth_matching(const Args& args, std::size_t lanes, Outcome& out) {
  // Untraced times are scaled to reference speed (SpeedProbe); the wall
  // times are printed as notes.
  SpeedProbe probe;
  const double setup_s = probe.scaled([] {
    return median_setup_s(21, 200,
                          [] { (void)protocols::matching_skeleton(); });
  });
  const Protocol p = protocols::matching_skeleton();
  const SynthesisOptions lo = local_options(lanes);
  const GlobalSynthesisOptions go = global_options(lanes);
  SynthChecker check;
  const auto t0 = Clock::now();

  if (!args.trace) {
    std::vector<double> op_ms, alt_ms, wall_local_ms, wall_pair_ms;
    double rss_mb = 0;
    do {
      SynthesisResult local;
      op_ms.push_back(
          probe.scaled_ms([&] { local = synthesize_convergence(p, lo); }));
      GlobalSynthesisResult global;
      alt_ms.push_back(probe.scaled_ms(
          [&] { global = synthesize_convergence_global(p, go); }));
      const auto& wall = probe.raw();
      wall_local_ms.push_back(wall[wall.size() - 2]);
      wall_pair_ms.push_back(wall[wall.size() - 2] + wall.back());
      check.local(out, local);
      check.global(out, global);
      if (rss_mb == 0) rss_mb = peak_rss_mb();
    } while (seconds_since(t0) < args.seconds);
    double busy_ms = 0;
    for (const double ms : op_ms) busy_ms += ms;
    out.note("synth_s", median(wall_pair_ms) / 1e3, "s",
             "local + global synthesis, wall");
    out.note("local_wall_p50_ms", median(wall_local_ms), "ms",
             "local synthesis, wall");
    out.note("setup_wall_s", probe.raw().front(), "s", "set-up, wall");
    out.note("probe_p50_ms", median(probe.probe_ms()), "ms",
             "speed probe, wall");
    set_end_to_end(out, setup_s, op_ms, alt_ms,
                   1e3 * static_cast<double>(op_ms.size()) / busy_ms, rss_mb);
  } else {
    // Reference run with one memo shared by both synthesizers.
    SynthesisOptions lo_memo = lo;
    GlobalSynthesisOptions go_memo = go;
    lo_memo.memo = go_memo.memo = std::make_shared<VerdictMemo>();
    const SynthesisResult local = synthesize_convergence(p, lo_memo);
    const GlobalSynthesisResult global =
        synthesize_convergence_global(p, go_memo);
    check.local(out, local);
    check.global(out, global);
    const Funnel want_local = funnel_of(local);
    const Funnel want_global = funnel_of(global);

    const char* kStages[] = {"synthesis.enumerate", "analysis.lane",
                             "analysis.lint_screen", "local.npl",
                             "local.trail", "global.fixedk"};
    std::map<std::string, std::vector<double>> stage_s;
    std::vector<double> untraced_s, traced_s, unattributed;
    std::vector<SpanRecord> last_spans;
    int passes = 0;
    do {
      Tracer off(false);
      untraced_s.push_back(time_s([&] {
        (void)replay_local(off, p, lo);
        (void)replay_global(off, p, go);
      }));
      Tracer on(true);
      Funnel got_local, got_global;
      traced_s.push_back(time_s([&] {
        got_local = replay_local(on, p, lo);
        got_global = replay_global(on, p, go);
      }));
      out.expect(got_local == want_local,
                 "local funnel replay reproduces the synthesizer's counts");
      out.expect(got_global == want_global,
                 "global funnel replay reproduces the synthesizer's counts");
      double covered = 0;
      for (const char* stage : kStages) {
        stage_s[stage].push_back(on.total(stage));
        covered += on.total(stage);
      }
      unattributed.push_back(1 - covered / traced_s.back());
      last_spans = on.spans();
      ++passes;
    } while (seconds_since(t0) < args.seconds);

    std::map<std::string, double> layer;
    for (const auto& [stage, samples] : stage_s)
      layer[stage + "_s"] = median(samples);
    layer["synthesis.candidates"] = static_cast<double>(want_local.candidates);
    layer["synthesis.static_rejects"] =
        static_cast<double>(want_local.static_rejects);
    layer["synthesis.ill_formed"] = static_cast<double>(want_local.ill_formed);
    layer["synthesis.npl_accepts"] =
        static_cast<double>(want_local.npl_accepts);
    layer["synthesis.trail_rejects"] =
        static_cast<double>(want_local.trail_rejects);
    layer["synthesis.solutions"] = static_cast<double>(want_local.solutions);
    layer["synthesis.memo_entries"] =
        static_cast<double>(lo_memo.memo->size());
    layer["synthesis.accept_ratio"] =
        static_cast<double>(want_local.solutions) /
        static_cast<double>(want_local.candidates);
    layer["global.fixedk_states"] = static_cast<double>(want_global.states);
    layer["trace_overhead_frac"] = median(traced_s) / median(untraced_s) - 1;
    layer["unattributed_frac"] = median(unattributed);
    out.note("replay_s", median(untraced_s), "s", "untraced funnel replay");
    out.note("global.candidates", static_cast<double>(want_global.candidates),
             "count");
    out.note("passes", passes, "count");
    set_layer_metrics(out, layer);
    write_spans(args, last_spans, out);
  }
}

}  // namespace perfbench
