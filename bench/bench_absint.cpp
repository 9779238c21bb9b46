// EXP-A2: the synthesizers' static rejection lane (analysis/absint.hpp),
// priced against the concrete work each refutation replaces. For each
// skeleton the report takes the candidates the local synthesizer examines
// (CLI defaults, one lane) and splits them by the lane's verdict:
//   ill-formed   lane.refute vs p.with_added + lint_candidate_errors
//   certificate  lane.refute vs p.with_added + the NPL check + the trail
//                search + trail classification (realize_trail)
//   undecided    lane.refute's overhead on candidates the concrete pipeline
//                evaluates anyway
// On the certificate and undecided classes, lane.refute is also timed
// against lane.refute_ill_formed_only, so the trail-certificate stage's own
// cost is reported apart from the ill-formedness screen. The concrete trail
// work runs without the synthesizer's 'N'/'T' memo, so it is an upper bound
// on what a certificate saves inside a synthesis run.
// The concrete side must reach the lane's verdict on every candidate: an
// ill-formed candidate must carry lint errors and an undecided one none, and
// a certificate must be a trail the search finds. The bench throws on any
// disagreement rather than publish numbers for an unsound lane.
//
// Artifact: BENCH_absint.json (committed at the repo root, schema-checked
// by the perf_validate_bench ctest entry).
#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/absint.hpp"
#include "analysis/lint.hpp"
#include "bench_util.hpp"
#include "core/fmt.hpp"
#include "global/trail_check.hpp"
#include "local/livelock.hpp"
#include "local/pseudo_livelock.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/agreement.hpp"
#include "protocols/coloring.hpp"
#include "protocols/matching.hpp"
#include "protocols/misc.hpp"
#include "protocols/sum_not_two.hpp"
#include "synthesis/local_synthesizer.hpp"

namespace {

using namespace ringstab;

using Additions = std::vector<std::vector<LocalTransition>>;

/// Best of `kReps` wall times: one pass over a class is short enough that
/// scheduler noise can drown the difference being measured.
constexpr int kReps = 5;

double best_ms(const std::function<void()>& fn) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

/// best_ms over one class of candidates; an empty class costs nothing.
double class_ms(const Additions& cands,
                const std::function<void()>& fn) {
  return cands.empty() ? 0.0 : best_ms(fn);
}

/// The examined candidates, split by the lane's verdict.
struct Split {
  Additions ill_formed, certificates, undecided;
};

Split split_by_lane(const std::string& name, const StaticRejectionLane& lane,
                    const SynthesisResult& res) {
  Split split;
  for (const CandidateReport& rep : res.reports) {
    const auto rej = lane.refute(rep.added);
    if (rej.has_value() != rep.static_reject)
      throw std::runtime_error(name + ": lane verdict differs from the "
                                      "synthesizer's report");
    if (!rej)
      split.undecided.push_back(rep.added);
    else if (rej->kind == StaticRejectionLane::Rejection::Kind::kIllFormed)
      split.ill_formed.push_back(rep.added);
    else
      split.certificates.push_back(rep.added);
  }
  return split;
}

void lane_pass(const StaticRejectionLane& lane, const Additions& cands) {
  for (const auto& added : cands) benchmark::DoNotOptimize(lane.refute(added));
}

/// The lane without its certificate stage.
void screen_pass(const StaticRejectionLane& lane, const Additions& cands) {
  for (const auto& added : cands)
    benchmark::DoNotOptimize(lane.refute_ill_formed_only(added));
}

/// Lint's error screen on each revision: what an ill-formed rejection saves.
/// `want_errors` is the lane's verdict the screen must reproduce.
void lint_pass(const std::string& name, const Protocol& p,
               const Additions& cands, bool want_errors) {
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const Protocol pss = p.with_added(cat(p.name(), "_ss", i), cands[i]);
    if (lint_candidate_errors(pss).empty() == want_errors)
      throw std::runtime_error(cat(name, ": lint disagrees with the lane on "
                                         "candidate ", i));
  }
}

/// NPL, trail search and classification on each revision: what a trail
/// certificate saves. Each must end in the trail the lane certified exists.
void trail_pass(const std::string& name, const Protocol& p,
                const Additions& cands) {
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const Protocol pss = p.with_added(cat(p.name(), "_ss", i), cands[i]);
    const LivelockAnalysis live = check_livelock_freedom(pss);
    if (!WriteProjection(pss, {}).has_pseudo_livelock() ||
        live.verdict != LivelockAnalysis::Verdict::kTrailFound)
      throw std::runtime_error(cat(name, ": the trail search does not "
                                         "confirm certificate ", i));
    try {
      benchmark::DoNotOptimize(realize_trail(pss, *live.trail()).verdict);
    } catch (const CapacityError&) {
      // implied K beyond RingInstance's cap: the synthesizer skips it too
    }
  }
}

void report() {
  bench::header("EXP-A2 (static rejection lane)", "BENCH_absint.json",
                "the concrete work agrees with every lane verdict; the "
                "certificate stage's own cost is priced apart from the "
                "ill-formedness screen");

  const struct {
    const char* name;
    Protocol p;
  } cases[] = {
      {"agreement", protocols::agreement_empty()},
      {"three_coloring", protocols::coloring_empty(3)},
      {"sum_not_two", protocols::sum_not_two_empty()},
      {"no_adjacent_ones", protocols::no_adjacent_ones_empty()},
      {"matching", protocols::matching_skeleton()},
  };

  std::vector<bench::Json> runs;
  for (const auto& c : cases) {
    SynthesisResult res;
    const double synth_ms =
        best_ms([&] { res = synthesize_convergence(c.p); });
    const StaticRejectionLane lane(c.p);
    const Split split = split_by_lane(c.name, lane, res);
    const Additions& ill = split.ill_formed;
    const Additions& cert = split.certificates;
    const Additions& undecided = split.undecided;
    lint_pass(c.name, c.p, undecided, /*want_errors=*/false);

    const double lane_ill_ms = class_ms(ill, [&] { lane_pass(lane, ill); });
    const double lint_ms = class_ms(
        ill, [&] { lint_pass(c.name, c.p, ill, /*want_errors=*/true); });
    const double lane_cert_ms = class_ms(cert, [&] { lane_pass(lane, cert); });
    const double screen_cert_ms =
        class_ms(cert, [&] { screen_pass(lane, cert); });
    const double trail_ms =
        class_ms(cert, [&] { trail_pass(c.name, c.p, cert); });
    const double lane_undecided_ms =
        class_ms(undecided, [&] { lane_pass(lane, undecided); });
    const double screen_undecided_ms =
        class_ms(undecided, [&] { screen_pass(lane, undecided); });
    // What the certificate stage adds to the screen: its search on the
    // candidates it certifies and on those it cannot decide.
    const double cert_stage_ms = (lane_cert_ms - screen_cert_ms) +
                                 (lane_undecided_ms - screen_undecided_ms);

    bench::row(c.name, "full agreement; certificate stage priced alone",
               cat(res.candidates_examined, " candidates: ",
                   ill.size(), " ill-formed (lane ", lane_ill_ms,
                   " ms vs lint ", lint_ms, " ms), ", cert.size(),
                   " certificates (trail work replaced ", trail_ms,
                   " ms), ", undecided.size(),
                   " undecided; certificate stage ", cert_stage_ms,
                   " ms; synthesis ", synth_ms, " ms"));
    bench::Json run;
    run.put("protocol", c.name);
    run.put("candidates", res.candidates_examined);
    run.put("solutions", res.solutions.size());
    run.put("ill_formed", ill.size());
    run.put("certificates", cert.size());
    run.put("undecided", undecided.size());
    run.put("lane_ill_formed_ms", lane_ill_ms);
    run.put("lint_screen_ms", lint_ms);
    run.put("lane_certificate_ms", lane_cert_ms);
    run.put("screen_certificate_ms", screen_cert_ms);
    run.put("trail_pipeline_ms", trail_ms);
    run.put("lane_undecided_ms", lane_undecided_ms);
    run.put("screen_undecided_ms", screen_undecided_ms);
    run.put("certificate_stage_ms", cert_stage_ms);
    run.put("certificate_stage_net_ms", trail_ms - cert_stage_ms);
    run.put("synthesis_ms", synth_ms);
    run.put("agrees", true);  // the passes threw otherwise
    runs.push_back(std::move(run));
  }

  bench::Json doc;
  doc.put("experiment", "absint_static_lane");
  doc.put("hardware_threads", resolve_threads(0));
  doc.put("config",
          "synthesize_convergence with default options on 1 lane; each time "
          "is the best of 5 passes over the candidates of one class; "
          "screen_* times run refute_ill_formed_only, trail work runs "
          "without the memo");
  doc.put("runs", runs);
  bench::write_bench_json("BENCH_absint.json", doc);
  bench::footer();
}

/// The matching skeleton's examined candidates, for the timing loops.
Additions matching_candidates() {
  Additions out;
  for (const auto& rep :
       synthesize_convergence(protocols::matching_skeleton()).reports)
    out.push_back(rep.added);
  return out;
}

void BM_MatchingLaneScreen(benchmark::State& state) {
  const Protocol p = protocols::matching_skeleton();
  const Additions cands = matching_candidates();
  const StaticRejectionLane lane(p);
  for (auto _ : state) lane_pass(lane, cands);
}
BENCHMARK(BM_MatchingLaneScreen)->Unit(benchmark::kMillisecond);

void BM_MatchingLintScreen(benchmark::State& state) {
  const Protocol p = protocols::matching_skeleton();
  const Additions cands = matching_candidates();
  for (auto _ : state)
    for (std::size_t i = 0; i < cands.size(); ++i)
      benchmark::DoNotOptimize(
          lint_candidate_errors(p.with_added(cat(p.name(), "_ss", i), cands[i])));
}
BENCHMARK(BM_MatchingLintScreen)->Unit(benchmark::kMillisecond);

}  // namespace

RINGSTAB_BENCH_MAIN(report)
