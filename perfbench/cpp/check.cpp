// check-converge and check-livelock: one ring instance, decided by the fused
// full-space engine (GlobalChecker::check_all) and the rotation quotient
// (check_symmetric), which must agree.
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/parser.hpp"
#include "global/checker.hpp"
#include "global/symmetry.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ringstab;

/// The verdict fields and counts both engines report.
struct Verdict {
  GlobalStateId states = 0;
  std::size_t deadlocks = 0;
  bool closure_ok = false;
  bool has_livelock = false;
  bool weakly = false;
  std::size_t recovery_steps = 0;
  std::vector<GlobalStateId> cycle;

  bool same_answer(const Verdict& o) const {
    return states == o.states && deadlocks == o.deadlocks &&
           closure_ok == o.closure_ok && has_livelock == o.has_livelock &&
           weakly == o.weakly && recovery_steps == o.recovery_steps;
  }
};

Verdict verdict_of(const GlobalCheckResult& r) {
  return {r.num_states,        r.num_deadlocks_outside_i, r.closure_ok,
          r.has_livelock,      r.weakly_converges,        r.max_recovery_steps,
          r.livelock_cycle};
}

Verdict verdict_of(const SymmetricCheckResult& r) {
  return {r.num_states,        r.num_deadlocks_outside_i, r.closure_ok,
          r.has_livelock,      r.weakly_converges,        r.max_recovery_steps,
          r.livelock_cycle};
}

struct CheckSpec {
  const char* file;
  std::size_t k;
  Verdict expected;  // `states` and `cycle` are not compared
};

/// A livelock witness must lie outside I and replay as a cyclic computation.
bool witness_replays(const RingInstance& ring,
                     const std::vector<GlobalStateId>& cycle) {
  if (cycle.empty()) return false;
  for (const GlobalStateId s : cycle)
    if (ring.in_invariant(s)) return false;
  try {
    (void)schedule_from_path(ring, cycle, /*cyclic=*/true);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void expect_verdict(Outcome& out, const RingInstance& ring, const Verdict& v,
                    const Verdict& want, const std::string& engine) {
  out.expect(v.states == ring.num_states(), engine + ": state count");
  out.expect(v.deadlocks == want.deadlocks, engine + ": deadlocks outside I");
  out.expect(v.closure_ok == want.closure_ok, engine + ": closure");
  out.expect(v.has_livelock == want.has_livelock, engine + ": livelock");
  out.expect(v.weakly == want.weakly, engine + ": weak convergence");
  out.expect(v.recovery_steps == want.recovery_steps,
             engine + ": recovery steps");
  if (v.has_livelock)
    out.expect(witness_replays(ring, v.cycle),
               engine + ": livelock witness replays");
}

/// Checks one round's fused and quotient verdicts, against the expectation,
/// each other, and the first round (same witness every run).
class RoundChecker {
 public:
  RoundChecker(const RingInstance& ring, const Verdict& want)
      : ring_(ring), want_(want) {}

  void operator()(Outcome& out, const Verdict& fused, const Verdict& quot) {
    expect_verdict(out, ring_, fused, want_, "fused");
    expect_verdict(out, ring_, quot, want_, "quotient");
    out.expect(fused.same_answer(quot), "fused and quotient verdicts agree");
    if (!first_fused_) {
      first_fused_ = fused;
      first_quot_ = quot;
      return;
    }
    out.expect(fused.cycle == first_fused_->cycle &&
                   quot.cycle == first_quot_->cycle,
               "witness cycles repeat across rounds");
  }

 private:
  const RingInstance& ring_;
  Verdict want_;
  std::optional<Verdict> first_fused_, first_quot_;
};

/// Fused verdict as check_all() computes it, one stage per span.
Verdict staged_verdict(Tracer& tracer, std::uint64_t round,
                       const GlobalChecker& c, const RingInstance& ring) {
  Verdict v;
  v.states = ring.num_states();
  const Span root(tracer, "verdict", round);
  const auto stage = [&](const char* name, auto&& fn) {
    const Span s(tracer, name, round, root.id());
    fn();
  };
  std::vector<GlobalStateId> samples;
  stage("global.classify",
        [&] { v.deadlocks = c.count_deadlocks_outside_invariant(&samples); });
  std::optional<std::pair<GlobalStateId, GlobalStateId>> violation;
  stage("global.graph", [&] { v.closure_ok = c.check_closure(&violation); });
  stage("graph.scc", [&] {
    auto cycle = c.find_livelock();
    v.has_livelock = cycle.has_value();
    if (cycle) v.cycle = std::move(*cycle);
  });
  stage("global.reach", [&] { v.weakly = c.check_weak_convergence(); });
  if (v.closure_ok && v.deadlocks == 0 && !v.has_livelock)
    stage("global.layering",
          [&] { v.recovery_steps = c.max_recovery_steps(); });
  return v;
}

/// Counts the checker keeps in its own obs counters, read from one extra
/// verdict with obs switched on (the timed passes run with obs off).
std::map<std::string, double> obs_counts(const RingInstance& ring,
                                         std::size_t lanes) {
  obs::g_enabled.store(true);
  obs::Registry::global().reset_counters();
  (void)GlobalChecker(ring, lanes).check_all();
  std::map<std::string, double> v;
  v["global.edges"] =
      static_cast<double>(obs::counter("checker.graph_edges").total());
  v["global.fixpoint_rounds"] =
      static_cast<double>(obs::counter("checker.fixpoint_rounds").total());
  v["global.csr_mb"] =
      static_cast<double>(obs::gauge("mem.csr_bytes").peak()) / (1 << 20);
  obs::g_enabled.store(false);
  return v;
}

void run_check(const CheckSpec& spec, const Args& args, std::size_t lanes,
               Outcome& out) {
  const std::string path = args.root + "/examples/rings/" + spec.file;
  // Untraced times are scaled to reference speed (SpeedProbe); the wall
  // times are printed as notes.
  SpeedProbe probe;
  const double setup_s = probe.scaled([&] {
    return median_setup_s(21, 5, [&] {
      const RingInstance ring(parse_protocol_file(path), spec.k);
    });
  });
  const RingInstance ring(parse_protocol_file(path), spec.k);
  RoundChecker check_round(ring, spec.expected);
  const auto t0 = Clock::now();

  if (!args.trace) {
    std::vector<double> op_ms, alt_ms, wall_op_ms, wall_alt_ms;
    double rss_mb = 0;
    do {
      GlobalCheckResult fused;
      op_ms.push_back(probe.scaled_ms(
          [&] { fused = GlobalChecker(ring, lanes).check_all(); }));
      SymmetricCheckResult quot;
      alt_ms.push_back(
          probe.scaled_ms([&] { quot = check_symmetric(ring, 8, lanes); }));
      const auto& wall = probe.raw();
      wall_op_ms.push_back(wall[wall.size() - 2]);
      wall_alt_ms.push_back(wall.back());
      check_round(out, verdict_of(fused), verdict_of(quot));
      if (rss_mb == 0) rss_mb = peak_rss_mb();  // one round, as the CLI
    } while (seconds_since(t0) < args.seconds);
    double busy_ms = 0;
    for (const double ms : op_ms) busy_ms += ms;
    out.note("verdict_s", median(wall_op_ms) / 1e3, "s", "fused, wall");
    out.note("quotient_verdict_s", median(wall_alt_ms) / 1e3, "s",
             "quotient, wall");
    out.note("setup_wall_s", probe.raw().front(), "s", "set-up, wall");
    out.note("probe_p50_ms", median(probe.probe_ms()), "ms",
             "speed probe, wall");
    set_end_to_end(out, setup_s, op_ms, alt_ms,
                   1e3 * static_cast<double>(op_ms.size()) / busy_ms, rss_mb);
  } else {
    Tracer tracer(true);
    std::vector<double> untraced_s;
    std::map<std::string, double> layer;
    std::uint64_t round = 0;
    do {
      untraced_s.push_back(
          time_s([&] { (void)GlobalChecker(ring, lanes).check_all(); }));
      const GlobalChecker c(ring, lanes);
      const Verdict fused = staged_verdict(tracer, round, c, ring);
      layer["graph.livelock_states"] =
          static_cast<double>(c.livelock_states().size());
      layer["global.not_inv_states"] = static_cast<double>(
          ring.num_states() - c.invariant_mask().count());
      SymmetricCheckResult quot;
      {
        const Span s(tracer, "global.necklace", round);
        layer["global.necklaces"] = static_cast<double>(
            necklace_census(ring, 8, lanes).num_necklaces);
      }
      {
        const Span s(tracer, "global.quotient", round);
        quot = check_symmetric(ring, 8, lanes);
      }
      check_round(out, fused, verdict_of(quot));
      layer["global.recovery_steps"] =
          static_cast<double>(fused.recovery_steps);
      ++round;
    } while (seconds_since(t0) < args.seconds);

    double stage_sum = 0;
    for (const char* stage : {"global.classify", "global.graph", "graph.scc",
                              "global.reach", "global.layering"}) {
      const double s = median(tracer.durations(stage));
      layer[std::string(stage) + "_s"] = s;
      stage_sum += s;
    }
    const double necklace = median(tracer.durations("global.necklace"));
    layer["global.necklace_s"] = necklace;
    layer["global.quotient_post_census_s"] =
        median(tracer.durations("global.quotient")) - necklace;
    layer["global.states"] = static_cast<double>(ring.num_states());
    for (const auto& [name, value] : obs_counts(ring, lanes))
      layer[name] = value;
    const double verdict = median(untraced_s);
    layer["trace_overhead_frac"] =
        median(tracer.durations("verdict")) / verdict - 1;
    layer["unattributed_frac"] = 1 - stage_sum / verdict;
    out.note("verdict_s", verdict, "s", "untraced, same run");
    out.note("stage_sum_s", stage_sum, "s", "traced stages");
    out.note("rounds", static_cast<double>(round), "count");
    set_layer_metrics(out, layer);
    write_spans(args, tracer.spans(), out);
  }
}

}  // namespace

void run_check_converge(const Args& args, std::size_t lanes, Outcome& out) {
  // Strongly stabilizing: the ¬I graph is acyclic and every stage runs.
  Verdict want;
  want.closure_ok = true;
  want.weakly = true;
  want.recovery_steps = 27;
  run_check({"sum_not_two_ss.ring", 14, want}, args, lanes, out);
}

void run_check_livelock(const Args& args, std::size_t lanes, Outcome& out) {
  // One ¬I SCC of |D|^K - 2 states; closure fails, so no layering.
  Verdict want;
  want.closure_ok = false;
  want.has_livelock = true;
  want.weakly = true;
  run_check({"herman.ring", 20, want}, args, lanes, out);
}

}  // namespace perfbench
