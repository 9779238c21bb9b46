#include "serve/exec.hpp"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "analysis/lint.hpp"
#include "core/parser.hpp"
#include "core/printer.hpp"
#include "global/checker.hpp"
#include "global/symmetry.hpp"
#include "local/array.hpp"
#include "local/convergence.hpp"
#include "local/self_disabling.hpp"
#include "obs/metrics_json.hpp"
#include "sim/simulator.hpp"
#include "synthesis/local_synthesizer.hpp"

namespace ringstab::serve {

int render_check(const RingInstance& ring, std::size_t jobs, bool symmetry,
                 std::ostream& out) {
  const Protocol& p = ring.protocol();
  const std::size_t k = ring.ring_size();
  // The two engines produce identical verdicts; only the header differs.
  bool closure_ok, has_livelock, weakly, strongly;
  std::uint64_t deadlocks_outside_i;
  std::size_t max_recovery;
  std::vector<GlobalStateId> livelock_cycle;
  std::string deadlock_sample;
  if (symmetry) {
    const auto res = check_symmetric(ring, 8, jobs);
    out << p.name() << " at K=" << k << " (rotation quotient: "
        << res.num_necklaces << " necklaces for " << res.num_states
        << " states):\n";
    closure_ok = res.closure_ok;
    deadlocks_outside_i = res.num_deadlocks_outside_i;
    if (!res.deadlock_orbit_reps.empty())
      deadlock_sample = ring.brief(res.deadlock_orbit_reps[0]);
    has_livelock = res.has_livelock;
    livelock_cycle = res.livelock_cycle;
    weakly = res.weakly_converges;
    strongly = res.strongly_converges();
    max_recovery = res.max_recovery_steps;
  } else {
    const auto res = GlobalChecker(ring, jobs).check_all();
    out << p.name() << " at K=" << k << " (" << res.num_states
        << " states):\n";
    closure_ok = res.closure_ok;
    deadlocks_outside_i = res.num_deadlocks_outside_i;
    if (!res.deadlock_samples.empty())
      deadlock_sample = ring.brief(res.deadlock_samples[0]);
    has_livelock = res.has_livelock;
    livelock_cycle = res.livelock_cycle;
    weakly = res.weakly_converges;
    strongly = res.strongly_converges();
    max_recovery = res.max_recovery_steps;
  }
  out << "  closure of I:            " << (closure_ok ? "ok" : "VIOLATED")
      << "\n  deadlocks outside I:     " << deadlocks_outside_i;
  if (!deadlock_sample.empty()) out << "  (e.g. " << deadlock_sample << ")";
  out << "\n  livelock:                " << (has_livelock ? "YES" : "none");
  if (has_livelock) {
    out << "  cycle:";
    for (std::size_t i = 0;
         i < std::min<std::size_t>(6, livelock_cycle.size()); ++i)
      out << " " << ring.brief(livelock_cycle[i]);
    if (livelock_cycle.size() > 6) out << " …";
  }
  out << "\n  weak convergence:        " << (weakly ? "yes" : "no")
      << "\n  strong self-stabilization: " << (strongly ? "YES" : "no")
      << "\n";
  if (strongly)
    out << "  worst-case recovery:     " << max_recovery << " steps\n";
  return strongly ? 0 : 1;
}

int render_synthesize(const Protocol& p, bool all, std::size_t jobs,
                      std::ostream& out) {
  SynthesisOptions options;
  options.num_threads = jobs;
  const auto res = synthesize_convergence(p, options);
  out << res.summary(p) << "\n";
  const std::size_t show = all ? res.solutions.size()
                               : std::min<std::size_t>(1, res.solutions.size());
  for (std::size_t i = 0; i < show; ++i) {
    out << "--- solution " << i + 1 << " ---\n"
        << describe(res.solutions[i].protocol) << "\n";
  }
  return res.success ? 0 : 1;
}

int render_lint(const LintResult& lint, const std::string& display_name,
                bool json, bool werror, std::ostream& out) {
  if (json) {
    out << render_json(lint.diagnostics);
  } else {
    out << render_text(lint.diagnostics);
    out << display_name << ": " << lint.count(Severity::kError)
        << " error(s), " << lint.count(Severity::kWarning) << " warning(s), "
        << lint.count(Severity::kNote) << " note(s)";
    if (lint.suppressed > 0) out << ", " << lint.suppressed << " suppressed";
    out << "\n";
  }
  if (lint.has_error()) return 1;
  return werror && lint.count(Severity::kWarning) > 0 ? 1 : 0;
}

namespace {

bool has_marker(const std::string& text, const std::string& marker) {
  return text.find(marker) != std::string::npos;
}

Scheduler parse_sim_scheduler(const std::string& s) {
  if (s == "coin") return Scheduler::kSynchronousCoin;
  if (s == "weighted") return Scheduler::kWeightedRandom;
  throw ModelError("unknown simulate scheduler '" + s +
                   "' (expected coin | weighted)");
}

ConvergenceTarget parse_sim_target(const std::string& s) {
  if (s == "invariant") return ConvergenceTarget::kInvariant;
  if (s == "one-token") return ConvergenceTarget::kOneIllegit;
  throw ModelError("unknown simulate target '" + s +
                   "' (expected invariant | one-token)");
}

StartKind parse_sim_start(const std::string& s) {
  if (s == "random") return StartKind::kRandom;
  if (s == "zero") return StartKind::kAllZero;
  if (s == "three") return StartKind::kThreeTokens;
  throw ModelError("unknown simulate start '" + s +
                   "' (expected random | zero | three)");
}

EstimateOptions estimate_options(const RequestOptions& options) {
  EstimateOptions eo;
  eo.scheduler = parse_sim_scheduler(options.scheduler);
  eo.target = parse_sim_target(options.target);
  eo.start = parse_sim_start(options.start);
  eo.coin = options.coin;
  eo.seed = options.sim_seed;
  eo.trajectories = options.trajectories;
  eo.round_cap = options.round_cap;
  eo.num_threads = options.jobs;
  return eo;
}

}  // namespace

int render_simulate(const Protocol& p, std::size_t k,
                    const RequestOptions& options, std::ostream& out) {
  const EstimateOptions eo = estimate_options(options);
  const ConvergenceEstimate est = estimate_convergence_rounds(p, k, eo);
  const char* unit =
      eo.scheduler == Scheduler::kWeightedRandom ? "steps" : "rounds";
  out << p.name() << " at K=" << k << ", " << est.trajectories
      << " trajectories (seed " << options.sim_seed << ", scheduler "
      << options.scheduler;
  if (eo.scheduler == Scheduler::kSynchronousCoin)
    out << " p=" << options.coin;
  out << ", target " << options.target << ", start " << options.start
      << "):\n";
  out << "  converged:       " << est.converged << "/" << est.trajectories;
  if (est.censored > 0)
    out << "  (" << est.censored << " censored at cap " << options.round_cap
        << ")";
  out << "\n";
  if (est.converged > 0) {
    out << "  mean " << unit << ":     " << est.mean_rounds << "  (95% CI ±"
        << est.ci95_half_width << ")\n"
        << "  stddev:          " << est.stddev_rounds << "\n"
        << "  min/p50/p95/max: " << est.min_rounds << " / " << est.p50_rounds
        << " / " << est.p95_rounds << " / " << est.max_rounds << "\n";
  }
  out << "  work:            " << est.total_rounds << " " << unit << ", "
      << est.total_process_steps << " process steps\n";
  if (eo.target == ConvergenceTarget::kOneIllegit) {
    // The Herman-protocol-conjecture reference (docs/theory.md §7).
    const double bound =
        4.0 * static_cast<double>(k) * static_cast<double>(k) / 27.0;
    out << "  (4/27)K^2 bound: " << bound << "  (mean "
        << (est.mean_rounds <= bound + est.ci95_half_width ? "consistent with"
                                                           : "ABOVE")
        << " bound)\n";
  }
  return est.censored == 0 ? 0 : 1;
}

BatchOutcome batch_outcome(const std::string& text,
                           const std::string& filename,
                           const RequestOptions& options,
                           const std::shared_ptr<VerdictMemo>& memo) {
  BatchOutcome out;
  const bool array = has_marker(text, "topology: array");
  if (has_marker(text, "expect: converges")) out.expectation = "converges";
  if (has_marker(text, "expect: fails")) out.expectation = "fails";

  std::string lint_note;
  try {
    const ProtocolSource src = parse_protocol_source(text, filename);
    if (options.lint) {
      const LintResult lr = lint_source(src);
      lint_note = lr.diagnostics.empty()
                      ? " [lint: clean]"
                      : " [lint: " + std::to_string(lr.count(Severity::kError)) +
                            " err, " +
                            std::to_string(lr.count(Severity::kWarning)) +
                            " warn]";
      if (lr.has_error()) out.ok = false;
      if (options.werror && lr.count(Severity::kWarning) > 0) out.ok = false;
    }
    const Protocol p = build_protocol(src);
    out.name = p.name();
    bool certified = false;
    if (array) {
      const auto res = analyze_array_deadlocks(p);
      certified = res.deadlock_free_all_n && array_terminates_always(p);
      out.verdict = certified ? "converges (array, every length)"
                              : "deadlocks (array)";
    } else {
      // Randomized protocols (a local t-arc cycle, e.g. Herman) violate
      // Assumption 1, so the local certifier is undefined on them; they are
      // analyzable only by the exhaustive check and the Monte Carlo probe.
      const bool assumption1 = is_self_terminating(p);
      if (assumption1) {
        const auto res = check_convergence(p);
        certified = res.verdict == ConvergenceAnalysis::Verdict::kConverges;
        switch (res.verdict) {
          case ConvergenceAnalysis::Verdict::kConverges:
            out.verdict = "converges (every ring size)";
            break;
          case ConvergenceAnalysis::Verdict::kDeadlock:
            out.verdict = "deadlocks";
            break;
          case ConvergenceAnalysis::Verdict::kTrailFound:
            out.verdict = "trail found (uncertifiable)";
            break;
          case ConvergenceAnalysis::Verdict::kInconclusive:
            out.verdict = "inconclusive";
            break;
        }
      } else {
        out.verdict = "randomized (Assumption 1 fails; simulate)";
      }
      if (options.check_k >= 2) {
        const RingInstance ring(p, options.check_k);
        const bool global_ok =
            options.symmetry
                ? check_symmetric(ring, 8, options.jobs).strongly_converges()
                : strongly_stabilizing(ring, options.jobs);
        out.verdict += global_ok ? " [global@K ok]" : " [global@K FAILS]";
        // A local certificate must never contradict the exhaustive check.
        if (certified && !global_ok) out.ok = false;
      }
      if (options.synth && !certified && assumption1) {
        // Diagnostic only (never affects ok): can Problem 3.1 repair this
        // input? The shared memo makes repeated signatures cheap.
        SynthesisOptions opts;
        opts.num_threads = options.jobs;
        opts.memo = memo;
        opts.keep_rejected_reports = false;
        opts.require_closed_invariant = false;
        const auto synth = synthesize_convergence(p, opts);
        out.verdict += synth.success
                           ? " [synth: " +
                                 std::to_string(synth.solutions.size()) +
                                 " solutions]"
                           : " [synth: none]";
      }
      if (options.sim_k >= 2) {
        // Diagnostic only (never affects ok): a Monte Carlo probe under the
        // synchronous-coin scheduler at ring size sim_k, using the request's
        // trajectory/seed/cap settings (docs/simulation.md).
        const auto est =
            estimate_convergence_rounds(p, options.sim_k,
                                        estimate_options(options));
        std::ostringstream sim;
        sim << " [sim@" << options.sim_k << ": " << est.converged << "/"
            << est.trajectories;
        if (est.converged > 0) sim << ", mean " << est.mean_rounds;
        sim << "]";
        out.verdict += sim.str();
      }
    }
    if (out.expectation == "converges") out.ok = out.ok && certified;
    if (out.expectation == "fails") out.ok = out.ok && !certified;
  } catch (const Error& e) {
    out.verdict = std::string("ERROR: ") + e.what();
    out.ok = out.expectation.empty() && lint_note.empty();
  }
  out.verdict += lint_note;
  return out;
}

std::string batch_outcome_json(const BatchOutcome& outcome) {
  using obs::json::Value;
  Value doc = Value::object();
  doc.add("name", Value::string(outcome.name));
  doc.add("verdict", Value::string(outcome.verdict));
  doc.add("expectation", Value::string(outcome.expectation));
  doc.add("ok", Value::boolean_v(outcome.ok));
  return obs::json::dump(doc);
}

BatchOutcome parse_batch_outcome(const std::string& json_text) {
  const obs::json::Value doc = obs::json::parse(json_text);
  BatchOutcome out;
  const auto str = [&](const char* key) {
    const obs::json::Value* v = doc.find(key);
    if (v == nullptr || !v->is_string())
      throw ModelError(std::string("batch outcome missing string field '") +
                       key + "'");
    return v->str;
  };
  out.name = str("name");
  out.verdict = str("verdict");
  out.expectation = str("expectation");
  const obs::json::Value* ok = doc.find("ok");
  if (ok == nullptr || ok->kind != obs::json::Value::Kind::Bool)
    throw ModelError("batch outcome missing bool field 'ok'");
  out.ok = ok->boolean;
  return out;
}

namespace {

/// One-byte command tag for the cache key; unknown commands throw so a
/// typo'd cmd can never silently alias a real one.
char cmd_tag(const std::string& cmd) {
  if (cmd == "check") return 'C';
  if (cmd == "lint") return 'L';
  if (cmd == "synthesize") return 'S';
  if (cmd == "analyze") return 'A';
  if (cmd == "simulate") return 'M';  // Monte Carlo
  throw ModelError(
      "unknown serve command '" + cmd +
      "' (expected check | lint | synthesize | analyze | simulate)");
}

/// Length-prefixed string append for the cache key; the prefix keeps bytes
/// from migrating across field boundaries and aliasing.
void memo_append_str(std::string& key, const std::string& s) {
  memo_append_u64(key, s.size());
  key += s;
}

}  // namespace

std::string cache_key(const Request& req) {
  // The options take about 100 bytes with their default strings; reserving
  // them with the name and source spares the appends' reallocations.
  constexpr std::size_t kOptionBytes = 160;
  std::string key;
  key.reserve(1 + 8 + kOptionBytes + 8 + req.name.size() + 8 +
              req.source.size());
  key.push_back(cmd_tag(req.cmd));
  memo_append_u64(key, req.k);
  // Result-affecting options only: `jobs` never changes a verdict (every
  // engine is bit-identical at any thread count), so it stays out. Every
  // other field is identity; the coin keys on its exact IEEE-754 bits.
  for_each_option_field([&](const auto& field) {
    const auto& v = req.options.*field.member;
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>)
      key.push_back(v ? 1 : 0);
    else if constexpr (std::is_same_v<T, double>)
      memo_append_u64(key, std::bit_cast<std::uint64_t>(v));
    else if constexpr (std::is_same_v<T, std::string>)
      memo_append_str(key, v);
    else if (static_cast<const void*>(&v) != &req.options.jobs)
      memo_append_u64(key, v);
  });
  // `name` is rendered into the output (lint summary lines, parse-error
  // prefixes, batch rows), so it is part of the verdict's identity.
  memo_append_str(key, req.name);
  memo_append_str(key, req.source);
  return key;
}

ExecResult execute(const Request& req,
                   const std::shared_ptr<VerdictMemo>& memo) {
  const char tag = cmd_tag(req.cmd);  // reject unknown cmds up front
  ExecResult res;
  std::ostringstream out;
  try {
    switch (tag) {
      case 'C': {
        if (req.k < 2 || req.k > 63)
          throw ModelError("invalid k value '" + std::to_string(req.k) +
                           "': expected an integer in [2, 63]");
        const Protocol p =
            build_protocol(parse_protocol_source(req.source, req.name));
        res.exit_code = render_check(RingInstance(p, req.k), req.options.jobs,
                                     req.options.symmetry, out);
        break;
      }
      case 'S': {
        const Protocol p =
            build_protocol(parse_protocol_source(req.source, req.name));
        res.exit_code =
            render_synthesize(p, req.options.all, req.options.jobs, out);
        break;
      }
      case 'L': {
        const LintResult lint = lint_ring_text(req.source, req.name);
        res.exit_code = render_lint(lint, req.name, req.options.json,
                                    req.options.werror, out);
        break;
      }
      case 'A': {
        const BatchOutcome outcome =
            batch_outcome(req.source, req.name, req.options, memo);
        out << batch_outcome_json(outcome);
        res.exit_code = outcome.ok ? 0 : 1;
        break;
      }
      case 'M': {
        if (req.k < 2 || req.k > 4095)
          throw ModelError("invalid k value '" + std::to_string(req.k) +
                           "': expected an integer in [2, 4095]");
        const Protocol p =
            build_protocol(parse_protocol_source(req.source, req.name));
        res.exit_code = render_simulate(p, req.k, req.options, out);
        break;
      }
    }
  } catch (const Error& e) {
    // Mirror the CLI's failure contract: a one-line `error:` message and
    // exit 1. Cached like any other verdict — the error is a pure function
    // of the request.
    out.str("");
    out << "error: " << e.what() << "\n";
    res.exit_code = 1;
  }
  res.output = out.str();
  return res;
}

}  // namespace ringstab::serve
