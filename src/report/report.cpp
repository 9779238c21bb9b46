#include "report/report.hpp"

#include <functional>
#include <sstream>

#include "analysis/lint.hpp"
#include "core/fmt.hpp"
#include "core/printer.hpp"
#include "global/checker.hpp"
#include "global/cutoff.hpp"
#include "global/symmetry.hpp"
#include "global/trail_check.hpp"
#include "local/array.hpp"
#include "local/closure.hpp"
#include "local/convergence.hpp"
#include "obs/obs.hpp"
#include "transform/transform.hpp"
#include "sim/simulator.hpp"

namespace ringstab {
namespace {

/// The exhaustive sections check sizes kMinRing..max_ring, each under this
/// state budget ("over budget" rows above it).
constexpr std::size_t kMinRing = 2;
constexpr GlobalStateId kMaxStates = GlobalStateId{1} << 22;
/// The simulated-recovery section's ring size and seed.
constexpr std::size_t kSimRing = 16;
constexpr std::uint64_t kSimSeed = 1;

/// Wall-clock per report section, on the obs monotonic clock (always on —
/// the timing table is part of the report, independent of --stats/--trace).
class SectionTimer {
 public:
  void measure(const char* name, const std::function<void()>& section) {
    const obs::Span span(name);  // mirrors the table into obs sinks
    const obs::Ticks t0 = obs::now();
    section();
    rows_.emplace_back(name, static_cast<double>(obs::now() - t0) / 1e6);
  }

  void table(std::ostringstream& os) const {
    os << "## Section timings\n\n| section | ms |\n|---|---|\n";
    double total = 0;
    for (const auto& [name, ms] : rows_) {
      os << "| " << name << " | " << ms << " |\n";
      total += ms;
    }
    os << "| **total** | " << total << " |\n\n";
  }

 private:
  std::vector<std::pair<std::string, double>> rows_;
};

void ring_report(const Protocol& p, const ReportOptions& opt,
                 std::ostringstream& os, SectionTimer& timer) {
  // Closure.
  timer.measure("report.closure", [&] {
    const auto closure = check_invariant_closure(p);
    os << "## Invariant closure\n\n"
       << (closure.verdict == ClosureCheck::Verdict::kClosed
               ? "Locally certified closed: every action preserves I(K) for "
                 "every K.\n"
               : cat("Local check is inconclusive (", closure.describe(p),
                     "); see the exhaustive section below for per-size "
                     "ground truth.\n"))
       << "\n";
  });

  // Local convergence analysis.
  timer.measure("report.local_analysis", [&] {
    const auto conv = check_convergence(p, {}, 64);
    os << "## Local analysis (valid for every ring size)\n\n"
       << conv.summary(p) << "\n\n";
    if (!conv.deadlocks.deadlock_free_all_k) {
      os << "Bad cycles in the deadlock RCG:\n\n";
      for (const auto& c : conv.deadlocks.bad_cycles) {
        os << "- `";
        for (auto v : c) os << p.space().brief(v) << " ";
        os << "` (length " << c.size() << ")\n";
      }
      os << "\nDeadlocked ring sizes up to " << conv.deadlocks.spectrum_max_k
         << ": "
         << join(conv.deadlocks.deadlocked_sizes(), " ",
                 [](std::size_t k) { return std::to_string(k); })
         << "\n\n";
    }
    if (conv.livelocks.trail()) {
      os << "Witness trail: `" << conv.livelocks.trail()->to_string(p)
         << "`\n\n";
      const auto real = realize_trail(p, *conv.livelocks.trail());
      os << "Trail realization at K=" << real.ring_size << ": **"
         << to_string(real.verdict) << "**\n\n";
    }
    if (!conv.livelocks.covers_all_livelocks) {
      const auto combo = check_livelock_freedom_bidirectional(p);
      os << "_Bidirectional ring: the single-orientation verdict covers "
            "rightward contiguous livelocks only. Combined two-orientation "
            "check: "
         << (combo.verdict ==
                     BidirectionalLivelockAnalysis::Verdict::kLivelockFree
                 ? "no contiguous livelocks in either direction."
                 : "a qualifying trail exists in at least one orientation.")
         << "_\n\n";
    }
  });

  // Exhaustive cross-checks. The necklace-quotient column shows the
  // rotation-symmetry reduction the `--symmetry` engine exploits (its
  // verdicts are identical; tests cross-validate the two).
  timer.measure("report.exhaustive_checks", [&] {
    os << "## Exhaustive spot checks\n\n"
       << "| K | states | necklaces | deadlocks outside I | livelock | "
          "strong self-stabilization |\n|---|---|---|---|---|---|\n";
    for (std::size_t k = kMinRing; k <= opt.max_ring; ++k) {
      try {
        const RingInstance ring(p, k, kMaxStates);
        const auto res = GlobalChecker(ring, opt.num_threads).check_all();
        const auto census = necklace_census(ring, 0, opt.num_threads);
        os << "| " << k << " | " << res.num_states << " | "
           << census.num_necklaces << " | "
           << res.num_deadlocks_outside_i << " | "
           << (res.has_livelock ? "yes" : "no") << " | "
           << (res.strongly_converges()
                   ? cat("yes (worst recovery ", res.max_recovery_steps,
                         " steps)")
                   : "no")
           << " |\n";
      } catch (const CapacityError&) {
        os << "| " << k << " | over budget | — | — | — | — |\n";
      }
    }
    os << "\n";
  });

  // Simulation.
  if (opt.sim_trials > 0) {
    timer.measure("report.simulation", [&] {
      EstimateOptions eo = uniform_daemon_batch(opt.sim_trials, kSimSeed);
      eo.num_threads = opt.num_threads;
      const auto est = estimate_convergence_rounds(p, kSimRing, eo);
      os << "## Simulated recovery (K=" << kSimRing << ", "
         << opt.sim_trials << " random starts)\n\n"
         << "converged " << est.converged << "/" << est.trajectories
         << ", steps: mean " << est.mean_rounds << ", p50 "
         << est.p50_rounds << ", p95 " << est.p95_rounds << ", max "
         << est.max_rounds << "\n\n";
    });
  }
}

void array_report(const Protocol& p, const ReportOptions& opt,
                  std::ostringstream& os, SectionTimer& timer) {
  timer.measure("report.array_analysis", [&] {
    const auto res = analyze_array_deadlocks(p, 64);
    os << "## Array analysis (valid for every length)\n\n"
       << (res.deadlock_free_all_n
               ? "Deadlock-free outside I for every array length.\n"
               : cat("Deadlocked lengths up to ", res.spectrum_max_n, ": ",
                     join(res.deadlocked_sizes(), " ",
                          [](std::size_t n) { return std::to_string(n); }),
                     "\n"))
       << "\nTermination: "
       << (array_terminates_always(p)
               ? "guaranteed under every schedule (unidirectional, "
                 "self-disabling).\n"
               : "not guaranteed by the local argument.\n");
  });
  timer.measure("report.exhaustive_checks", [&] {
    os << "\n## Exhaustive spot checks\n\n"
       << "| n | states | deadlocks outside I | livelock | terminates "
          "|\n|---|---|---|---|---|\n";
    for (std::size_t n = kMinRing; n <= opt.max_ring; ++n) {
      try {
        const RingInstance inst = RingInstance::array(p, n, kMaxStates);
        const auto check = GlobalChecker(inst, opt.num_threads).check_all();
        os << "| " << n << " | " << inst.num_states() << " | "
           << check.num_deadlocks_outside_i << " | "
           << (check.has_livelock ? "yes" : "no") << " | "
           << (terminates(inst, opt.num_threads) ? "yes" : "no") << " |\n";
      } catch (const CapacityError&) {
        os << "| " << n << " | over budget | — | — | — |\n";
      }
    }
    os << "\n";
  });
}

}  // namespace

std::string markdown_report(const Protocol& p, const ReportOptions& opt) {
  const obs::Span span("report.markdown_report");
  std::ostringstream os;
  os << "# ringstab report: " << p.name() << "\n\n"
     << "- domain: " << p.domain().size() << " values\n"
     << "- locality: reads " << -p.locality().left << " .. "
     << p.locality().right << "\n"
     << "- local states: " << p.num_states() << " (" << p.num_legit()
     << " legitimate)\n"
     << "- local transitions: " << p.delta().size() << "\n\n"
     << "## Guarded commands\n\n```\n";
  for (const auto& a : to_guarded_commands(p)) os << a.text << "\n";
  os << "```\n\n";

  SectionTimer timer;
  timer.measure("report.lint", [&] {
    LintOptions lint_opts;
    lint_opts.array_topology = opt.array_topology;
    const LintResult lint = lint_protocol(p, lint_opts);
    os << "## Lint\n\n";
    if (lint.diagnostics.empty()) {
      os << "Protocol-level passes are clean "
            "(RS002/RS010/RS011/RS020/RS030).\n\n";
    } else {
      os << "```\n" << render_text(lint.diagnostics) << "```\n\n";
    }
  });
  if (opt.array_topology)
    array_report(p, opt, os, timer);
  else
    ring_report(p, opt, os, timer);
  if (opt.section_timings) timer.table(os);
  return os.str();
}

}  // namespace ringstab
