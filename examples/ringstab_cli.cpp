// ringstab — command-line front-end over .ring protocol files.
//
//   ringstab analyze    <file.ring>             local verdicts (Thm 4.2/5.14)
//   ringstab synthesize <file.ring> [--all]     solve Problem 3.1
//   ringstab check      <file.ring> -k <K>      exhaustive global check
//   ringstab sweep      <file.ring> [--min K] [--max K]   cutoff verification
//   ringstab dot        <file.ring> [--rcg|--ltg|--deadlock-rcg]
//   ringstab simulate   <file.ring> -k <K> [--trials N] [--seed S]
//                       [--random [--trajectories N] [--coin P] ...]
//   ringstab emit       <file.ring>             round-trip to .ring source
//   ringstab lint       <file.ring> [--json]    structured diagnostics
//
// The check/synthesize/lint/simulate output paths live in
// src/serve/exec.cpp and are shared byte-for-byte with the ringstab-serve
// daemon (docs/serve.md).
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>

#include "core/fmt.hpp"
#include "obs/session.hpp"
#include "analysis/lint.hpp"
#include "core/parser.hpp"
#include "core/printer.hpp"
#include "core/ring_writer.hpp"
#include "global/cutoff.hpp"
#include "global/ring_instance.hpp"
#include "local/array.hpp"
#include "report/report.hpp"
#include "graph/dot.hpp"
#include "local/convergence.hpp"
#include "local/rcg.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/exec.hpp"
#include "serve/shutdown.hpp"
#include "sim/simulator.hpp"
#include "synthesis/array_synthesizer.hpp"
#include "synthesis/local_synthesizer.hpp"

namespace {

using namespace ringstab;

int usage() {
  std::cerr <<
      "usage: ringstab <command> <file.ring> [options]\n"
      "  analyze    local convergence analysis (valid for every ring size)\n"
      "  synthesize add convergence (Problem 3.1); --all prints every\n"
      "             solution; --jobs N evaluates candidates on N lanes\n"
      "             (alias: synth)\n"
      "  check      exhaustive model check at one size: -k <K> [--jobs N]\n"
      "             [--array]  an array of K processes instead of a ring\n"
      "             [--symmetry]  check the rotation quotient (necklace\n"
      "             enumeration; identical verdicts, ~K× fewer states)\n"
      "  sweep      cutoff verification: [--min K] [--max K]\n"
      "  dot        emit graphviz: --rcg (default), --ltg, --deadlock-rcg\n"
      "  simulate   Monte Carlo convergence time (docs/simulation.md):\n"
      "             -k <K> [--trials N] [--seed S] random starts under the\n"
      "             uniform random daemon; with --random, under a\n"
      "             probabilistic scheduler: [--trajectories N] [--cap N]\n"
      "             [--scheduler coin|weighted] [--coin P]\n"
      "             [--target invariant|one-token]\n"
      "             [--start random|zero|three]; bit-identical at every\n"
      "             --jobs N for a fixed seed\n"
      "  emit       print the protocol back as .ring source\n"
      "  lint       structured RS0xx/RS1xx diagnostics over the DSL and the\n"
      "             representative process; --json for machine-readable\n"
      "             output (docs/lint.md); exit 1 iff errors, or with\n"
      "             --werror iff errors or warnings\n"
      "  report     full markdown analysis report [--array] [--max K]\n"
      "  trace      step-by-step run: -k <K> [--from v,v,...] [--seed S]\n"
      "  --jobs N   worker threads for the global checker / simulator\n"
      "             sweeps and the synthesis candidate portfolio (default 1 =\n"
      "             the serial engine; 0 = all cores; results are identical\n"
      "             at every N)\n"
      "observability (any command):\n"
      "  --stats         phase/counter summary on stderr at exit\n"
      "  --trace <file>  Chrome trace-event JSON (chrome://tracing, Perfetto)\n"
      "  --jsonl <file>  JSON-lines event stream\n"
      "  --metrics <file> versioned run manifest (ringstab.metrics.v2:\n"
      "                  per-phase self/total times, counters, histogram\n"
      "                  quantiles, memory peaks; diffable by ringstab-perf)\n"
      "  --progress      periodic states/sec heartbeat on stderr\n";
  return 2;
}

/// Value of a value-taking flag, or nullptr when the flag is absent. A flag
/// in the final argv slot, or one whose "value" is the next `--` option
/// (`--jsonl --stats` would otherwise write a file named "--stats"), is an
/// error rather than silently absent.
const char* arg_string(int argc, char** argv, const char* name) {
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], name) != 0) continue;
    if (i + 1 >= argc)
      throw ModelError(cat("flag ", name, " requires a value"));
    if (std::strncmp(argv[i + 1], "--", 2) == 0)
      throw ModelError(cat("flag ", name, " is missing its value (found '",
                           argv[i + 1], "')"));
    return argv[i + 1];
  }
  return nullptr;
}

/// Strict numeric flag: absent → fallback; anything non-numeric, trailing
/// garbage, or outside [min, max] is a one-line error — never a silent 0
/// (atoll on "foo") or a size_t wraparound (on "-3").
long long arg_value(int argc, char** argv, const char* name,
                    long long fallback, long long min, long long max) {
  const char* raw = arg_string(argc, argv, name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const long long n = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || n < min || n > max)
    throw ModelError(cat("invalid ", name, " value '", raw,
                         "': expected an integer in [", min, ", ", max, "]"));
  return n;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 3; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

/// --jobs: a non-negative integer; 0 resolves to all hardware lanes.
/// Negative or non-numeric values are rejected up front.
std::size_t parse_jobs(int argc, char** argv) {
  const char* raw = arg_string(argc, argv, "--jobs");
  if (raw == nullptr) return 1;
  char* end = nullptr;
  const long long n = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || n < 0)
    throw ModelError(cat("invalid --jobs value '", raw,
                         "': expected a non-negative integer "
                         "(0 = all hardware threads)"));
  return resolve_threads(static_cast<std::size_t>(n));
}

int cmd_analyze_array(const Protocol& p) {
  std::cout << describe(p) << "\n";
  const auto res = analyze_array_deadlocks(p);
  std::cout << "array deadlock analysis (walk condition, exact for every "
               "length):\n  "
            << (res.deadlock_free_all_n
                    ? "deadlock-free for every array length"
                    : "deadlocked lengths up to " +
                          std::to_string(res.spectrum_max_n) + ": " +
                          join(res.deadlocked_sizes(), " ",
                               [](std::size_t n) { return std::to_string(n); }))
            << "\n  terminates under every schedule: "
            << (array_terminates_always(p)
                    ? "yes (unidirectional + self-disabling)"
                    : "not guaranteed by the local argument")
            << "\n";
  return res.deadlock_free_all_n ? 0 : 1;
}

int cmd_analyze(const Protocol& p) {
  std::cout << describe(p) << "\n";
  const auto res = check_convergence(p);
  std::cout << res.summary(p) << "\n";
  if (!res.deadlocks.deadlock_free_all_k) {
    std::cout << "deadlocked ring sizes up to "
              << res.deadlocks.spectrum_max_k << ":";
    for (std::size_t k : res.deadlocks.deadlocked_sizes())
      std::cout << " " << k;
    std::cout << "\nbad cycles in the deadlock RCG:\n";
    for (const auto& c : res.deadlocks.bad_cycles) {
      std::cout << "  [";
      for (auto v : c) std::cout << p.space().brief(v) << " ";
      std::cout << "]\n";
    }
  }
  if (res.livelocks.trail())
    std::cout << "witness trail: " << res.livelocks.trail()->to_string(p)
              << "\n";
  return res.verdict == ConvergenceAnalysis::Verdict::kConverges ? 0 : 1;
}

int cmd_dot(const Protocol& p, int argc, char** argv) {
  if (has_flag(argc, argv, "--ltg")) {
    std::cout << Ltg(p).to_dot();
    return 0;
  }
  const bool deadlock_only = has_flag(argc, argv, "--deadlock-rcg");
  const Digraph g = deadlock_only ? deadlock_rcg(p) : build_rcg(p.space());
  DotOptions opts;
  opts.graph_name = deadlock_only ? "deadlock_rcg" : "rcg";
  opts.label = [&](VertexId v) { return p.space().brief(v); };
  opts.vertex_attrs = [&](VertexId v) {
    return p.is_legit(v) ? std::string("style=filled,fillcolor=lightgray")
                         : std::string();
  };
  if (deadlock_only)
    opts.include = [&, g = &g](VertexId v) {
      return p.is_deadlock(v);
    };
  std::cout << to_dot(g, opts);
  return 0;
}

int cmd_trace(const Protocol& p, std::size_t k, std::uint64_t seed,
              const char* from, std::size_t max_steps) {
  Simulator sim(p, k, seed);
  if (from != nullptr) {
    std::vector<Value> state;
    std::string token;
    for (const char* c = from;; ++c) {
      if (*c == ',' || *c == '\0') {
        if (!token.empty()) {
          const auto v = p.domain().value_of(token);
          if (!v) throw ModelError("unknown value in --from: " + token);
          state.push_back(*v);
          token.clear();
        }
        if (*c == '\0') break;
      } else {
        token += *c;
      }
    }
    sim.set_state(std::move(state));
  } else {
    sim.randomize();
  }

  auto dump = [&](const std::vector<Value>& state) {
    std::string s;
    for (Value v : state) s += p.domain().abbrev(v);
    return s;
  };
  std::cout << "     " << dump(sim.state())
            << (sim.in_invariant() ? "   ∈ I" : "   ∉ I") << "\n";
  for (std::size_t n = 1; n <= max_steps; ++n) {
    if (sim.in_invariant() && sim.deadlocked()) {
      std::cout << "silent legitimate state reached after " << n - 1
                << " steps\n";
      return 0;
    }
    const auto step = sim.step();
    if (!step) {
      std::cout << (sim.in_invariant()
                        ? "silent legitimate state reached"
                        : "DEADLOCK outside I")
                << " after " << n - 1 << " steps\n";
      return sim.in_invariant() ? 0 : 1;
    }
    std::cout << std::setw(4) << n << " " << dump(sim.state()) << "   P"
              << step->process << ": "
              << p.domain().name(p.space().self(step->transition.from)) << "→"
              << p.domain().name(p.space().self(step->transition.to))
              << (sim.in_invariant() ? "   ∈ I" : "") << "\n";
  }
  std::cout << "step cap reached\n";
  return 1;
}

/// `simulate`: the Monte Carlo estimator, rendered by serve::render_simulate
/// so the daemon's `simulate` verdicts are byte-identical to the CLI's.
/// Without --random it samples the uniform interleaving daemon
/// (kWeightedRandom with no weights) from --trials random starts, each
/// capped at 1,000,000 steps.
int cmd_estimate(const Protocol& p, int argc, char** argv, std::size_t jobs) {
  serve::RequestOptions opts;
  opts.jobs = jobs;
  opts.sim_seed = static_cast<std::uint64_t>(
      arg_value(argc, argv, "--seed", 1, 0,
                std::numeric_limits<long long>::max()));
  if (!has_flag(argc, argv, "--random")) {
    opts.scheduler = "weighted";
    opts.trajectories = static_cast<std::size_t>(
        arg_value(argc, argv, "--trials", 100, 1, 1'000'000'000));
    opts.round_cap = 1'000'000;
  } else {
    opts.trajectories = static_cast<std::size_t>(
        arg_value(argc, argv, "--trajectories", 1000, 1, 100'000'000));
    opts.round_cap = static_cast<std::size_t>(
        arg_value(argc, argv, "--cap", 100'000, 1, 1'000'000'000));
    if (const char* s = arg_string(argc, argv, "--scheduler"))
      opts.scheduler = s;
    if (const char* s = arg_string(argc, argv, "--target")) opts.target = s;
    if (const char* s = arg_string(argc, argv, "--start")) opts.start = s;
    if (const char* raw = arg_string(argc, argv, "--coin")) {
      char* end = nullptr;
      const double coin = std::strtod(raw, &end);
      if (end == raw || *end != '\0' || !(coin >= 0.0 && coin <= 1.0))
        throw ModelError(cat("invalid --coin value '", raw,
                             "': expected a probability in [0, 1]"));
      opts.coin = coin;
    }
  }
  const auto k =
      static_cast<std::size_t>(arg_value(argc, argv, "-k", 8, 2, 4095));
  return serve::render_simulate(p, k, opts, std::cout);
}

/// Command dispatch, separated from main() so the observability session can
/// fold sink health into the final exit code after the command returns.
int run(const std::string& command, int argc, char** argv) {
  if (command == "lint") {
    // Dispatched before parse_protocol_file so unparsable files still
    // produce a located RS000 diagnostic instead of a raw exception.
    const LintResult lint = lint_ring_file(argv[2]);
    return serve::render_lint(lint, argv[2], has_flag(argc, argv, "--json"),
                              has_flag(argc, argv, "--werror"), std::cout);
  }

  const Protocol p = parse_protocol_file(argv[2]);
  const std::size_t jobs = parse_jobs(argc, argv);
  if (command == "analyze")
    return has_flag(argc, argv, "--array") ? cmd_analyze_array(p)
                                           : cmd_analyze(p);
  if (command == "synthesize" || command == "synth") {
    if (has_flag(argc, argv, "--array")) {
      ArraySynthesisOptions options;
      options.num_threads = jobs;
      const auto res = synthesize_array_convergence(p, options);
      std::cout << res.summary(p) << "\n";
      if (res.success) std::cout << describe(res.solutions[0].protocol);
      return res.success ? 0 : 1;
    }
    return serve::render_synthesize(p, has_flag(argc, argv, "--all"), jobs,
                                    std::cout);
  }
  if (command == "check") {
    const auto k =
        static_cast<std::size_t>(arg_value(argc, argv, "-k", 5, 2, 63));
    const RingInstance inst = has_flag(argc, argv, "--array")
                                  ? RingInstance::array(p, k)
                                  : RingInstance(p, k);
    return serve::render_check(inst, jobs, has_flag(argc, argv, "--symmetry"),
                               std::cout);
  }
  if (command == "sweep") {
    const auto rep = verify_up_to_cutoff(
        p, static_cast<std::size_t>(arg_value(argc, argv, "--min", 2, 2, 63)),
        static_cast<std::size_t>(arg_value(argc, argv, "--max", 9, 2, 63)));
    std::cout << rep.to_string(p);
    return rep.all_stabilize ? 0 : 1;
  }
  if (command == "emit") {
    std::cout << to_ring_source(p);
    return 0;
  }
  if (command == "report") {
    ReportOptions opts;
    opts.array_topology = has_flag(argc, argv, "--array");
    opts.max_ring =
        static_cast<std::size_t>(arg_value(argc, argv, "--max", 7, 2, 63));
    opts.num_threads = jobs;
    std::cout << markdown_report(p, opts);
    return 0;
  }
  if (command == "dot") return cmd_dot(p, argc, argv);
  if (command == "trace") {
    return cmd_trace(
        p, static_cast<std::size_t>(arg_value(argc, argv, "-k", 8, 2, 63)),
        static_cast<std::uint64_t>(arg_value(argc, argv, "--seed", 1, 0,
                                             std::numeric_limits<long long>::max())),
        arg_string(argc, argv, "--from"),
        static_cast<std::size_t>(
            arg_value(argc, argv, "--max", 200, 1, 1'000'000'000)));
  }
  if (command == "simulate") return cmd_estimate(p, argc, argv, jobs);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  try {
    // Installed before the session (and before any engine spawns workers)
    // so SIGINT/SIGTERM flush partial metrics instead of dropping them.
    const serve::ShutdownWatcher watcher(serve::flush_and_exit_on_signal);

    obs::SessionOptions obs_opts;
    obs_opts.stats = has_flag(argc, argv, "--stats");
    obs_opts.progress = has_flag(argc, argv, "--progress");
    if (const char* f = arg_string(argc, argv, "--trace")) obs_opts.trace_path = f;
    if (const char* f = arg_string(argc, argv, "--jsonl")) obs_opts.jsonl_path = f;
    if (const char* f = arg_string(argc, argv, "--metrics")) obs_opts.metrics_path = f;
    obs_opts.command = command;
    for (int i = 2; i < argc; ++i) obs_opts.command += cat(" ", argv[i]);
    obs::Session obs_session(obs_opts);

    int rc = run(command, argc, argv);
    // A run whose requested artifact (--metrics/--trace/--jsonl) failed to
    // write completely must not exit 0.
    if (!obs_session.finish() && rc == 0) rc = 1;
    return rc;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
