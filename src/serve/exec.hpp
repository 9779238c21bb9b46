// Request execution shared by the local CLI front-ends and the
// ringstab-serve daemon (DESIGN.md §12, docs/serve.md).
//
// Byte-identity is the contract: `ringstab check/lint/synthesize` and a
// `check`/`lint`/`synthesize` request answered by the daemon must produce
// the same bytes, cold or cached. The only way to keep that true across
// refactors is to have exactly one implementation of each rendering, so
// the CLI's command bodies live here and both front-ends call them.
//
// `execute()` is a pure function of (cmd, source, k, result-affecting
// options): the thread count (`options.jobs`) is execution advice — every
// engine is bit-identical at any thread count by construction — and is
// therefore excluded from `cache_key()`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <tuple>

#include "analysis/lint.hpp"
#include "core/protocol.hpp"
#include "global/ring_instance.hpp"
#include "serve/cache.hpp"
#include "synthesis/portfolio.hpp"

namespace ringstab::serve {

/// Result-affecting request options plus the `jobs` execution hint.
struct RequestOptions {
  std::size_t jobs = 1;     // worker lanes; NOT part of the cache key
  bool symmetry = false;    // check/analyze: rotation-quotient engine
  bool all = false;         // synthesize: print every solution
  bool json = false;        // lint: machine-readable rendering
  bool lint = false;        // analyze: run the RS0xx lint passes
  bool werror = false;      // lint: exit 1 on warnings too (errors always 1)
  bool synth = false;       // analyze: try Problem 3.1 when uncertified
  std::size_t check_k = 0;  // analyze: global cross-check size (0 = off)

  // Monte Carlo estimation (cmd "simulate", and the analyze `sim_k`
  // column). All of these are part of the verdict's identity; `jobs` stays
  // out because the estimator is bit-identical at every thread count
  // (docs/simulation.md).
  std::size_t trajectories = 1000;  // sampled trajectories
  std::uint64_t sim_seed = 1;       // PRNG seed (field "seed" on the wire)
  std::size_t round_cap = 100'000;  // per-trajectory cap ("cap" on the wire)
  double coin = 0.5;                // synchronous-coin fire probability
  std::string scheduler = "coin";   // "coin" | "weighted"
  std::string target = "invariant";  // "invariant" | "one-token"
  std::string start = "random";      // "random" | "zero" | "three"
  std::size_t sim_k = 0;  // analyze: Monte Carlo probe ring size (0 = off)
};

/// One RequestOptions member and its name in the wire's "options" object;
/// its default is the member's initializer above.
template <typename T>
struct OptionField {
  const char* wire;
  T RequestOptions::*member;
};

/// Every RequestOptions field, in wire order: the one list the codec
/// (encode_request, decode_request) and cache_key walk, so a field added
/// here is encoded, decoded and keyed together.
inline constexpr std::tuple kOptionFields{
    OptionField<std::size_t>{"jobs", &RequestOptions::jobs},
    OptionField<bool>{"symmetry", &RequestOptions::symmetry},
    OptionField<bool>{"all", &RequestOptions::all},
    OptionField<bool>{"json", &RequestOptions::json},
    OptionField<bool>{"lint", &RequestOptions::lint},
    OptionField<bool>{"werror", &RequestOptions::werror},
    OptionField<bool>{"synth", &RequestOptions::synth},
    OptionField<std::size_t>{"check_k", &RequestOptions::check_k},
    OptionField<std::size_t>{"trajectories", &RequestOptions::trajectories},
    OptionField<std::uint64_t>{"seed", &RequestOptions::sim_seed},
    OptionField<std::size_t>{"cap", &RequestOptions::round_cap},
    OptionField<double>{"coin", &RequestOptions::coin},
    OptionField<std::string>{"scheduler", &RequestOptions::scheduler},
    OptionField<std::string>{"target", &RequestOptions::target},
    OptionField<std::string>{"start", &RequestOptions::start},
    OptionField<std::size_t>{"sim_k", &RequestOptions::sim_k},
};

/// Call `f(field)` on each entry of kOptionFields, in order.
template <typename F>
void for_each_option_field(F&& f) {
  std::apply([&](const auto&... field) { (f(field), ...); }, kOptionFields);
}

/// One JSONL request: `{"cmd":..., "source":..., "k":..., "options":...}`.
struct Request {
  std::string cmd;             // "check" | "lint" | "synthesize" | "analyze"
  std::string source;          // .ring source text
  std::string name = "<request>";  // display name (lint summary, errors)
  std::size_t k = 0;           // check: ring size
  RequestOptions options;
};

// ── shared command renderers (the single source of the output bytes) ──

/// `ringstab check <file> -k K [--jobs N] [--symmetry] [--array]` on a ring
/// or an array instance; the quotient throws ModelError on an array.
int render_check(const RingInstance& ring, std::size_t jobs, bool symmetry,
                 std::ostream& out);

/// `ringstab synthesize <file> [--all] [--jobs N]` (ring topology).
int render_synthesize(const Protocol& p, bool all, std::size_t jobs,
                      std::ostream& out);

/// `ringstab lint <file> [--json] [--werror]` over an already-computed
/// LintResult; `display_name` is the path/name echoed in the text summary
/// line. Exit 1 iff an error survives suppression — or, with `werror`, a
/// warning does.
int render_lint(const LintResult& lint, const std::string& display_name,
                bool json, bool werror, std::ostream& out);

/// `ringstab simulate <file> -k K --random [...]`: Monte Carlo estimate of
/// the expected convergence time under a probabilistic scheduler
/// (docs/simulation.md). Exit 0 iff no trajectory was censored. Throws
/// ModelError on unknown scheduler/target/start strings or a coin outside
/// [0, 1].
int render_simulate(const Protocol& p, std::size_t k,
                    const RequestOptions& options, std::ostream& out);

// ── batch rows ──

/// One `ringstab-batch` table row, shared verbatim between local execution
/// and the daemon's `analyze` command.
struct BatchOutcome {
  std::string name;
  std::string verdict;
  std::string expectation;  // "", "converges", "fails"
  bool ok = true;
};

/// Analyze one .ring file the way `ringstab-batch` does: annotation
/// markers, local analysis (ring or array), optional global cross-check at
/// `options.check_k`, optional synthesis diagnostic, optional lint.
/// `memo` (may be null) is the shared synthesis verdict memo.
BatchOutcome batch_outcome(const std::string& text,
                           const std::string& filename,
                           const RequestOptions& options,
                           const std::shared_ptr<VerdictMemo>& memo);

/// One-line JSON round-trip for shipping a BatchOutcome over the wire.
std::string batch_outcome_json(const BatchOutcome& outcome);
BatchOutcome parse_batch_outcome(const std::string& json_text);

// ── request execution ──

/// The exact cache identity of a request: a byte string over (cmd, k,
/// result-affecting options, source). Distinct identities always produce
/// distinct keys; `options.jobs` is deliberately excluded (results are
/// thread-count-invariant). Throws ModelError on an unknown cmd.
std::string cache_key(const Request& req);

/// Run one request to completion. Protocol-level failures (parse errors,
/// bad K) are part of the result — they come back as `output` text with a
/// nonzero exit code, exactly as the CLI reports them — so error verdicts
/// cache like any other. Only malformed requests (unknown cmd) throw.
ExecResult execute(const Request& req,
                   const std::shared_ptr<VerdictMemo>& memo = nullptr);

}  // namespace ringstab::serve
