// The protocol lint engine: one golden fixture per RS code, suppression
// directives, JSON round-tripping, located parser errors, and the
// synthesizers' ill-formedness screen (tallies, counters, thread
// invariance, and what the fixed-K sweep says about the rejected).
#include <filesystem>
#include <gtest/gtest.h>

#include "analysis/absint.hpp"
#include "analysis/lint.hpp"
#include "core/parser.hpp"
#include "obs/obs.hpp"
#include "synthesis/global_synthesizer.hpp"
#include "synthesis/local_synthesizer.hpp"

namespace ringstab {
namespace {

std::string fixture(const std::string& name) {
  return std::string(RINGSTAB_LINT_FIXTURES) + "/" + name;
}

bool has_code(const LintResult& res, const std::string& code,
              Severity severity) {
  for (const auto& d : res.diagnostics)
    if (d.code == code && d.severity == severity) return true;
  return false;
}

struct GoldenCase {
  const char* file;
  const char* code;
  Severity severity;
};

// One broken fixture per diagnostic code (and per severity tier where a
// code has several).
const GoldenCase kGolden[] = {
    {"rs000_syntax.ring", "RS000", Severity::kError},
    {"rs001_domain.ring", "RS001", Severity::kError},
    {"rs001_stutter.ring", "RS001", Severity::kWarning},
    {"rs002_cycle.ring", "RS002", Severity::kError},
    {"rs002_nsd.ring", "RS002", Severity::kWarning},
    {"rs003_conflict.ring", "RS003", Severity::kWarning},
    {"rs010_dead.ring", "RS010", Severity::kWarning},
    {"rs011_deadlock.ring", "RS011", Severity::kWarning},
    {"rs011_behind_scc.ring", "RS011", Severity::kWarning},
    {"rs020_empty.ring", "RS020", Severity::kError},
    {"rs020_unused.ring", "RS020", Severity::kNote},
    {"rs030_closure.ring", "RS030", Severity::kError},
    {"rs100_vacuous.ring", "RS100", Severity::kWarning},
    {"rs102_implies.ring", "RS102", Severity::kNote},
    {"rs110_spurious.ring", "RS110", Severity::kNote},
};

TEST(Lint, GoldenFixtures) {
  for (const auto& g : kGolden) {
    const LintResult res = lint_ring_file(fixture(g.file));
    EXPECT_TRUE(has_code(res, g.code, g.severity))
        << g.file << " should emit " << g.code << " at severity "
        << severity_name(g.severity) << "; got:\n"
        << render_text(res.diagnostics);
    EXPECT_EQ(res.has_error(), res.count(Severity::kError) > 0);
  }
}

TEST(Lint, ErrorFixturesFailAndWarningFixturesDoNot) {
  EXPECT_TRUE(lint_ring_file(fixture("rs020_empty.ring")).has_error());
  EXPECT_TRUE(lint_ring_file(fixture("rs002_cycle.ring")).has_error());
  EXPECT_FALSE(lint_ring_file(fixture("rs003_conflict.ring")).has_error());
  EXPECT_FALSE(lint_ring_file(fixture("rs011_deadlock.ring")).has_error());
}

TEST(Lint, ShippedRingZooIsLintClean) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RINGSTAB_RINGS)) {
    if (entry.path().extension() != ".ring") continue;
    ++files;
    const LintResult res = lint_ring_file(entry.path().string());
    EXPECT_TRUE(res.diagnostics.empty())
        << entry.path().filename() << " is not lint-clean:\n"
        << render_text(res.diagnostics);
  }
  EXPECT_GE(files, 8u);
}

TEST(Lint, AllowDirectiveSuppressesAndCounts) {
  // matching_gen acknowledges its intentional A3a/A3b nondeterminism.
  const LintResult res =
      lint_ring_file(std::string(RINGSTAB_RINGS) + "/matching_gen.ring");
  EXPECT_TRUE(res.diagnostics.empty());
  EXPECT_GE(res.suppressed, 1u);

  // The same file without the directive produces the RS003 warning.
  const std::string text =
      read_source_file(std::string(RINGSTAB_RINGS) + "/matching_gen.ring");
  ProtocolSource src = parse_protocol_source(text);
  src.lint_allows.clear();
  EXPECT_TRUE(has_code(lint_source(src), "RS003", Severity::kWarning));
}

TEST(Lint, SpanRecoveredFromParseError) {
  const LintResult res = lint_ring_file(fixture("rs000_syntax.ring"));
  ASSERT_EQ(res.diagnostics.size(), 1u);
  const Diagnostic& d = res.diagnostics[0];
  EXPECT_EQ(d.code, "RS000");
  EXPECT_TRUE(d.span.valid());
  EXPECT_EQ(d.span.line, 4);
  // The rendered location prefix survives end to end.
  EXPECT_NE(render_text(res.diagnostics).find(":4:"), std::string::npos);
}

TEST(Lint, ParserErrorsCarryFileLineColumn) {
  try {
    parse_protocol_file(fixture("rs000_syntax.ring"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(fixture("rs000_syntax.ring") + ":4:"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(": error: "), std::string::npos) << msg;
  }
  // String entry points locate errors in "<input>".
  try {
    parse_protocol("protocol p;\ndomain 99999999999999999999;\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("<input>:2:"), std::string::npos)
        << e.what();
  }
}

TEST(Lint, JsonRoundTrip) {
  const LintResult res = lint_ring_file(fixture("rs001_domain.ring"));
  ASSERT_FALSE(res.diagnostics.empty());
  EXPECT_EQ(parse_diagnostics_json(render_json(res.diagnostics)),
            res.diagnostics);
}

TEST(Lint, JsonRoundTripEscapes) {
  Diagnostic d;
  d.code = "RS099";
  d.severity = Severity::kWarning;
  d.message = "quote \" backslash \\ newline \n tab \t bell \x07 done";
  d.hint = "carriage\rreturn";
  d.file = "weird \"name\".ring";
  d.span = SourceSpan{3, 17};
  const std::vector<Diagnostic> diags{d};
  EXPECT_EQ(parse_diagnostics_json(render_json(diags)), diags);
}

TEST(Lint, EmptyDiagnosticsRenderAsEmptyArray) {
  EXPECT_EQ(parse_diagnostics_json(render_json({})),
            std::vector<Diagnostic>{});
  EXPECT_EQ(render_text({}), "");
}

TEST(Lint, CertificateNotesAreGatedByOption) {
  // RS101/RS120 fixtures are clean by default: positive certificates only
  // appear when asked for, even though the discharge wiring is always on.
  EXPECT_TRUE(
      lint_ring_file(fixture("rs101_selfdisable.ring")).diagnostics.empty());
  EXPECT_TRUE(
      lint_ring_file(fixture("rs120_closure.ring")).diagnostics.empty());

  LintOptions certs;
  certs.absint_certificates = true;
  EXPECT_TRUE(has_code(lint_ring_file(fixture("rs101_selfdisable.ring"), certs),
                       "RS101", Severity::kNote));
  EXPECT_TRUE(has_code(lint_ring_file(fixture("rs120_closure.ring"), certs),
                       "RS120", Severity::kNote));
}

TEST(Lint, TrailReplayBudgetZeroDisablesRs110) {
  LintOptions off;
  off.trail_replay_budget = 0;
  EXPECT_FALSE(has_code(lint_ring_file(fixture("rs110_spurious.ring"), off),
                        "RS110", Severity::kNote));
}

TEST(Lint, JsonRoundTripEveryCode) {
  // Every registered code survives render -> parse with every severity it
  // can be emitted at (docs/lint.md).
  const std::vector<Diagnostic> diags = [] {
    std::vector<Diagnostic> out;
    const struct {
      const char* code;
      Severity severity;
    } rows[] = {
        {"RS000", Severity::kError},   {"RS001", Severity::kError},
        {"RS001", Severity::kWarning}, {"RS002", Severity::kError},
        {"RS002", Severity::kWarning}, {"RS003", Severity::kWarning},
        {"RS010", Severity::kWarning}, {"RS011", Severity::kWarning},
        {"RS020", Severity::kError},   {"RS020", Severity::kWarning},
        {"RS020", Severity::kNote},    {"RS030", Severity::kError},
        {"RS030", Severity::kNote},    {"RS100", Severity::kWarning},
        {"RS100", Severity::kNote},    {"RS101", Severity::kNote},
        {"RS102", Severity::kNote},    {"RS110", Severity::kNote},
        {"RS120", Severity::kNote},
    };
    int line = 1;
    for (const auto& r : rows) {
      Diagnostic d;
      d.code = r.code;
      d.severity = r.severity;
      d.message = std::string("synthetic finding for ") + r.code;
      d.hint = "round-trip me";
      d.file = "every_code.ring";
      d.span = SourceSpan{line++, 1};
      out.push_back(std::move(d));
    }
    return out;
  }();
  EXPECT_EQ(parse_diagnostics_json(render_json(diags)), diags);

  // And the real fixture output for each golden case round-trips too.
  for (const auto& g : kGolden) {
    SCOPED_TRACE(g.file);
    const LintResult res = lint_ring_file(fixture(g.file));
    EXPECT_EQ(parse_diagnostics_json(render_json(res.diagnostics)),
              res.diagnostics);
  }
}

TEST(Lint, AllowDirectiveUnknownCodeIsInertDuplicatesCountOnce) {
  const std::string base =
      "protocol racer;\n"
      "domain 3;\n"
      "reads -1 .. 0;\n"
      "legit: x[0] == 1 || x[0] == 2;\n"
      "action go_one: x[0] == 0 -> x[0] := 1;\n"
      "action go_two: x[-1] == 0 && x[0] == 0 -> x[0] := 2;\n";

  // An unknown code suppresses nothing and is not an error.
  const LintResult unknown = lint_source(
      parse_protocol_source("# lint: allow(RS999)\n" + base, "unknown.ring"));
  EXPECT_TRUE(has_code(unknown, "RS003", Severity::kWarning));
  EXPECT_EQ(unknown.suppressed, 0u);

  // Listing a code twice suppresses each matching finding exactly once.
  const LintResult once = lint_source(
      parse_protocol_source("# lint: allow(RS003, RS102)\n" + base, "a.ring"));
  const LintResult twice = lint_source(parse_protocol_source(
      "# lint: allow(RS003, RS003, RS102, RS102)\n" + base, "b.ring"));
  EXPECT_FALSE(has_code(twice, "RS003", Severity::kWarning));
  EXPECT_EQ(once.suppressed, twice.suppressed);
  EXPECT_GE(once.suppressed, 1u);
}

TEST(Lint, AllowDirectiveSuppressesSymbolicCodes) {
  // RS1xx findings obey the same suppression machinery as RS0xx.
  const std::string rot =
      read_source_file(fixture("rs110_spurious.ring"));
  const LintResult loud =
      lint_source(parse_protocol_source(rot, "rot.ring"));
  EXPECT_TRUE(has_code(loud, "RS110", Severity::kNote));
  const LintResult quiet = lint_source(
      parse_protocol_source("# lint: allow(RS110)\n" + rot, "rot.ring"));
  EXPECT_FALSE(has_code(quiet, "RS110", Severity::kNote));
  EXPECT_GE(quiet.suppressed, 1u);

  const std::string implies =
      read_source_file(fixture("rs102_implies.ring"));
  const LintResult q2 = lint_source(parse_protocol_source(
      "# lint: allow(RS102)\n" + implies, "implies.ring"));
  EXPECT_FALSE(has_code(q2, "RS102", Severity::kNote));
}

TEST(Lint, CandidateErrorsDetectTArcCycleAndEmptyLc) {
  const Protocol cyclic = parse_protocol_file(fixture("rs002_cycle.ring"));
  const auto errs = lint_candidate_errors(cyclic);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_EQ(errs[0].code, "RS002");
  EXPECT_EQ(errs[0].severity, Severity::kError);

  const Protocol empty_lc = parse_protocol_file(fixture("rs020_empty.ring"));
  const auto errs2 = lint_candidate_errors(empty_lc);
  ASSERT_EQ(errs2.size(), 1u);
  EXPECT_EQ(errs2[0].code, "RS020");

  const Protocol ok = parse_protocol_file(std::string(RINGSTAB_RINGS) +
                                          "/sum_not_two_ss.ring");
  EXPECT_TRUE(lint_candidate_errors(ok).empty());
}

// ---------------------------------------------------------------------------
// The synthesizers' ill-formedness screen (the static lane's RS002 check).

SynthesisOptions fast_options(std::size_t threads) {
  SynthesisOptions o;
  o.num_threads = threads;
  o.require_closed_invariant = false;
  o.classify_rejected_trails = false;
  return o;
}

void expect_identical(const SynthesisResult& a, const SynthesisResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.candidates_examined, b.candidates_examined);
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    EXPECT_EQ(a.solutions[i].protocol.name(), b.solutions[i].protocol.name());
    EXPECT_EQ(a.solutions[i].added, b.solutions[i].added);
    EXPECT_EQ(a.solutions[i].via_npl, b.solutions[i].via_npl);
  }
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].status, b.reports[i].status);
    EXPECT_EQ(a.reports[i].added, b.reports[i].added);
  }
}

std::size_t count_ill_formed(const SynthesisResult& r) {
  std::size_t n = 0;
  for (const auto& rep : r.reports)
    if (rep.status == CandidateReport::Status::kRejectedIllFormed) ++n;
  return n;
}

TEST(LintPrefilter, ZooResultsBitIdenticalAcrossThreadCounts) {
  for (const char* name :
       {"agreement.ring", "sum_not_two.ring", "three_coloring.ring",
        "token_pair.ring", "forbidden_pairs.ring", "reset_to_zero.ring"}) {
    SCOPED_TRACE(name);
    const Protocol p =
        parse_protocol_file(std::string(RINGSTAB_RINGS) + "/" + name);
    expect_identical(synthesize_convergence(p, fast_options(1)),
                     synthesize_convergence(p, fast_options(4)));
  }
}

TEST(LintPrefilter, ResetToZeroRejectsIllFormedCandidates) {
  const Protocol p = parse_protocol_file(std::string(RINGSTAB_RINGS) +
                                         "/reset_to_zero.ring");
  const SynthesisResult res = synthesize_convergence(p, fast_options(1));
  EXPECT_TRUE(res.success);
  EXPECT_EQ(res.candidates_examined, 64u);
  EXPECT_EQ(count_ill_formed(res), 28u);
  for (const auto& rep : res.reports) {
    if (rep.status != CandidateReport::Status::kRejectedIllFormed) continue;
    ASSERT_FALSE(rep.ill_formed.empty());
    EXPECT_EQ(rep.ill_formed[0].code, "RS002");
  }
  // The summary surfaces the rejection tally.
  EXPECT_NE(res.summary(p).find("rejected (ill-formed by lint): 28"),
            std::string::npos);
}

TEST(LintPrefilter, RejectionCounterIsThreadInvariant) {
  const Protocol p = parse_protocol_file(std::string(RINGSTAB_RINGS) +
                                         "/reset_to_zero.ring");
  obs::g_enabled.store(true);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::Registry::global().reset_counters();
    (void)synthesize_convergence(p, fast_options(threads));
    EXPECT_EQ(obs::counter("lint.candidates_rejected").total(), 28u)
        << "threads=" << threads;
  }
  obs::g_enabled.store(false);
  obs::Registry::global().reset_counters();
}

TEST(LintPrefilter, DiagEmissionCounterFires) {
  obs::g_enabled.store(true);
  obs::Registry::global().reset_counters();
  (void)lint_ring_file(fixture("rs011_deadlock.ring"));
  EXPECT_GT(obs::counter("lint.diags_emitted").total(), 0u);
  obs::g_enabled.store(false);
  obs::Registry::global().reset_counters();
}

// The global synthesizer skips the fixed-K sweep for the 28 candidates the
// screen rejects; each of them would have failed that sweep at every K.
TEST(LintPrefilter, GlobalSynthesizerRejectsIllFormedBeforeSweep) {
  const Protocol p = parse_protocol_file(std::string(RINGSTAB_RINGS) +
                                         "/reset_to_zero.ring");
  GlobalSynthesisOptions options;
  options.min_ring = 2;
  options.max_ring = 4;
  EXPECT_EQ(synthesize_convergence_global(p, options).ill_formed_out, 28u);

  const StaticRejectionLane lane(p);
  std::size_t rejected = 0;
  for (const auto& resolve : enumerate_resolve_sets(p)) {
    for (const auto& added : enumerate_candidate_sets(p, resolve)) {
      if (!lane.refute_ill_formed_only(added)) continue;
      ++rejected;
      const Protocol pss = p.with_added("reset_ill", added);
      for (std::size_t k = options.min_ring; k <= options.max_ring; ++k)
        EXPECT_FALSE(strongly_stabilizing(RingInstance(pss, k)))
            << "candidate " << rejected << " K=" << k;
    }
  }
  EXPECT_EQ(rejected, 28u);
}

}  // namespace
}  // namespace ringstab
