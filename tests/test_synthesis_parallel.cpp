// The parallel portfolio synthesizer: bit-identical SynthesisResult between
// 1 and N lanes across the zoo (solutions, reports, counters), verdict-memo
// reuse observable through synth.memo_hits, one computation per verdict
// under concurrent lookups, quota early-exit determinism, the ring merge's
// order, slot reuse, waits and exceptions, and nested-parallel-region
// safety.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/agreement.hpp"
#include "protocols/arrays.hpp"
#include "protocols/matching.hpp"
#include "protocols/misc.hpp"
#include "protocols/sum_not_two.hpp"
#include "synthesis/array_synthesizer.hpp"
#include "synthesis/global_synthesizer.hpp"
#include "synthesis/local_synthesizer.hpp"
#include "synthesis/portfolio.hpp"

namespace ringstab {
namespace {

/// Flips the global instrumentation switch for one test body and restores
/// a clean registry (no sinks, zeroed counters) on the way out.
class ObsGuard {
 public:
  ObsGuard() {
    obs::Registry::global().clear_sinks();
    obs::Registry::global().reset_counters();
    obs::g_enabled.store(true);
  }
  ~ObsGuard() {
    obs::g_enabled.store(false);
    obs::Registry::global().clear_sinks();
    obs::Registry::global().reset_counters();
  }
};

void expect_same_trail(const std::optional<ContiguousTrail>& a,
                       const std::optional<ContiguousTrail>& b,
                       const std::string& ctx) {
  ASSERT_EQ(a.has_value(), b.has_value()) << ctx;
  if (!a) return;
  EXPECT_EQ(a->num_enabled, b->num_enabled) << ctx;
  EXPECT_EQ(a->propagation, b->propagation) << ctx;
  EXPECT_EQ(a->rounds, b->rounds) << ctx;
  ASSERT_EQ(a->steps.size(), b->steps.size()) << ctx;
  for (std::size_t i = 0; i < a->steps.size(); ++i) {
    EXPECT_EQ(a->steps[i].is_t, b->steps[i].is_t) << ctx << " step " << i;
    EXPECT_EQ(a->steps[i].from, b->steps[i].from) << ctx << " step " << i;
    EXPECT_EQ(a->steps[i].to, b->steps[i].to) << ctx << " step " << i;
    EXPECT_EQ(a->steps[i].t_arc_index, b->steps[i].t_arc_index)
        << ctx << " step " << i;
  }
}

void expect_same_result(const SynthesisResult& a, const SynthesisResult& b,
                        const std::string& ctx) {
  EXPECT_EQ(a.success, b.success) << ctx;
  EXPECT_EQ(a.candidates_examined, b.candidates_examined) << ctx;
  EXPECT_EQ(a.resolve_sets, b.resolve_sets) << ctx;
  ASSERT_EQ(a.solutions.size(), b.solutions.size()) << ctx;
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    EXPECT_EQ(a.solutions[i].protocol.name(), b.solutions[i].protocol.name())
        << ctx << " solution " << i;
    EXPECT_EQ(a.solutions[i].protocol.delta(), b.solutions[i].protocol.delta())
        << ctx << " solution " << i;
    EXPECT_EQ(a.solutions[i].added, b.solutions[i].added)
        << ctx << " solution " << i;
    EXPECT_EQ(a.solutions[i].resolve, b.solutions[i].resolve)
        << ctx << " solution " << i;
    EXPECT_EQ(a.solutions[i].via_npl, b.solutions[i].via_npl)
        << ctx << " solution " << i;
  }
  ASSERT_EQ(a.reports.size(), b.reports.size()) << ctx;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].status, b.reports[i].status)
        << ctx << " report " << i;
    EXPECT_EQ(a.reports[i].added, b.reports[i].added) << ctx << " report "
                                                      << i;
    EXPECT_EQ(a.reports[i].realization, b.reports[i].realization)
        << ctx << " report " << i;
    expect_same_trail(a.reports[i].trail, b.reports[i].trail,
                      ctx + " report " + std::to_string(i));
  }
}

/// Synthesis outcome including the thrown-ModelError path (a handful of zoo
/// protocols are invalid Problem 3.1 inputs).
std::optional<SynthesisResult> run_local(const Protocol& p,
                                         const SynthesisOptions& options,
                                         std::string& error) {
  try {
    return synthesize_convergence(p, options);
  } catch (const ModelError& e) {
    error = e.what();
    return std::nullopt;
  }
}

// The headline contract: the portfolio at N lanes reproduces the serial
// SynthesisResult bit for bit — solution names and order, reports, trails,
// and examined counts — for every bundled protocol.
TEST(PortfolioSynthesis, LocalBitIdenticalAcrossThreadCounts) {
  for (const auto& p : testing::protocol_zoo()) {
    SynthesisOptions serial_opts;
    serial_opts.num_threads = 1;
    std::string serial_error;
    const auto serial = run_local(p, serial_opts, serial_error);
    for (std::size_t threads : {2u, 4u}) {
      SynthesisOptions par_opts;
      par_opts.num_threads = threads;
      std::string par_error;
      const auto par = run_local(p, par_opts, par_error);
      const std::string ctx = p.name() + " threads=" +
                              std::to_string(threads);
      ASSERT_EQ(serial.has_value(), par.has_value()) << ctx;
      if (!serial) {
        EXPECT_EQ(serial_error, par_error) << ctx;
        continue;
      }
      expect_same_result(*serial, *par, ctx);
    }
  }
}

// Memoization is pure caching: verdicts with it off match verdicts with it
// on, at any thread count.
TEST(PortfolioSynthesis, MemoizationDoesNotChangeResults) {
  for (const auto& p : testing::protocol_zoo()) {
    SynthesisOptions plain;
    plain.memoize = false;
    std::string plain_error;
    const auto baseline = run_local(p, plain, plain_error);
    for (std::size_t threads : {1u, 4u}) {
      SynthesisOptions memoized;
      memoized.memoize = true;
      memoized.num_threads = threads;
      std::string memo_error;
      const auto res = run_local(p, memoized, memo_error);
      const std::string ctx = p.name() + " memoized threads=" +
                              std::to_string(threads);
      ASSERT_EQ(baseline.has_value(), res.has_value()) << ctx;
      if (!baseline) {
        EXPECT_EQ(plain_error, memo_error) << ctx;
        continue;
      }
      expect_same_result(*baseline, *res, ctx);
    }
  }
}

// Candidates sharing a signature reuse one verdict within a single call: the
// matching skeleton's candidate odometers revisit the same projected
// write-pair sets (the 'N' key) and self-disable to the same transition sets
// (the 'T' key), so a fresh per-call memo must record hits. Revisions
// themselves never repeat within a call.
TEST(PortfolioSynthesis, SharedSignaturesHitTheMemo) {
  const ObsGuard guard;
  const Protocol p = protocols::matching_skeleton();
  SynthesisOptions options;  // memoize defaults on
  const auto res = synthesize_convergence(p, options);
  EXPECT_GT(res.candidates_examined, 1u);
  EXPECT_GT(obs::counter("synth.memo_hits").total(), 0u)
      << "repeated write-projection signatures must skip re-verification";
  EXPECT_GT(obs::counter("synth.memo_misses").total(), 0u);
}

// A memo shared across calls turns the second identical call into pure
// lookups: same result, zero misses beyond the first call's.
TEST(PortfolioSynthesis, SharedMemoReusesVerdictsAcrossCalls) {
  const ObsGuard guard;
  const Protocol p = protocols::sum_not_two_empty();
  SynthesisOptions options;
  options.memo = std::make_shared<VerdictMemo>();
  const auto first = synthesize_convergence(p, options);
  const auto misses_after_first =
      obs::counter("synth.memo_misses").total();
  const auto second = synthesize_convergence(p, options);
  expect_same_result(first, second, "warm-memo rerun");
  EXPECT_EQ(obs::counter("synth.memo_misses").total(), misses_after_first)
      << "a warm memo must answer every repeated verdict";
  EXPECT_GT(obs::counter("synth.memo_hits").total(), 0u);
}

// Early exit via the atomic claim counter must not change what max_solutions
// returns: the first accepted candidate in serial order wins at any N.
TEST(PortfolioSynthesis, QuotaEarlyExitMatchesSerial) {
  const auto expect_matches_serial = [](const Protocol& p,
                                        std::size_t max_solutions,
                                        std::vector<std::size_t> lanes) {
    SynthesisOptions serial_opts;
    serial_opts.max_solutions = max_solutions;
    const auto serial = synthesize_convergence(p, serial_opts);
    for (std::size_t threads : lanes) {
      SynthesisOptions par_opts = serial_opts;
      par_opts.num_threads = threads;
      expect_same_result(serial, synthesize_convergence(p, par_opts),
                         p.name() + " max_solutions=" +
                             std::to_string(max_solutions) +
                             " threads=" + std::to_string(threads));
    }
  };
  for (const auto& p :
       {protocols::sum_not_two_empty(), protocols::agreement_empty(),
        protocols::monotone_empty(3)})
    expect_matches_serial(p, 1, {4});
  // Matching's first two batches (2048 candidates each, many turns of the
  // portfolio's slot ring) accept nothing; its first solution is the 4113th
  // candidate, early in the third batch, so these runs reach the quota only
  // after many turns of the ring and portfolio calls.
  for (std::size_t max_solutions : {1u, 64u})
    expect_matches_serial(protocols::matching_skeleton(), max_solutions,
                          {2, 4});
}

// run_portfolio parks verdicts in a ring of kPortfolioSlotsPerLane slots per
// lane and reuses each slot once its verdict is merged. Its merge must see
// what a serial loop sees: each index once, in order, with its own verdict,
// over three turns of the ring and a short fourth, and up to a stop in the
// third. With a quota, two provisional acceptances among the first
// candidates meet it, but the merge counts neither: the lanes then skip
// every candidate not yet started, and the merge computes each one it still
// needs into a reused slot.
TEST(PortfolioSynthesis, RingMergeMatchesASerialLoop) {
  const auto verdict_of = [](std::size_t i) { return 3 * i + 1; };
  const auto provisional = [&](std::size_t v) {
    return v == verdict_of(7) || v == verdict_of(9);
  };
  for (const std::size_t lanes : {1u, 2u, 3u, 4u}) {
    const std::size_t ring = kPortfolioSlotsPerLane * lanes;
    const std::size_t n = 3 * ring + 17;
    const std::size_t stop_after = 2 * ring + 5;
    for (const std::size_t quota : {0u, 2u}) {
      std::vector<std::pair<std::size_t, std::size_t>> merged;
      run_portfolio<std::size_t>(
          n, lanes, quota, verdict_of, provisional,
          [&](std::size_t i, std::size_t v) {
            if (quota != 0 && !merged.empty() &&
                merged.back().first == stop_after)
              return PortfolioStep::kStop;
            merged.emplace_back(i, v);
            return PortfolioStep::kContinue;
          });
      const std::string where = "lanes=" + std::to_string(lanes) +
                                " quota=" + std::to_string(quota);
      ASSERT_EQ(merged.size(), quota == 0 ? n : stop_after + 1) << where;
      for (std::size_t i = 0; i < merged.size(); ++i)
        ASSERT_EQ(merged[i], std::make_pair(i, verdict_of(i))) << where;
    }
  }
}

// A slow candidate at the start of each turn of the ring holds the merge
// back: whichever lane evaluates it, the others fill the ring and wait at
// its bound (a worker asleep, the caller yielding) until the merge catches
// up. A candidate whose evaluation throws ends the call with its exception,
// whichever lane meets it, after merging only candidates before it.
TEST(PortfolioSynthesis, RingWaitsAndThrowsEndTheCall) {
  const auto never = [](std::size_t) { return false; };
  for (const std::size_t lanes : {1u, 2u, 3u, 4u}) {
    const std::size_t ring = kPortfolioSlotsPerLane * lanes;
    const std::size_t n = 4 * ring;
    const std::string where = "lanes=" + std::to_string(lanes);
    std::vector<std::size_t> merged;
    const auto merge = [&](std::size_t i, std::size_t v) {
      EXPECT_EQ(v, i) << where;
      merged.push_back(i);
      return PortfolioStep::kContinue;
    };
    run_portfolio<std::size_t>(
        n, lanes, 0,
        [&](std::size_t i) {
          if (i % ring == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return i;
        },
        never, merge);
    ASSERT_EQ(merged.size(), n) << where;
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(merged[i], i) << where;

    const std::size_t bad = ring + 3;
    merged.clear();
    EXPECT_THROW(run_portfolio<std::size_t>(
                     n, lanes, 0,
                     [&](std::size_t i) {
                       if (i == bad) throw std::runtime_error("no verdict");
                       return i;
                     },
                     never, merge),
                 std::runtime_error)
        << where;
    ASSERT_LE(merged.size(), bad) << where;
    for (std::size_t i = 0; i < merged.size(); ++i)
      ASSERT_EQ(merged[i], i) << where;
  }
}

TEST(PortfolioSynthesis, GlobalBitIdenticalAcrossThreadCounts) {
  for (const auto& p :
       {protocols::agreement_empty(), protocols::sum_not_two_empty()}) {
    GlobalSynthesisOptions serial_opts;
    serial_opts.max_ring = 4;
    serial_opts.num_threads = 1;
    const auto serial = synthesize_convergence_global(p, serial_opts);
    for (std::size_t threads : {2u, 4u}) {
      GlobalSynthesisOptions par_opts;
      par_opts.max_ring = 4;
      par_opts.num_threads = threads;
      const auto par = synthesize_convergence_global(p, par_opts);
      const std::string ctx = p.name() + " threads=" +
                              std::to_string(threads);
      EXPECT_EQ(par.success, serial.success) << ctx;
      EXPECT_EQ(par.candidates_examined, serial.candidates_examined) << ctx;
      EXPECT_EQ(par.prefiltered_out, serial.prefiltered_out) << ctx;
      EXPECT_EQ(par.states_explored, serial.states_explored) << ctx;
      ASSERT_EQ(par.solutions.size(), serial.solutions.size()) << ctx;
      for (std::size_t i = 0; i < par.solutions.size(); ++i) {
        EXPECT_EQ(par.solutions[i].protocol.name(),
                  serial.solutions[i].protocol.name())
            << ctx << " solution " << i;
        EXPECT_EQ(par.solutions[i].added, serial.solutions[i].added)
            << ctx << " solution " << i;
        EXPECT_EQ(par.solutions[i].resolve, serial.solutions[i].resolve)
            << ctx << " solution " << i;
      }
    }
  }
}

TEST(PortfolioSynthesis, GlobalPrefilterAccountingMatchesSerial) {
  const Protocol p = protocols::sum_not_two_empty();
  GlobalSynthesisOptions serial_opts;
  serial_opts.max_ring = 4;
  serial_opts.prefilter_with_theorem42 = true;
  const auto serial = synthesize_convergence_global(p, serial_opts);
  GlobalSynthesisOptions par_opts = serial_opts;
  par_opts.num_threads = 4;
  const auto par = synthesize_convergence_global(p, par_opts);
  EXPECT_EQ(par.prefiltered_out, serial.prefiltered_out);
  EXPECT_EQ(par.candidates_examined, serial.candidates_examined);
  EXPECT_EQ(par.states_explored, serial.states_explored);
  EXPECT_EQ(par.solutions.size(), serial.solutions.size());
}

TEST(PortfolioSynthesis, ArrayBitIdenticalAcrossThreadCounts) {
  for (const auto& base :
       {protocols::array_agreement(3), protocols::array_sort(3),
        protocols::array_two_coloring()}) {
    const Protocol input = base.with_delta(base.name() + "_in", {});
    ArraySynthesisOptions serial_opts;
    serial_opts.num_threads = 1;
    const auto serial = synthesize_array_convergence(input, serial_opts);
    for (std::size_t threads : {2u, 4u}) {
      ArraySynthesisOptions par_opts;
      par_opts.num_threads = threads;
      const auto par = synthesize_array_convergence(input, par_opts);
      const std::string ctx = base.name() + " threads=" +
                              std::to_string(threads);
      EXPECT_EQ(par.success, serial.success) << ctx;
      EXPECT_EQ(par.candidates_examined, serial.candidates_examined) << ctx;
      EXPECT_EQ(par.resolve_sets, serial.resolve_sets) << ctx;
      ASSERT_EQ(par.solutions.size(), serial.solutions.size()) << ctx;
      for (std::size_t i = 0; i < par.solutions.size(); ++i) {
        EXPECT_EQ(par.solutions[i].protocol.name(),
                  serial.solutions[i].protocol.name())
            << ctx << " solution " << i;
        EXPECT_EQ(par.solutions[i].protocol.delta(),
                  serial.solutions[i].protocol.delta())
            << ctx << " solution " << i;
        EXPECT_EQ(par.solutions[i].added, serial.solutions[i].added)
            << ctx << " solution " << i;
      }
    }
  }
}

// The trail-classification path (realize_trail spawns a global checker)
// runs inside portfolio lanes; nested parallel regions must degrade to
// inline execution instead of deadlocking the pool (thread_pool.cpp's
// reentrancy guard). Exercised here with classification on and lanes > 1.
TEST(PortfolioSynthesis, ClassificationInsideLanesDoesNotDeadlock) {
  SynthesisOptions options;
  options.num_threads = 4;
  options.classify_rejected_trails = true;
  const auto res =
      synthesize_convergence(protocols::sum_not_two_empty(), options);
  EXPECT_TRUE(res.success);
  bool any_classified = false;
  for (const auto& r : res.reports)
    if (r.realization) any_classified = true;
  EXPECT_TRUE(any_classified);
}

// Lookups of a verdict another lane is still computing wait for it instead
// of computing it again: the computation runs once, and every lookup
// returns its verdict.
TEST(PortfolioSynthesis, ConcurrentLookupsComputeAVerdictOnce) {
  const VerdictMemo memo;
  std::atomic<int> computed{0};
  std::atomic<bool> release{false};
  const auto compute = [&] {
    computed.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    CachedVerdict v;
    v.amount = 42;
    return v;
  };
  std::vector<std::uint64_t> seen(4, 0);
  {
    std::vector<std::jthread> lanes;
    for (std::size_t i = 0; i < seen.size(); ++i)
      lanes.emplace_back(
          [&, i] { seen[i] = memo.get_or_compute("key", compute).amount; });
    // Hold the computation open while the other lanes reach the lookup.
    while (computed.load() == 0) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  }
  EXPECT_EQ(computed.load(), 1);
  for (const std::uint64_t amount : seen) EXPECT_EQ(amount, 42u);
  EXPECT_EQ(memo.size(), 1u);
}

// A computation that throws leaves nothing cached and nothing pending: the
// next lookup of the key computes the verdict.
TEST(PortfolioSynthesis, AThrowingComputationCachesNothing) {
  const VerdictMemo memo;
  EXPECT_THROW(memo.get_or_compute("key",
                                   []() -> CachedVerdict {
                                     throw std::runtime_error("no verdict");
                                   }),
               std::runtime_error);
  EXPECT_EQ(memo.size(), 0u);
  const auto ok = [] {
    CachedVerdict v;
    v.flag = true;
    return v;
  };
  EXPECT_TRUE(memo.get_or_compute("key", ok).flag);
  EXPECT_EQ(memo.size(), 1u);
}

}  // namespace
}  // namespace ringstab
