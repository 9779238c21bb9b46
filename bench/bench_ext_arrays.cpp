// EXP-X2 — beyond the paper: the array (open chain) topology extension the
// paper names as future work. Deadlocked arrays are WALKS in the RCG
// (no wrap-around), unidirectional self-disabling arrays always terminate,
// and the ring impossibilities (2-coloring!) dissolve.
#include "bench_util.hpp"
#include "core/fmt.hpp"
#include "global/checker.hpp"
#include "local/array.hpp"
#include "protocols/arrays.hpp"
#include "synthesis/array_synthesizer.hpp"

namespace {

using namespace ringstab;

void report() {
  bench::header("EXP-X2", "array topology extension",
                "continuation-relation reasoning on open chains: Theorem "
                "4.2's cycle condition becomes an exact walk condition; the "
                "paper's Def. 4.1 remark sketches this generalization");

  {
    const Protocol p = protocols::array_two_coloring();
    const auto res = analyze_array_deadlocks(p, 32);
    bench::row("2-coloring on arrays",
               "IMPOSSIBLE on unidirectional rings (paper Fig. 11 / ref "
               "[25]); possible on arrays",
               cat(res.deadlock_free_all_n
                       ? "deadlock-free for every length"
                       : "deadlocks found (mismatch)",
                   ", terminates always: ",
                   array_terminates_always(p) ? "yes" : "no"));
    std::string rows;
    for (std::size_t n = 2; n <= 9; ++n) {
      const auto check =
          GlobalChecker(RingInstance::array(p, n)).check_all();
      rows += cat("n=", n, ":",
                  (check.num_deadlocks_outside_i == 0 && !check.has_livelock)
                      ? "ok"
                      : "FAIL",
                  " ");
    }
    bench::row("exhaustive confirmation", "stabilizes at every length", rows);
  }

  {
    const Protocol p = protocols::array_two_coloring_broken();
    const auto res = analyze_array_deadlocks(p, 16);
    bench::row("broken variant (corrects only (0,0) pairs)",
               "deadlocked arrays at every length ≥ 2",
               join(res.deadlocked_sizes(), " ",
                    [](std::size_t n) { return std::to_string(n); }));
    const auto witness = array_deadlock_witness(p, 6);
    bench::row("witness array n=6", "a stuck array outside I",
               witness ? join(*witness, ",",
                              [&](Value v) { return p.domain().name(v); })
                       : "none");
  }

  {
    const Protocol p = protocols::array_sort(3);
    const auto res = analyze_array_deadlocks(p, 32);
    bench::row("sorting sweep (LC: x[-1] ≤ x[0])",
               "deadlock-free for every length; all deadlocks sorted",
               res.deadlock_free_all_n ? "deadlock-free for every length"
                                       : "FAIL");
  }

  {
    // Array synthesis: from the EMPTY 2-coloring input, the path-cut
    // Resolve step plus any self-disabling candidates recover the flip
    // protocol — no livelock analysis needed at all.
    const Protocol input =
        protocols::array_two_coloring().with_delta("array_2c_input", {});
    const auto res = synthesize_array_convergence(input);
    bench::row("synthesis from the empty 2-coloring input",
               "succeeds (impossible on rings); livelock check unnecessary",
               cat(res.success ? "SUCCESS" : "FAILURE", ", ",
                   res.solutions.size(), " solution(s), Resolve={00,11}",
                   res.success && res.solutions[0].protocol.delta() ==
                                      protocols::array_two_coloring().delta()
                       ? ", equals the hand-written flip protocol"
                       : ""));
  }
  {
    // Trees (the paper's Def. 4.1 remark): for parent-read localities the
    // deadlock theory reduces to the array case; spot-check the reduction
    // on random in-tree shapes.
    const Protocol good = protocols::array_two_coloring();
    const Protocol bad = protocols::array_two_coloring_broken();
    std::size_t good_clean = 0, bad_dead = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto shape = random_tree_shape(7, seed);
      const auto deadlocks = [&](const Protocol& p) {
        return GlobalChecker(RingInstance::tree(p, shape))
            .check_all()
            .num_deadlocks_outside_i;
      };
      if (deadlocks(good) == 0) ++good_clean;
      if (deadlocks(bad) > 0) ++bad_dead;
    }
    bench::row("tree reduction (8 random 7-node in-trees)",
               "array certification transfers to every tree shape",
               cat("certified protocol clean on ", good_clean,
                   "/8 shapes; broken protocol deadlocked on ", bad_dead,
                   "/8"));
  }
  bench::footer();
}

void BM_ArrayLocalAnalysis(benchmark::State& state) {
  const Protocol p = protocols::array_two_coloring();
  for (auto _ : state) {
    const auto res = analyze_array_deadlocks(p, 64);
    benchmark::DoNotOptimize(res.deadlock_free_all_n);
  }
}
BENCHMARK(BM_ArrayLocalAnalysis);

// The full verdict plus the whole-graph termination pass.
void BM_ArrayExhaustiveCheck(benchmark::State& state) {
  const Protocol p = protocols::array_two_coloring();
  const RingInstance inst =
      RingInstance::array(p, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto res = GlobalChecker(inst).check_all();
    benchmark::DoNotOptimize(res.has_livelock);
    benchmark::DoNotOptimize(terminates(inst));
  }
  state.SetComplexityN(static_cast<std::int64_t>(inst.num_states()));
}
BENCHMARK(BM_ArrayExhaustiveCheck)->DenseRange(4, 14)->Complexity();

}  // namespace

RINGSTAB_BENCH_MAIN(report)
