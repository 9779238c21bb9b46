// A tour of one problem — 2-coloring — across three topologies, showing why
// topology is the whole story for this invariant:
//
//   RING:  impossible (the paper's Figure 11; the trail betrays the parity
//          obstruction, and every candidate livelocks on odd rings)
//   ARRAY: trivial (the paper's future-work topology; synthesized here)
//   TREE:  inherited from arrays (a bad tree would contain a bad path)
#include <iostream>

#include "core/printer.hpp"
#include "global/checker.hpp"
#include "local/array.hpp"
#include "protocols/arrays.hpp"
#include "protocols/coloring.hpp"
#include "synthesis/array_synthesizer.hpp"
#include "synthesis/local_synthesizer.hpp"

int main() {
  using namespace ringstab;

  std::cout << "===== RING: 2-coloring is impossible =====\n";
  const Protocol ring_input = protocols::coloring_empty(2);
  const auto ring = synthesize_convergence(ring_input);
  std::cout << ring.summary(ring_input);
  for (const auto& r : ring.reports)
    if (r.trail)
      std::cout << "  rejecting trail: " << r.trail->to_string(ring_input)
                << "\n";
  const Protocol cand = protocols::coloring_with_choices(2, {1, 0});
  std::cout << "  the lone candidate on odd rings:";
  for (std::size_t k : {3u, 5u, 7u})
    std::cout << " K=" << k << ":"
              << (GlobalChecker(RingInstance(cand, k)).find_livelock()
                      ? "livelock"
                      : "ok");
  std::cout << "\n\n";

  std::cout << "===== ARRAY: the parity obstruction disappears =====\n";
  const Protocol array_input =
      protocols::array_two_coloring().with_delta("array_2coloring_input", {});
  const auto arr = synthesize_array_convergence(array_input);
  std::cout << arr.summary(array_input);
  const Protocol& solution = arr.solutions.front().protocol;
  std::cout << describe(solution);
  std::cout << "  exhaustive confirmation:";
  for (std::size_t n = 2; n <= 9; ++n) {
    const auto check =
        GlobalChecker(RingInstance::array(solution, n)).check_all();
    std::cout << " n=" << n << ":"
              << (check.num_deadlocks_outside_i == 0 && !check.has_livelock
                      ? "ok"
                      : "FAIL");
  }
  std::cout << "\n\n";

  std::cout << "===== TREE: inherited from the array certificate =====\n";
  std::cout << "  random 8-node in-trees running the array solution:\n";
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto shape = random_tree_shape(8, seed);
    std::cout << "    shape [parents:";
    for (auto p : shape) std::cout << " " << p;
    const RingInstance tree = RingInstance::tree(solution, shape);
    const auto check = GlobalChecker(tree).check_all();
    std::cout << "]: deadlocks=" << check.num_deadlocks_outside_i
              << " livelock=" << (check.has_livelock ? "yes" : "no")
              << " terminates=" << (terminates(tree) ? "yes" : "no") << "\n";
  }
  std::cout << "\nsame invariant, three topologies: the ring's cycle is the "
               "only obstruction.\n";
  return 0;
}
