// Adding convergence on ARRAYS (extension; see local/array.hpp).
//
// On unidirectional self-disabling arrays every computation terminates
// (local/array.hpp), so Problem 3.1 reduces to deadlock resolution: make
// every reachable deadlock legitimate. The ring methodology's feedback-set
// step becomes a PATH-CUT step — Resolve must intersect every "bad walk"
// (a chain of local deadlocks from a left-boundary state through some ¬LC
// state). The minimal such set is unique and one BFS finds it; then any
// self-disabling candidate transitions complete the synthesis with no
// livelock check needed at all.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"

namespace ringstab {

struct ArraySynthesisOptions {
  /// Portfolio execution (DESIGN.md §10): pool lanes building and verifying
  /// candidates. 0 and 1 run serially (the CLI resolves --jobs 0 to all
  /// hardware lanes). Results are bit-identical at any thread count.
  std::size_t num_threads = 1;
};

struct ArraySynthesisSolution {
  Protocol protocol;
  std::vector<LocalTransition> added;
  std::vector<LocalStateId> resolve;
};

struct ArraySynthesisResult {
  bool success = false;
  std::vector<ArraySynthesisSolution> solutions;  // at most 64
  /// One entry: the unique minimal Resolve set (empty when no bad walk
  /// exists).
  std::vector<std::vector<LocalStateId>> resolve_sets;
  std::size_t candidates_examined = 0;

  std::string summary(const Protocol& input) const;
};

/// Synthesize convergence for every array length. Requires a unidirectional
/// locality (left span 1, right span 0) and the array modeling convention
/// (domain's last value = ⊥); throws ModelError otherwise, or if the
/// closure spot-check fails.
ArraySynthesisResult synthesize_array_convergence(
    const Protocol& p, const ArraySynthesisOptions& options = {});

}  // namespace ringstab
