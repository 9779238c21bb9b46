// Theorem 4.2: deadlock-freedom of parameterized rings, decided locally.
#pragma once

#include <optional>

#include "core/protocol.hpp"
#include "graph/cycles.hpp"
#include "graph/walks.hpp"

namespace ringstab {

/// Full deadlock analysis of a parameterized ring protocol. The verdict is
/// exact for every ring size K (Theorem 4.2); when deadlocks exist, the
/// analysis also reports *which* sizes are affected (the closed-walk length
/// spectrum of the bad cycle structure) and can construct witness rings.
struct DeadlockAnalysis {
  /// Theorem 4.2 verdict: no directed cycle through an illegitimate local
  /// deadlock in the deadlock-induced RCG ⟺ deadlock-free outside I(K) ∀K.
  bool deadlock_free_all_k = false;

  std::vector<LocalStateId> local_deadlocks;
  std::vector<LocalStateId> illegitimate_deadlocks;

  /// Simple cycles through illegitimate deadlocks, at most `max_cycles`.
  /// Empty when free; when not, short (even empty) only if the search hits
  /// simple_cycles_through's walk budget first.
  std::vector<Cycle> bad_cycles;

  /// feasible[K] ⇒ a globally deadlocked ring of size K outside I exists
  /// (exact for K ≥ window size; computed up to `spectrum_max_k`).
  WalkSpectrum size_spectrum;
  std::size_t spectrum_max_k = 0;

  /// Deadlocked ring sizes in [window, spectrum_max_k], ascending.
  std::vector<std::size_t> deadlocked_sizes() const;
};

DeadlockAnalysis analyze_deadlocks(const Protocol& p,
                                   std::size_t spectrum_max_k = 64,
                                   std::size_t max_cycles = 64);

/// Construct a globally deadlocked ring of size K outside I, as the value
/// assignment x_0..x_{K-1}, or nullopt if none exists (or K < window, where
/// the walk construction does not apply). The returned assignment is
/// verified: every process is locally deadlocked and at least one violates
/// LC_r.
std::optional<std::vector<Value>> deadlock_witness_ring(const Protocol& p,
                                                        std::size_t k);

}  // namespace ringstab
