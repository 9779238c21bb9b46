// One-call markdown reporting: everything ringstab knows about a protocol.
#pragma once

#include <string>

#include "core/protocol.hpp"

namespace ringstab {

struct ReportOptions {
  /// Spot-check sizes for the exhaustive cross-validation section (skipped
  /// for instances over the state budget).
  std::size_t min_ring = 2;
  std::size_t max_ring = 7;
  GlobalStateId max_states = GlobalStateId{1} << 22;

  /// Random-scheduler simulation section (0 trials = skip).
  std::size_t sim_trials = 200;
  std::size_t sim_ring = 16;
  std::uint64_t sim_seed = 1;

  /// Treat the protocol under the array convention instead of a ring.
  bool array_topology = false;

  /// Worker threads for the exhaustive and simulation sections (0 and 1
  /// run serially; the CLI resolves --jobs 0 to all cores). Execution
  /// advice only: every section but the timing table reads the same at
  /// every count.
  std::size_t num_threads = 1;

  /// Append a per-section wall-clock table ("## Section timings").
  bool section_timings = true;
};

/// Render a complete markdown analysis report: the protocol as guarded
/// commands, the local closure/deadlock/livelock verdicts with witnesses,
/// exhaustive spot checks, and simulated recovery statistics.
std::string markdown_report(const Protocol& p, const ReportOptions& options = {});

}  // namespace ringstab
