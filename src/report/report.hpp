// One-call markdown reporting: everything ringstab knows about a protocol.
#pragma once

#include <string>

#include "core/protocol.hpp"

namespace ringstab {

struct ReportOptions {
  /// Largest size for the exhaustive cross-validation section, which
  /// checks sizes 2..max_ring (skipping instances over 2^22 states).
  std::size_t max_ring = 7;

  /// Random starts for the simulated-recovery section on a ring of 16
  /// (0 = skip).
  std::size_t sim_trials = 200;

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
