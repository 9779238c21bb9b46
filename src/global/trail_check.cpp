#include "global/trail_check.hpp"

#include <algorithm>

#include "global/checker.hpp"

namespace ringstab {

const char* to_string(TrailRealization r) {
  switch (r) {
    case TrailRealization::kRealized: return "realized";
    case TrailRealization::kOtherLivelock: return "other-livelock-at-K";
    case TrailRealization::kSpurious: return "spurious";
    case TrailRealization::kNotInstantiable: return "not-instantiable";
  }
  return "?";
}

TrailRealizationResult realize_trail(const Protocol& p,
                                     const ContiguousTrail& trail,
                                     std::size_t num_threads) {
  TrailRealizationResult res;
  const std::size_t k = static_cast<std::size_t>(trail.implied_ring_size());
  res.ring_size = k;
  res.start_state = trail.round_start_ring(p);
  if (!res.start_state) return res;  // kNotInstantiable

  const RingInstance inst(p, k);
  const GlobalChecker checker(inst, num_threads);
  const auto livelock_states = checker.livelock_states();
  if (livelock_states.empty()) {
    res.verdict = TrailRealization::kSpurious;
    return res;
  }
  const GlobalStateId s = inst.encode(*res.start_state);
  res.verdict = std::binary_search(livelock_states.begin(),
                                   livelock_states.end(), s)
                    ? TrailRealization::kRealized
                    : TrailRealization::kOtherLivelock;
  return res;
}

}  // namespace ringstab
