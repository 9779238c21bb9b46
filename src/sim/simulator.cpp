#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "core/fmt.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/prng.hpp"

namespace ringstab {

namespace {

bool interleaving(Scheduler s) {
  return s == Scheduler::kUniformRandom || s == Scheduler::kRoundRobin ||
         s == Scheduler::kLeftmostFirst;
}

}  // namespace

Simulator::Simulator(Protocol protocol, std::size_t ring_size,
                     std::uint64_t seed, Scheduler scheduler)
    : protocol_(std::move(protocol)),
      state_(ring_size, 0),
      rng_(seed),
      scheduler_(scheduler) {
  if (ring_size < 2) throw ModelError("ring size must be at least 2");
  if (!interleaving(scheduler))
    throw ModelError(
        "Simulator executes interleaving daemons only; the probabilistic "
        "schedulers run under estimate_convergence_rounds");
}

void Simulator::set_state(std::vector<Value> state) {
  if (state.size() != state_.size())
    throw ModelError("state size does not match ring size");
  for (Value v : state)
    if (v >= protocol_.domain().size())
      throw ModelError("state value outside the domain");
  state_ = std::move(state);
}

void Simulator::randomize() {
  std::uniform_int_distribution<int> dist(
      0, static_cast<int>(protocol_.domain().size()) - 1);
  for (auto& v : state_) v = static_cast<Value>(dist(rng_));
}

void Simulator::inject_faults(std::size_t count) {
  count = std::min(count, state_.size());
  std::vector<std::size_t> idx(state_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::shuffle(idx.begin(), idx.end(), rng_);
  std::uniform_int_distribution<int> dist(
      0, static_cast<int>(protocol_.domain().size()) - 1);
  for (std::size_t i = 0; i < count; ++i)
    state_[idx[i]] = static_cast<Value>(dist(rng_));
}

bool Simulator::in_invariant() const {
  for (std::size_t i = 0; i < state_.size(); ++i)
    if (!protocol_.is_legit(local_state_of(protocol_, state_, i)))
      return false;
  return true;
}

bool Simulator::deadlocked() const {
  for (std::size_t i = 0; i < state_.size(); ++i)
    if (protocol_.is_enabled(local_state_of(protocol_, state_, i)))
      return false;
  return true;
}

std::optional<ScheduledStep> Simulator::step() {
  // Pick the firing process per the scheduler policy, then one of its
  // enabled transitions uniformly.
  auto fire_at = [&](std::size_t i) -> std::optional<ScheduledStep> {
    const LocalStateId ls = local_state_of(protocol_, state_, i);
    const auto from = protocol_.transitions_from(ls);
    if (from.empty()) return std::nullopt;
    std::uniform_int_distribution<std::size_t> pick(0, from.size() - 1);
    const ScheduledStep chosen{i, from[pick(rng_)]};
    const bool ok = apply_step(protocol_, state_, chosen);
    RINGSTAB_ASSERT(ok, "enabled step failed to apply");
    return chosen;
  };

  switch (scheduler_) {
    case Scheduler::kUniformRandom: {
      std::vector<ScheduledStep> enabled;
      for (std::size_t i = 0; i < state_.size(); ++i) {
        const LocalStateId ls = local_state_of(protocol_, state_, i);
        for (const auto& t : protocol_.transitions_from(ls))
          enabled.push_back({i, t});
      }
      if (enabled.empty()) return std::nullopt;
      std::uniform_int_distribution<std::size_t> dist(0, enabled.size() - 1);
      const ScheduledStep chosen = enabled[dist(rng_)];
      const bool ok = apply_step(protocol_, state_, chosen);
      RINGSTAB_ASSERT(ok, "enabled step failed to apply");
      return chosen;
    }
    case Scheduler::kRoundRobin: {
      for (std::size_t scanned = 0; scanned < state_.size(); ++scanned) {
        const std::size_t i = (rr_cursor_ + scanned) % state_.size();
        if (auto step = fire_at(i)) {
          rr_cursor_ = (i + 1) % state_.size();
          return step;
        }
      }
      return std::nullopt;
    }
    case Scheduler::kLeftmostFirst: {
      for (std::size_t i = 0; i < state_.size(); ++i)
        if (auto step = fire_at(i)) return step;
      return std::nullopt;
    }
    default:
      return std::nullopt;  // unreachable: the constructor rejects these
  }
}

Simulator::RunResult Simulator::run_to_convergence(std::size_t max_steps) {
  RunResult res;
  for (res.steps = 0; res.steps < max_steps; ++res.steps) {
    if (in_invariant()) {
      res.converged = true;
      return res;
    }
    if (!step()) {
      res.deadlocked_outside_i = true;
      return res;
    }
  }
  res.converged = in_invariant();
  return res;
}

// ── Monte Carlo expected-convergence-time estimation ──

namespace {

/// Flat per-local-state dispatch tables, so the trajectory kernels never
/// touch the Protocol during the hot loop.
struct SlotTable {
  std::vector<std::uint8_t> legit;      // [ls] LC_r holds
  std::vector<std::uint32_t> begin;     // [ls] first entry in to_value
  std::vector<std::uint32_t> count;     // [ls] number of enabled transitions
  std::vector<Value> to_value;          // [entry] new self value
  std::vector<double> weight;           // [entry] kWeightedRandom weight
};

SlotTable build_table(const Protocol& p, const std::vector<double>& weights) {
  if (!weights.empty()) {
    if (weights.size() != p.delta().size())
      throw ModelError(cat("weights size ", weights.size(),
                           " does not match the protocol's ",
                           p.delta().size(), " transitions"));
    for (double w : weights)
      if (!(w >= 0.0))
        throw ModelError("transition weights must be non-negative");
  }
  SlotTable tab;
  const std::size_t n = p.num_states();
  tab.legit.resize(n);
  tab.begin.resize(n);
  tab.count.resize(n);
  for (std::size_t ls = 0; ls < n; ++ls) {
    tab.legit[ls] = p.is_legit(ls) ? 1 : 0;
    const auto from = p.transitions_from(ls);
    tab.begin[ls] = static_cast<std::uint32_t>(tab.to_value.size());
    tab.count[ls] = static_cast<std::uint32_t>(from.size());
    for (const auto& t : from) {
      tab.to_value.push_back(p.space().self(t.to));
      tab.weight.push_back(weights.empty() ? 1.0 : weights[p.index_of(t)]);
    }
  }
  return tab;
}

struct TrajectoryResult {
  std::uint64_t rounds = 0;
  bool converged = false;
};

/// Draw the trajectory's initial state. Uses the stream's first draws, so
/// the whole trajectory — start included — is a function of (seed, index).
void init_state(StartKind start, std::size_t domain, CounterRng& rng,
                std::vector<Value>& cur) {
  const std::size_t k = cur.size();
  switch (start) {
    case StartKind::kRandom:
      for (auto& v : cur) v = static_cast<Value>(rng.below(domain));
      break;
    case StartKind::kAllZero:
      std::fill(cur.begin(), cur.end(), Value{0});
      break;
    case StartKind::kThreeTokens:
      // LC_r violations (Herman tokens) exactly at 0, ⌊K/3⌋, ⌊2K/3⌋: the
      // value flips at every position that is NOT a violation site. Odd K
      // makes the flip count K−3 even, so the pattern closes around the
      // ring.
      cur[0] = 0;
      for (std::size_t i = 1; i < k; ++i) {
        const bool token = i == k / 3 || i == 2 * k / 3;
        cur[i] = token ? cur[i - 1] : static_cast<Value>(1 - cur[i - 1]);
      }
      break;
  }
}

bool target_met(ConvergenceTarget target, std::size_t illegit) {
  return target == ConvergenceTarget::kInvariant ? illegit == 0
                                                 : illegit == 1;
}

/// One synchronous-coin trajectory. `ls_of(cur, i)` computes process i's
/// local state; the caller picks a fast closed form when the locality
/// allows it. Every round does one local-state scan (cached in `ls_buf`)
/// and one simultaneous write pass reading only pre-round values.
template <typename LsOf>
TrajectoryResult run_synchronous(const SlotTable& tab, std::size_t round_cap,
                                 ConvergenceTarget target, double coin,
                                 std::vector<Value>& cur,
                                 std::vector<Value>& next,
                                 std::vector<LocalStateId>& ls_buf,
                                 CounterRng& rng, const LsOf& ls_of) {
  const std::size_t k = cur.size();
  for (std::uint64_t r = 0;; ++r) {
    std::size_t illegit = 0;
    bool any_enabled = false;
    for (std::size_t i = 0; i < k; ++i) {
      const LocalStateId ls = ls_of(cur, i);
      ls_buf[i] = ls;
      illegit += tab.legit[ls] ? 0 : 1;
      any_enabled |= tab.count[ls] != 0;
    }
    if (target_met(target, illegit)) return {r, true};
    if (r >= round_cap || !any_enabled) return {r, false};
    for (std::size_t i = 0; i < k; ++i) {
      const LocalStateId ls = ls_buf[i];
      const std::uint32_t n = tab.count[ls];
      Value v = cur[i];
      // Enabled processes inside LC fire unconditionally; enabled
      // processes outside LC fire with probability `coin` (for Herman:
      // copy always, re-randomize the token bit).
      if (n != 0 && (tab.legit[ls] || rng.bernoulli(coin)))
        v = n == 1 ? tab.to_value[tab.begin[ls]]
                   : tab.to_value[tab.begin[ls] + rng.below(n)];
      next[i] = v;
    }
    cur.swap(next);
  }
}

/// One weighted-interleaving trajectory: each step draws a single enabled
/// (process, transition) pair with probability proportional to its weight.
TrajectoryResult run_weighted(const SlotTable& tab, std::size_t step_cap,
                              ConvergenceTarget target, const Protocol& p,
                              std::vector<Value>& cur, CounterRng& rng) {
  const std::size_t k = cur.size();
  std::vector<std::pair<std::size_t, std::uint32_t>> enabled;  // (i, entry)
  for (std::uint64_t r = 0;; ++r) {
    std::size_t illegit = 0;
    double total = 0.0;
    enabled.clear();
    for (std::size_t i = 0; i < k; ++i) {
      const LocalStateId ls = local_state_of(p, cur, i);
      illegit += tab.legit[ls] ? 0 : 1;
      for (std::uint32_t e = 0; e < tab.count[ls]; ++e) {
        const std::uint32_t entry = tab.begin[ls] + e;
        if (tab.weight[entry] <= 0.0) continue;
        enabled.emplace_back(i, entry);
        total += tab.weight[entry];
      }
    }
    if (target_met(target, illegit)) return {r, true};
    if (r >= step_cap || enabled.empty()) return {r, false};
    double x = rng.uniform() * total;
    std::size_t pick = enabled.size() - 1;  // guard against rounding
    for (std::size_t j = 0; j < enabled.size(); ++j) {
      x -= tab.weight[enabled[j].second];
      if (x < 0.0) {
        pick = j;
        break;
      }
    }
    cur[enabled[pick].first] = tab.to_value[enabled[pick].second];
  }
}

}  // namespace

EstimateOptions uniform_daemon_batch(std::size_t trials, std::uint64_t seed) {
  EstimateOptions eo;
  eo.scheduler = Scheduler::kWeightedRandom;
  eo.seed = seed;
  eo.trajectories = trials;
  eo.round_cap = 1'000'000;
  return eo;
}

ConvergenceEstimate estimate_convergence_rounds(const Protocol& p,
                                                std::size_t ring_size,
                                                const EstimateOptions& opts) {
  if (ring_size < 2) throw ModelError("ring size must be at least 2");
  if (opts.trajectories == 0)
    throw ModelError("trajectories must be at least 1");
  if (!(opts.coin >= 0.0 && opts.coin <= 1.0))
    throw ModelError(cat("coin probability ", opts.coin,
                         " outside [0, 1]"));
  if (interleaving(opts.scheduler))
    throw ModelError(
        "estimate_convergence_rounds runs the probabilistic schedulers "
        "(kSynchronousCoin, kWeightedRandom); step a Simulator for the "
        "interleaving daemons");
  if (opts.start == StartKind::kThreeTokens) {
    if (ring_size % 2 == 0)
      throw ModelError("the three-token start requires an odd ring size");
    if (p.domain().size() < 2)
      throw ModelError("the three-token start requires a domain of size ≥ 2");
  }

  const obs::Span span("sim.estimate");
  const SlotTable tab = build_table(p, opts.weights);
  const std::size_t d = p.domain().size();
  const Locality loc = p.locality();
  const bool fast10 = loc.left == 1 && loc.right == 0;

  std::vector<TrajectoryResult> results(opts.trajectories);
  parallel_for(opts.trajectories, opts.num_threads, 16,
               [&](const ChunkRange& chunk, std::size_t) {
    std::vector<Value> cur(ring_size), next(ring_size);
    std::vector<LocalStateId> ls_buf(ring_size);
    for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
      CounterRng rng(trajectory_stream_key(opts.seed, t));
      init_state(opts.start, d, rng, cur);
      if (opts.scheduler == Scheduler::kWeightedRandom) {
        results[t] =
            run_weighted(tab, opts.round_cap, opts.target, p, cur, rng);
      } else if (fast10) {
        // Locality {1, 0}: ls = x[i−1] + |D|·x[i] (LocalStateSpace's
        // mixed-radix order), with the left neighbor read directly.
        const auto ls_of = [d, ring_size](const std::vector<Value>& s,
                                          std::size_t i) {
          return static_cast<LocalStateId>(
              s[i == 0 ? ring_size - 1 : i - 1] + d * s[i]);
        };
        results[t] = run_synchronous(tab, opts.round_cap, opts.target,
                                     opts.coin, cur, next, ls_buf, rng, ls_of);
      } else {
        const auto ls_of = [&p](const std::vector<Value>& s, std::size_t i) {
          return local_state_of(p, s, i);
        };
        results[t] = run_synchronous(tab, opts.round_cap, opts.target,
                                     opts.coin, cur, next, ls_buf, rng, ls_of);
      }
    }
  });

  // Serial fold in trajectory order: with per-trajectory streams above,
  // this makes the whole estimate bit-identical at every thread count.
  ConvergenceEstimate est;
  est.trajectories = opts.trajectories;
  obs::Histogram& rounds_hist = obs::histogram("sim.trajectory_rounds");
  std::vector<std::uint64_t> conv;
  conv.reserve(opts.trajectories);
  for (const TrajectoryResult& r : results) {
    est.total_rounds += r.rounds;
    est.total_process_steps += r.rounds * ring_size;
    rounds_hist.record(r.rounds);
    if (r.converged)
      conv.push_back(r.rounds);
    else
      ++est.censored;
  }
  est.converged = conv.size();
  obs::counter("sim.trajectories").add(est.trajectories);
  obs::counter("sim.rounds").add(est.total_rounds);
  obs::counter("sim.process_steps").add(est.total_process_steps);
  obs::counter("sim.converged").add(est.converged);
  if (!conv.empty()) {
    double sum = 0.0;
    for (std::uint64_t r : conv) sum += static_cast<double>(r);
    est.mean_rounds = sum / static_cast<double>(conv.size());
    if (conv.size() >= 2) {
      double sq = 0.0;
      for (std::uint64_t r : conv) {
        const double dlt = static_cast<double>(r) - est.mean_rounds;
        sq += dlt * dlt;
      }
      est.stddev_rounds = std::sqrt(sq / static_cast<double>(conv.size() - 1));
      est.ci95_half_width =
          1.96 * est.stddev_rounds / std::sqrt(static_cast<double>(conv.size()));
    }
    std::vector<std::uint64_t> sorted = conv;
    std::sort(sorted.begin(), sorted.end());
    est.min_rounds = sorted.front();
    est.max_rounds = sorted.back();
    est.p50_rounds = sorted[sorted.size() / 2];
    est.p95_rounds =
        sorted[std::min(sorted.size() - 1, sorted.size() * 95 / 100)];
  }
  return est;
}

}  // namespace ringstab
