// Parallel candidate-portfolio execution with verdict memoization — the
// shared engine behind all three synthesizers (DESIGN.md §10,
// docs/synthesis.md §5).
//
// Execution model. A synthesis run examines a list of candidate revisions;
// each candidate's verdict (NPL fast path, trail search, fixed-K model
// checking) is a pure function of (input protocol, candidate), so verdicts
// may be computed on any lane in any order. run_portfolio() runs one
// region of the process-wide thread pool per call. Its lanes claim
// candidates one at a time, in ascending order, from a shared cursor and
// park each verdict in a ring of kPortfolioSlotsPerLane slots per lane.
// The caller's lane merges the verdicts in ascending candidate order as
// they land, and evaluates candidates of its own while the next one to
// merge is still on another lane — reproducing the serial examination
// order, and therefore the accepted-solution order, bit for bit at any
// thread count. A lane claims a candidate only once the candidate a ring
// before it has been merged, so the ring stays small and reused: a slot
// per candidate (~320 B each for the local synthesizer, thousands per
// batch) would be a fresh mapping from the allocator, with its page
// faults, on every batch. Lanes wait only at the ring's bounds: a worker
// whose next slot is not yet merged sleeps until the merge frees it, and
// the caller, when the verdict it must merge next is still being computed
// and it can claim nothing, yields until it lands. One region per call,
// not one per ring's worth of candidates, keeps worker wake-ups and joins
// off the merge's path: with a region per 256 candidates, a 2-lane
// synthesis of the matching skeleton paid ~17 of them per run, and its run
// time spread with the host's load.
//
// Cooperative early exit. Accepting synthesizers stop at a solution quota.
// Lanes bump an atomic claim counter per provisional acceptance; once the
// claims reach the quota, remaining lanes skip their candidates outright
// (no wasted trail searches — the ascending merge would discard those
// verdicts anyway). Because the shared cursor hands candidates out in
// roughly ascending order, a skipped candidate is almost never one the
// merge still needs; when it is (quota claimed by higher-index candidates
// first), the merge recomputes it inline, keeping results exact.
//
// Memoization. Candidates overlap: revisions sharing a write-projection
// signature share the NPL verdict, revisions self-disabling to the same
// transition set share the entire trail-search outcome, and repeated
// synthesis calls over a protocol corpus repeat whole fixed-K verdicts.
// VerdictMemo is a lock-sharded exact-key table for exactly these three
// kinds ('N', 'T', 'G'); since every cached verdict is a pure function of
// its key, memo hits cannot change results — only skip recomputation. A
// lookup of a key another lane is still computing blocks on its shard's
// condition variable until that verdict lands, so how the lanes interleave
// never changes how many verdicts are computed.
// Verdicts no two candidates share (trail classification, the array
// synthesizer's defensive re-check) are recomputed, not cached.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "local/trail.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {

/// One cached verdict. Which fields are meaningful depends on the key kind
/// (see the key builders below); unused fields stay defaulted.
struct CachedVerdict {
  bool flag = false;        // NPL: has a pseudo-livelock; global: ok
  std::uint8_t status = 0;  // trail: CandidateReport::Status as int;
                            // global: 0 iff prefiltered by Theorem 4.2
  std::uint64_t amount = 0;  // global: states explored by the K sweep
  std::optional<ContiguousTrail> trail;  // trail: rejection witness
};

/// Lock-sharded memo table mapping explicit byte-string keys to verdicts.
/// Keys carry the *complete* input of the cached computation (a one-byte
/// kind tag plus every protocol/query field the verdict depends on), and
/// lookups compare full keys — a hit can never be a hash collision. Safe to
/// share across threads, synthesis calls, and distinct input protocols;
/// counters `synth.memo_hits` / `synth.memo_misses` record traffic (these
/// count *work*, not results, so they are schedule-dependent — see
/// docs/synthesis.md §6).
class VerdictMemo {
 public:
  VerdictMemo()
      : hits_(obs::counter("synth.memo_hits", /*approx=*/true)),
        misses_(obs::counter("synth.memo_misses", /*approx=*/true)),
        lookup_ns_(obs::histogram("synth.memo_lookup_ns")) {}

  /// The verdict for `key`: the cached one, or else `compute()`'s, cached
  /// for later lookups. A lookup of a key that another thread is computing
  /// waits for that verdict instead of computing it again, so each verdict
  /// is computed once however the lanes interleave. If `compute()` throws,
  /// nothing is cached and a waiting lookup computes the verdict itself.
  template <typename Compute>
  CachedVerdict get_or_compute(const std::string& key,
                               const Compute& compute) const {
    const obs::Ticks t0 = obs::enabled() ? obs::now() : 0;
    Shard& s = shard(key);
    std::unique_lock lock(s.mu);
    // Another thread may be computing this verdict: wait until it lands (or
    // its computation throws and leaves the key to us).
    s.settled.wait(lock, [&] {
      return std::find(s.computing.begin(), s.computing.end(), key) ==
             s.computing.end();
    });
    if (const auto it = s.map.find(key); it != s.map.end()) {
      hits_.add(1);
      if (obs::enabled()) lookup_ns_.record(obs::now() - t0);
      return it->second;
    }
    misses_.add(1);
    if (obs::enabled()) lookup_ns_.record(obs::now() - t0);
    s.computing.push_back(key);
    lock.unlock();
    const auto done = [&] {
      lock.lock();
      s.computing.erase(
          std::find(s.computing.begin(), s.computing.end(), key));
      s.settled.notify_all();
    };
    CachedVerdict v;
    try {
      v = compute();
    } catch (...) {
      done();
      throw;
    }
    done();
    s.map.emplace(key, v);
    return v;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard lock(s.mu);
      n += s.map.size();
    }
    return n;
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, CachedVerdict> map;
    std::vector<std::string> computing;  // keys a thread is computing now
    std::condition_variable settled;     // a computing key left `computing`
  };
  Shard& shard(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) % kShards];
  }

  obs::Counter& hits_;    // registry references live for the process
  obs::Counter& misses_;  // lifetime; cached to keep get() mutex-light
  obs::Histogram& lookup_ns_;  // memo lookup latency (hit + miss)
  mutable Shard shards_[kShards];
};

/// Key-building helpers: fixed-width little-endian appends, so keys are
/// unambiguous byte strings.
inline void memo_append_u64(std::string& key, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) key.push_back(static_cast<char>(v >> (8 * i)));
}
inline void memo_append_u32(std::string& key, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) key.push_back(static_cast<char>(v >> (8 * i)));
}
inline void memo_append_bits(std::string& key, const std::vector<bool>& bits) {
  memo_append_u64(key, bits.size());
  char acc = 0;
  int n = 0;
  for (bool b : bits) {
    acc = static_cast<char>(acc | (b ? 1 : 0) << n);
    if (++n == 8) {
      key.push_back(acc);
      acc = 0;
      n = 0;
    }
  }
  if (n != 0) key.push_back(acc);
}

/// NPL fast-path key (kind 'N'). has_pseudo_livelock() asks only whether
/// the projected value graph of δ_r has a directed cycle, which depends on
/// nothing but the domain size and the *set* of projected write pairs
/// (self(from) → self(to)) — so candidates whose additions project onto the
/// same value arcs share this key, the sharing the issue's "write-projection
/// signature" names.
std::string memo_key_npl(const Protocol& p);

/// Full-protocol key (kind tag + dims + legit mask + δ_r), the conservative
/// identity used when a verdict depends on the protocol's entire structure.
/// Trail-search entries ('T') build it from the self-disabled image of the
/// candidate — distinct additions that collapse to one self-disabled LTG
/// share the trail verdict; fixed-K sweep entries ('G') build it from the
/// revision itself.
std::string memo_key_protocol(char kind, const Protocol& p);

/// Append every TrailQuery field to `key` (trail verdicts depend on the
/// query's budget and filters as much as on the protocol).
void memo_append_query(std::string& key, const TrailQuery& query);

/// Merge-loop control for run_portfolio.
enum class PortfolioStep { kContinue, kStop };

/// Verdict slots per lane in run_portfolio's ring. At 2 lanes the local
/// synthesizer's ring is ~80 KB, below glibc's 128 KiB mmap threshold, so
/// it comes from the heap rather than a fresh mapping per call.
inline constexpr std::size_t kPortfolioSlotsPerLane = 128;

/// Evaluate candidates [0, n) on `num_threads` lanes and merge the verdicts
/// in ascending candidate order on the calling thread, which merges while
/// the other lanes evaluate. No candidate is claimed more than
/// kPortfolioSlotsPerLane slots per lane ahead of the merge.
///
///  * `evaluate(i) -> Verdict` must be a pure function of i (it runs on an
///    arbitrary lane, possibly twice for a skipped-but-needed candidate).
///  * `is_accepted(verdict)` drives the cooperative early exit: once
///    `accept_quota` evaluations were accepted, pending candidates are
///    skipped (quota 0 disables skipping).
///  * `merge(i, verdict)` runs on the caller, strictly ascending, until it
///    returns kStop; candidates after the stop are never merged, exactly
///    like a serial loop that breaks.
template <typename Verdict, typename EvalFn, typename AcceptFn,
          typename MergeFn>
void run_portfolio(std::size_t n, std::size_t num_threads,
                   std::size_t accept_quota, const EvalFn& evaluate,
                   const AcceptFn& is_accepted, const MergeFn& merge) {
  if (n == 0) return;
  const std::size_t lanes = std::max<std::size_t>(num_threads, 1);
  const std::size_t ring = std::min(n, kPortfolioSlotsPerLane * lanes);
  // Candidate i parks its verdict in slot i % ring from its evaluation to
  // its merge; a slot that is done but holds no verdict was skipped.
  struct Slot {
    std::optional<Verdict> verdict;
    std::atomic<bool> done{false};
  };
  std::vector<Slot> slots(ring);
  std::atomic<std::size_t> next{0};    // the next candidate to claim
  std::atomic<std::size_t> merged{0};  // candidates merged so far
  std::atomic<bool> stop{false};       // the merge has ended, or a lane threw
  std::atomic<std::size_t> claims{0};
  // A worker that finds the ring full sleeps on `room`. The merge wakes it
  // once per half ring of merged candidates, not per candidate: a worker
  // woken for each freed slot would, whenever the caller's lane runs slow,
  // sleep and wake once per candidate. The merge takes the mutex only while
  // some worker is asleep (the seq_cst order of `merged` and `sleepers`
  // keeps that from losing a wake-up).
  const std::size_t wake_every = std::max<std::size_t>(ring / 2, 1);
  std::mutex room_mu;
  std::condition_variable room;
  std::atomic<std::size_t> sleepers{0};
  const auto wake_sleepers = [&] {
    if (sleepers.load() == 0) return;
    const std::lock_guard lock(room_mu);
    room.notify_all();
  };
  // How many lanes had already seen the quota satisfied is a race, hence
  // approx; verdict latency is timing-shaped (p99 = the hard candidates).
  obs::Counter& skipped =
      obs::counter("synth.candidates_skipped_quota", /*approx=*/true);
  obs::Histogram& verdict_ns = obs::histogram("synth.candidate_verdict_ns");
  const auto timed_evaluate = [&](std::size_t i) {
    if (!obs::enabled()) return evaluate(i);
    const obs::Ticks t0 = obs::now();
    auto v = evaluate(i);
    verdict_ns.record(obs::now() - t0);
    return v;
  };
  // Traced runs show each evaluation as a slice on the lane that ran it,
  // labelled with the caller's innermost phase (read here, on the caller).
  const char* region = obs::enabled() ? obs::current_span_name() : nullptr;
  if (region == nullptr) region = "run_portfolio";
  // The next candidate, once the candidate a ring before it is merged and
  // its slot free; n when every candidate is claimed, n + 1 while the ring
  // is full.
  const auto claim = [&] {
    std::size_t i = next.load(std::memory_order_relaxed);
    while (true) {
      if (i >= n) return n;
      if (i >= merged.load(std::memory_order_acquire) + ring) return n + 1;
      if (next.compare_exchange_weak(i, i + 1, std::memory_order_relaxed))
        return i;
    }
  };
  const auto evaluate_into = [&](std::size_t i) {
    Slot& slot = slots[i % ring];
    if (accept_quota != 0 &&
        claims.load(std::memory_order_relaxed) >= accept_quota) {
      skipped.add(1);
    } else {
      {
        const obs::Span span(region, /*chunk=*/true);
        slot.verdict.emplace(timed_evaluate(i));
      }
      if (is_accepted(*slot.verdict))
        claims.fetch_add(1, std::memory_order_relaxed);
    }
    slot.done.store(true, std::memory_order_release);
  };
  // The caller's lane merges each verdict as soon as it and every earlier
  // one have landed, and evaluates a candidate of its own while the next
  // one to merge is still on another lane.
  const auto merge_lane = [&] {
    for (std::size_t m = 0; m < n;) {
      Slot& slot = slots[m % ring];
      if (slot.done.load(std::memory_order_acquire)) {
        if (!slot.verdict)  // skipped, but the merge needs it
          slot.verdict.emplace(timed_evaluate(m));
        const PortfolioStep step = merge(m, std::move(*slot.verdict));
        slot.verdict.reset();
        slot.done.store(false, std::memory_order_relaxed);
        merged.store(++m);
        if (m % wake_every == 0) wake_sleepers();
        if (step == PortfolioStep::kStop) return;
      } else if (const std::size_t i = claim(); i < n) {
        evaluate_into(i);
      } else if (stop.load(std::memory_order_acquire)) {
        return;  // the lane evaluating candidate m threw
      } else {
        std::this_thread::yield();  // candidate m is on another lane
      }
    }
  };
  if (lanes == 1) {
    merge_lane();
    return;
  }
  // One pool region per call: workers join once and leave when every
  // candidate is claimed or the merge has ended, so the caller's lane never
  // waits on a worker's wake-up between groups of candidates.
  const auto end_merge = [&] {  // no worker sleeps on a merge that has ended
    stop.store(true);
    wake_sleepers();
  };
  ThreadPool::shared().run(lanes, [&](std::size_t lane) {
    const obs::LaneScope lane_scope(static_cast<std::uint32_t>(lane));
    if (lane == 0) {
      struct OnExit {
        decltype(end_merge)& run;
        ~OnExit() { run(); }
      } const on_exit{end_merge};
      merge_lane();
      return;
    }
    try {
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t i = claim();
        if (i == n) return;
        if (i < n) {
          evaluate_into(i);
          continue;
        }
        // The ring is full: sleep until the merge has freed slots or ended.
        std::unique_lock lock(room_mu);
        ++sleepers;
        room.wait(lock, [&] {
          const std::size_t c = next.load();
          return stop.load() || c >= n || c < merged.load() + ring;
        });
        --sleepers;
      }
    } catch (...) {
      stop.store(true);
      throw;
    }
  });
}

}  // namespace ringstab
