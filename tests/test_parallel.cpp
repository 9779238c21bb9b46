// The parallel global-state engine: thread pool / parallel_for semantics,
// the packed bitset, the rolling division-free decoder and the successor
// kernel against the divmod decode and successors(), and — the contract
// that matters — bit-identical verdicts between the serial seed engine and
// the parallel sweeps on every bundled protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "global/checker.hpp"
#include "global/necklace.hpp"
#include "global/symmetry.hpp"
#include "helpers.hpp"
#include "parallel/bitset.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/arrays.hpp"

namespace ringstab {
namespace {

TEST(PackedBitset, SetTestCountResize) {
  PackedBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
  b.assign(130, true);
  EXPECT_EQ(b.count(), 130u);  // bits past size() must stay clear
  EXPECT_TRUE(b.all());
}

TEST(PackedBitset, EqualityIgnoresSlackBits) {
  PackedBitset a(70), b(70);
  a.set(69);
  b.set(69);
  EXPECT_EQ(a, b);
  b.reset(69);
  EXPECT_NE(a, b);
}

TEST(PackedBitset, AtomicSetFromManyThreads) {
  const std::uint64_t n = 10'000;
  PackedBitset b(n);
  // All lanes hammer overlapping words; every bit must land exactly once.
  parallel_for(n, 4, 64, [&](const ChunkRange& chunk, std::size_t) {
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) b.set_atomic(i);
  });
  EXPECT_EQ(b.count(), n);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  const std::uint64_t n = 100'000;
  std::vector<std::uint8_t> hits(n, 0);
  parallel_for(n, 4, 0, [&](const ChunkRange& chunk, std::size_t) {
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), std::uint64_t{0}), n);
}

TEST(ParallelFor, ChunkPartitionIndependentOfThreadCount) {
  const std::uint64_t n = 1'000'000;
  std::vector<std::vector<std::uint64_t>> begins(3);
  std::size_t idx = 0;
  for (std::size_t threads : {1u, 2u, 5u}) {
    std::vector<std::uint64_t>& mine = begins[idx++];
    mine.resize(num_chunks(n, 0));
    parallel_for(n, threads, 0, [&](const ChunkRange& chunk, std::size_t) {
      mine[chunk.index] = chunk.begin;
    });
  }
  EXPECT_EQ(begins[0], begins[1]);
  EXPECT_EQ(begins[0], begins[2]);
  // 64-alignment of chunk starts keeps bitset words chunk-private.
  for (std::uint64_t b : begins[0]) EXPECT_EQ(b % 64, 0u);
}

TEST(ParallelFor, PropagatesWorkerExceptions) {
  EXPECT_THROW(
      parallel_for(10'000, 4, 64,
                   [&](const ChunkRange& chunk, std::size_t) {
                     if (chunk.begin == 0)
                       throw ModelError("boom from a worker");
                   }),
      ModelError);
  // The pool must survive a throwing region and accept new work.
  std::atomic<std::uint64_t> sum{0};
  parallel_for(1'000, 4, 64, [&](const ChunkRange& chunk, std::size_t) {
    sum.fetch_add(chunk.end - chunk.begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1'000u);
}

// A parallel region opened from inside another region's lane must execute
// inline on that lane (the pool's workers are busy running the outer
// region) — never deadlock, and still cover its range exactly once.
// Lanes go to whichever workers wake first; every lane of every job must
// still run exactly once, for jobs as wide as the pool and narrower ones,
// run back to back.
TEST(ThreadPool, EveryLaneOfAJobRunsOnce) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round)
    for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
      std::vector<std::atomic<int>> runs(lanes);
      pool.run(lanes, [&](std::size_t lane) {
        EXPECT_LT(lane, lanes);
        if (lane < lanes) runs[lane].fetch_add(1);
      });
      for (std::size_t lane = 0; lane < lanes; ++lane)
        EXPECT_EQ(runs[lane].load(), 1) << "lane " << lane << " of " << lanes;
    }
}

TEST(ParallelFor, NestedRegionRunsInlineWithoutDeadlock) {
  const std::uint64_t outer_n = 1'000, inner_n = 640;
  std::atomic<std::uint64_t> inner_total{0};
  parallel_for(outer_n, 4, 64, [&](const ChunkRange& outer, std::size_t) {
    std::uint64_t local = 0;
    parallel_for(inner_n, 4, 64, [&](const ChunkRange& inner, std::size_t) {
      local += inner.end - inner.begin;
    });
    EXPECT_EQ(local, inner_n);
    inner_total.fetch_add(local * (outer.end - outer.begin),
                          std::memory_order_relaxed);
  });
  EXPECT_EQ(inner_total.load(), outer_n * inner_n);
  // The pool must accept ordinary work afterwards.
  std::atomic<std::uint64_t> sum{0};
  parallel_for(outer_n, 4, 64, [&](const ChunkRange& chunk, std::size_t) {
    sum.fetch_add(chunk.end - chunk.begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), outer_n);
}

// The instances the cursor and the successor kernel are held to the
// divmod decode and to successors() on: zoo rings and random bidirectional
// rings at K=2..7 (a 3-wide window wraps twice at K=2), arrays at n=2..6,
// whose boundary windows read the ⊥ slot, and random trees.
std::vector<RingInstance> kernel_instances() {
  std::vector<RingInstance> out;
  std::mt19937_64 rng(29);
  std::vector<Protocol> rings = testing::protocol_zoo();
  for (int i = 0; i < 4; ++i)
    rings.push_back(testing::random_protocol(
        rng, {.max_domain = 3, .allow_bidirectional = true}));
  for (const Protocol& p : rings)
    for (std::size_t k = 2; k <= 7; ++k) out.emplace_back(p, k);
  const std::vector<Protocol> arrays = {
      protocols::array_two_coloring(), protocols::array_sort(3),
      testing::random_array_protocol(rng, {.bidirectional = true}),
      testing::random_array_protocol(rng, {.max_real = 4})};
  for (const Protocol& p : arrays)
    for (std::size_t n = 2; n <= 6; ++n)
      out.push_back(RingInstance::array(p, n));
  for (const Protocol& p : {arrays[0], arrays[1], arrays[3]})
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      out.push_back(RingInstance::tree(p, random_tree_shape(2 + seed, seed)));
  return out;
}

std::string name_of(const RingInstance& inst) {
  return inst.protocol().name() + (inst.is_ring() ? " ring K=" : " K=") +
         std::to_string(inst.ring_size());
}

/// Cursor seats: state 0 and mid-space, each walked to the end, then every
/// chunk of the checker's parallel_for partition and of a 64-state one,
/// each walked to its end. Calls visit(cursor) at each state.
template <typename Visit>
void for_each_seat(const RingInstance& inst, Visit&& visit) {
  const GlobalStateId n = inst.num_states();
  const auto walk = [&](GlobalStateId begin, GlobalStateId end) {
    auto cur = inst.cursor(begin);
    for (GlobalStateId s = begin; s < end; ++s, cur.advance()) {
      ASSERT_EQ(cur.state(), s);
      visit(cur);
    }
  };
  walk(0, n);
  walk(n / 2, n);
  for (const std::uint64_t grain : {std::uint64_t{0}, std::uint64_t{64}})
    parallel_for(n, 1, grain, [&](const ChunkRange& chunk, std::size_t) {
      walk(chunk.begin, chunk.end);
    });
}

TEST(RingCursor, MaintainedLocalStatesMatchDivmodDecode) {
  for (const RingInstance& inst : kernel_instances()) {
    const std::string ctx = name_of(inst);
    for_each_seat(inst, [&](const RingInstance::Cursor& cur) {
      const GlobalStateId s = cur.state();
      for (std::size_t i = 0; i < inst.ring_size(); ++i)
        ASSERT_EQ(cur.local_state(i), inst.local_state(s, i))
            << ctx << " s=" << s << " i=" << i;
      const bool inv = inst.in_invariant(s), dead = inst.is_deadlock(s);
      ASSERT_EQ(cur.in_invariant(), inv) << ctx << " s=" << s;
      ASSERT_EQ(cur.is_deadlock(), dead) << ctx << " s=" << s;
      ASSERT_EQ(cur.classify(),
                (inv ? RingInstance::kClassInvariant : 0) |
                    (dead ? RingInstance::kClassDeadlock : 0))
          << ctx << " s=" << s;
    });
    // Past the last state every digit carries out and wraps to 0.
    auto cur = inst.cursor(inst.num_states() - 1);
    cur.advance();
    for (std::size_t i = 0; i < inst.ring_size(); ++i)
      ASSERT_EQ(cur.local_state(i), inst.local_state(0, i)) << ctx;
  }
}

/// One successor as the kernel yields it.
struct Yield {
  GlobalStateId target;
  std::size_t process;
  Value self;
  bool operator==(const Yield&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Yield& y) {
  return os << "(" << y.target << ", " << y.process << ", " << int{y.self}
            << ")";
}

/// successors() as (target, process, new self), the oracle's order.
std::vector<Yield> oracle_yields(const RingInstance& inst, GlobalStateId s) {
  std::vector<RingInstance::Step> steps;
  inst.successors(s, steps);
  std::vector<Yield> out;
  for (const auto& step : steps)
    out.push_back({step.target, step.process,
                   inst.protocol().space().self(step.transition.to)});
  return out;
}

/// Everything one kernel form yields; `walk(f)` runs the form with f.
template <typename Walk>
std::vector<Yield> kernel_yields(Walk&& walk) {
  std::vector<Yield> out;
  const bool finished = walk([&](GlobalStateId to, std::size_t i, Value v) {
    out.push_back({to, i, v});
    return true;
  });
  EXPECT_TRUE(finished) << "a walk whose callback never stops must finish";
  return out;
}

TEST(RingKernel, BothFormsYieldSuccessorsInOrder) {
  std::vector<Value> digits;
  for (const RingInstance& inst : kernel_instances()) {
    const std::string ctx = name_of(inst);
    for_each_seat(inst, [&](const RingInstance::Cursor& cur) {
      const GlobalStateId s = cur.state();
      const std::vector<Yield> want = oracle_yields(inst, s);
      ASSERT_EQ(kernel_yields([&](auto&& f) {
                  return cur.for_each_target(f);
                }),
                want)
          << ctx << " cursor form, s=" << s;
      inst.decode_into(s, digits);
      ASSERT_EQ(kernel_yields([&](auto&& f) {
                  return inst.for_each_target(s, digits.data(), f);
                }),
                want)
          << ctx << " digit form, s=" << s;
    });
    if (!inst.is_ring()) continue;
    // The digit form on the quotient's own digits: every necklace.
    const NecklaceEnumerator necklaces(inst.ring_size(), inst.domain_size());
    necklaces.visit_all([&](const Value* word, GlobalStateId id,
                            std::uint32_t) {
      ASSERT_EQ(kernel_yields([&](auto&& f) {
                  return inst.for_each_target(id, word, f);
                }),
                oracle_yields(inst, id))
          << ctx << " necklace " << id;
    });
  }
}

TEST(RingKernel, FalseStopsTheWalkAfterThatMove) {
  std::vector<Value> digits;
  std::size_t stopped = 0;
  for (const RingInstance& inst : kernel_instances()) {
    const std::string ctx = name_of(inst);
    auto cur = inst.cursor(0);
    for (GlobalStateId s = 0; s < inst.num_states(); ++s, cur.advance()) {
      const std::vector<Yield> want = oracle_yields(inst, s);
      inst.decode_into(s, digits);
      // Stopping at move j leaves exactly the first j + 1 moves yielded.
      for (std::size_t j = 0; j < want.size(); ++j) {
        const std::vector<Yield> prefix(want.begin(), want.begin() + j + 1);
        const auto stop_at_j = [&](std::vector<Yield>& got) {
          return [&got, j](GlobalStateId to, std::size_t i, Value v) {
            got.push_back({to, i, v});
            return got.size() <= j;
          };
        };
        std::vector<Yield> a, b;
        ASSERT_FALSE(cur.for_each_target(stop_at_j(a))) << ctx;
        ASSERT_FALSE(inst.for_each_target(s, digits.data(), stop_at_j(b)))
            << ctx;
        ASSERT_EQ(a, prefix) << ctx << " s=" << s << " j=" << j;
        ASSERT_EQ(b, prefix) << ctx << " s=" << s << " j=" << j;
        ++stopped;
      }
    }
  }
  EXPECT_GT(stopped, 0u);
}

// The headline contract: N-thread sweeps return verdicts, counts, samples,
// witness cycles, and recovery bounds identical to the serial engine for
// every bundled protocol at K = 2..8.
TEST(ParallelChecker, MatchesSerialOnAllBundledProtocols) {
  for (const auto& p : testing::protocol_zoo()) {
    for (std::size_t k = 2; k <= 8; ++k) {
      const RingInstance ring(p, k);
      const auto serial = GlobalChecker(ring, 1).check_all();
      for (std::size_t threads : {2u, 4u}) {
        const auto par = GlobalChecker(ring, threads).check_all();
        ASSERT_EQ(par.num_states, serial.num_states) << p.name() << " K=" << k;
        ASSERT_EQ(par.num_deadlocks_outside_i, serial.num_deadlocks_outside_i)
            << p.name() << " K=" << k << " threads=" << threads;
        ASSERT_EQ(par.deadlock_samples, serial.deadlock_samples)
            << p.name() << " K=" << k << " threads=" << threads;
        ASSERT_EQ(par.has_livelock, serial.has_livelock)
            << p.name() << " K=" << k << " threads=" << threads;
        ASSERT_EQ(par.livelock_cycle, serial.livelock_cycle)
            << p.name() << " K=" << k << " threads=" << threads;
        ASSERT_EQ(par.closure_ok, serial.closure_ok)
            << p.name() << " K=" << k << " threads=" << threads;
        ASSERT_EQ(par.closure_violation, serial.closure_violation)
            << p.name() << " K=" << k << " threads=" << threads;
        ASSERT_EQ(par.weakly_converges, serial.weakly_converges)
            << p.name() << " K=" << k << " threads=" << threads;
        ASSERT_EQ(par.max_recovery_steps, serial.max_recovery_steps)
            << p.name() << " K=" << k << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelChecker, InvariantMaskMatchesPredicate) {
  for (const auto& p : testing::protocol_zoo()) {
    const RingInstance ring(p, 6);
    const GlobalChecker checker(ring, 4);
    const PackedBitset& mask = checker.invariant_mask();
    ASSERT_EQ(mask.size(), ring.num_states());
    for (GlobalStateId s = 0; s < ring.num_states(); ++s)
      ASSERT_EQ(mask.test(s), ring.in_invariant(s)) << p.name() << " " << s;
  }
}

TEST(ParallelChecker, StronglyStabilizingAgreesAcrossThreadCounts) {
  for (const auto& p : testing::protocol_zoo()) {
    const RingInstance ring(p, 5);
    EXPECT_EQ(strongly_stabilizing(ring, 1), strongly_stabilizing(ring, 4))
        << p.name();
  }
}

TEST(ParallelSymmetry, CensusMatchesSerialScan) {
  for (const auto& p : testing::protocol_zoo()) {
    const RingInstance ring(p, 6);
    const auto serial = check_symmetric(ring, 8, 1);
    for (std::size_t threads : {2u, 4u}) {
      const auto par = check_symmetric(ring, 8, threads);
      EXPECT_EQ(par.num_necklaces, serial.num_necklaces) << p.name();
      EXPECT_EQ(par.num_deadlocks_outside_i, serial.num_deadlocks_outside_i)
          << p.name();
      EXPECT_EQ(par.deadlock_orbit_reps, serial.deadlock_orbit_reps)
          << p.name();
      EXPECT_EQ(par.num_necklaces, serial.num_necklaces) << p.name();
      EXPECT_EQ(par.has_livelock, serial.has_livelock) << p.name();
      EXPECT_EQ(par.livelock_cycle, serial.livelock_cycle) << p.name();
      EXPECT_EQ(par.closure_ok, serial.closure_ok) << p.name();
      EXPECT_EQ(par.closure_violation, serial.closure_violation) << p.name();
      EXPECT_EQ(par.weakly_converges, serial.weakly_converges) << p.name();
      EXPECT_EQ(par.max_recovery_steps, serial.max_recovery_steps)
          << p.name();
    }
  }
}

TEST(ParallelSymmetry, CensusOnlySweepMatchesFullResult) {
  for (const auto& p : testing::protocol_zoo()) {
    const RingInstance ring(p, 7);
    const auto full = check_symmetric(ring, 8, 1);
    for (std::size_t threads : {1u, 4u}) {
      const auto census = necklace_census(ring, 8, threads);
      EXPECT_EQ(census.num_necklaces, full.num_necklaces) << p.name();
      EXPECT_EQ(census.orbit_states, ring.num_states()) << p.name();
      EXPECT_EQ(census.num_deadlocks_outside_i, full.num_deadlocks_outside_i)
          << p.name();
      EXPECT_EQ(census.deadlock_orbit_reps, full.deadlock_orbit_reps)
          << p.name();
    }
  }
}

}  // namespace
}  // namespace ringstab
