// Rotation-symmetry reduction for ring model checking.
//
// Symmetric protocols are invariant under ring rotation, so the global
// state space factors into rotation orbits (necklaces). Checking one
// canonical representative per orbit is sound and complete for the
// properties ringstab cares about:
//
//  * deadlock / membership in I are rotation-invariant state predicates, so
//    orbit-size weighting recovers the plain checker's exact counts;
//  * closure, reachability-of-I, and recovery depth are rotation-invariant,
//    so the quotient graph decides them;
//  * a livelock exists iff the quotient transition graph restricted to ¬I
//    has a cycle (possibly a self-loop): a real cycle projects to a
//    quotient cycle, and a quotient cycle lifts — following it returns to a
//    rotation ρ of the start, and iterating ord(ρ) times closes a genuine
//    cycle, which check_symmetric materializes as its witness.
//
// check_symmetric is the second front-end of the verdict pipeline in
// checker.hpp, in two passes of the FKM necklace recursion (necklace.hpp)
// over the same prefix-slot chunks. Each pass enumerates every orbit
// representative directly, in ascending canonical-id order and amortized
// O(1), never scanning the |D|^K full space.
//  * The census classifies each necklace, sets one bit per ¬I canonical id
//    (a per-word popcount prefix then ranks them, as GlobalChecker ranks
//    its ¬I states), and counts per chunk the ¬I necklaces and an upper
//    bound on their quotient edges.
//  * The graph pass canonicalizes each ¬I necklace's successors (an O(K)
//    rotation scan from FKM's digits), ranks them off the bitset and writes
//    its NotInvariantGraph rows and edges in place into the chunk's bounded
//    slots; the gaps close in chunk order. The I necklaces check closure
//    in the same pass.
// The shared verdict stages run on the graph unchanged, and a livelock
// witness maps ranks back to ids by a select over the bitset. The quotient
// holds ~40 B per necklace: K=20 (3^20 states, 174M necklaces) fits in
// about 7 GB. EXP-S1c / BENCH_symmetry.json measure the census against the
// full-space sweep and split the verdicts by stage up to K=20.
#pragma once

#include <optional>
#include <vector>

#include "global/checker.hpp"

namespace ringstab {

/// The canonical representative of s's rotation orbit: the minimal encoding
/// over all K rotations (O(K), canonical_necklace_id).
GlobalStateId canonical_rotation(const RingInstance& ring, GlobalStateId s);

/// Number of distinct states in s's rotation orbit (== the primitive period
/// of the cyclic word; always divides K).
std::size_t rotation_orbit_size(const RingInstance& ring, GlobalStateId s);

/// Deadlock census over the necklace quotient, without building the
/// quotient transition graph — the cheapest symmetry-reduced sweep, and the
/// one BENCH_symmetry.json races against the full-space engine.
struct NecklaceCensus {
  /// Quotient size: rotation orbits of |D|^K states.
  std::size_t num_necklaces = 0;
  /// Σ orbit sizes over all necklaces; always equals |D|^K.
  std::uint64_t orbit_states = 0;
  /// Orbit-weighted deadlock count: equals the plain checker's exactly.
  std::size_t num_deadlocks_outside_i = 0;
  /// Canonical deadlock representatives in ascending id order (capped).
  std::vector<GlobalStateId> deadlock_orbit_reps;
};

/// `num_threads > 1` partitions the necklace prefix space over the shared
/// pool; per-chunk partials merge in ascending slot order, so counts and
/// representatives are identical to the serial enumeration for every
/// thread count. Throws ModelError unless `ring.is_ring()`.
NecklaceCensus necklace_census(const RingInstance& ring,
                               std::size_t max_samples = 8,
                               std::size_t num_threads = 1);

/// Full verdict set over the rotation quotient; every verdict and count is
/// identical to GlobalChecker's on the same instance (tests cross-validate
/// the zoo at K=2..10).
struct SymmetricCheckResult {
  std::size_t ring_size = 0;
  GlobalStateId num_states = 0;  // |D|^K, the space never materialized
  /// Canonical states actually visited (the cost — compare |D|^K).
  std::size_t num_necklaces = 0;

  /// Orbit-aware deadlock count: equals the plain checker's count exactly.
  std::size_t num_deadlocks_outside_i = 0;
  /// Canonical deadlock representatives (capped).
  std::vector<GlobalStateId> deadlock_orbit_reps;

  bool has_livelock = false;
  /// Genuine full-space witness cycle (all states outside I), lifted from
  /// the quotient cycle by iterating its closing rotation; empty if none.
  std::vector<GlobalStateId> livelock_cycle;

  bool closure_ok = true;
  /// An actual transition leaving I: canonical source, raw successor.
  std::optional<std::pair<GlobalStateId, GlobalStateId>> closure_violation;

  /// Every state can reach I (weak convergence), decided on the quotient.
  bool weakly_converges = false;

  /// Worst-case steps to reach I; computed (on the quotient) only when
  /// strongly_converges(), else 0. Recovery depth is rotation-invariant, so
  /// this equals GlobalChecker::max_recovery_steps().
  std::size_t max_recovery_steps = 0;

  bool strongly_converges() const {
    return closure_ok && num_deadlocks_outside_i == 0 && !has_livelock;
  }
};

/// `num_threads > 1` parallelizes the census and the quotient-graph build
/// with its closure scan on the shared pool; the verdict passes over the
/// quotient are serial. All results — including the lifted livelock
/// witness, which is anchored canonically — stay identical to the serial
/// run at every thread count. Throws ModelError unless `ring.is_ring()`,
/// CapacityError past 2^32 necklaces outside I.
SymmetricCheckResult check_symmetric(const RingInstance& ring,
                                     std::size_t max_samples = 8,
                                     std::size_t num_threads = 1);

}  // namespace ringstab
