// FKM/Duval necklace enumeration over length-K strings on a |D|-letter
// alphabet — the engine behind the rotation-symmetry quotient.
//
// A necklace is the canonical (numerically minimal mixed-radix encoding)
// representative of one rotation orbit of global ring states. The
// Fredricksen–Kessler–Maiorana recursion yields every necklace directly, in
// ascending canonical-id order, in amortized O(1) per necklace — it never
// touches the |D|^K full space, so enumerating the ~|D|^K / K orbit
// representatives costs ~K× less than scanning all states and filtering.
//
// Each necklace is reported with its *orbit size* (the number of distinct
// rotations, i.e. the primitive period of the cyclic word), which is what
// orbit-weighted counting needs: Σ orbit over all necklaces = |D|^K.
//
// Parallelism: the enumeration tree is partitioned by the top `prefix_len`
// most-significant digits into `num_slots` independent subtrees. Slots are
// in ascending canonical-id order, so chunking slots over the thread pool
// and merging per-chunk results in ascending slot order reproduces the
// serial enumeration order bit-for-bit, for every thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace ringstab {

/// O(K) least-rotation canonicalization: the minimal mixed-radix encoding
/// over all K rotations of `digits` (ring order, least-significant digit
/// first), whose own encoding is `id`. Rotating the word one place is one
/// step on its encoding, id·|D| − top·(|D|^K − 1), so the scan reads each
/// digit once, with no buffer, no modulo and no data-dependent branch.
/// Unsigned wrapping keeps every step exact, since each rotation's encoding
/// fits in 64 bits. `pow[i]` must be |D|^i for i in [0, k).
GlobalStateId canonical_necklace_id(GlobalStateId id, const Value* digits,
                                    std::size_t k,
                                    std::span<const GlobalStateId> pow);

/// The same, encoding `digits` first. Replaces the O(K²) rotate-and-compare
/// scan everywhere a single state is canonicalized.
GlobalStateId canonical_necklace_id(const Value* digits, std::size_t k,
                                    std::span<const GlobalStateId> pow);

/// Primitive period of the cyclic word `digits` (ring order): the smallest
/// r > 0 with digits[(i+r) mod k] == digits[i] for all i. This equals the
/// rotation-orbit size and always divides k.
std::size_t cyclic_period(const Value* digits, std::size_t k);

/// Necklace enumerator for rings of `ring_size` processes over a
/// `domain_size`-value alphabet. Stateless between visits; one instance can
/// be shared by concurrent visit_slots() calls on disjoint slot ranges.
class NecklaceEnumerator {
 public:
  NecklaceEnumerator(std::size_t ring_size, std::size_t domain_size);

  std::size_t ring_size() const { return k_; }
  std::size_t domain_size() const { return d_; }

  /// Mixed-radix place values |D|^i, i in [0, K).
  std::span<const GlobalStateId> powers() const { return pow_; }

  /// Number of prefix subtrees the enumeration is split into — a
  /// deterministic function of (K, |D|) only, never of the thread count.
  std::uint64_t num_slots() const { return num_slots_; }

  /// Visit every necklace whose top `prefix_len` digits encode to a slot in
  /// [begin, end), in ascending canonical-id order. The visitor is called
  /// as visit(digits, id, orbit) where `digits` points at the canonical
  /// digit vector in ring order (valid only during the call), `id` is its
  /// encoding, and `orbit` the rotation-orbit size.
  template <typename Visitor>
  void visit_slots(std::uint64_t begin, std::uint64_t end,
                   Visitor&& visit) const {
    std::vector<Value> a(k_ + 1, 0);   // FKM string, a[1..K], msd first
    std::vector<Value> digits(k_, 0);  // ring order: digits[K-t] = a[t]
    for (std::uint64_t slot = begin; slot < end; ++slot) {
      std::size_t p = 0;
      GlobalStateId partial = 0;
      if (!seed_slot(slot, a.data(), digits.data(), p, partial)) continue;
      descend(prefix_len_ + 1, p, partial, a.data(), digits.data(), visit);
    }
  }

  template <typename Visitor>
  void visit_all(Visitor&& visit) const {
    visit_slots(0, num_slots_, visit);
  }

 private:
  /// Decode `slot` into a[1..prefix_len] / the digit mirror and compute the
  /// FKM period of the prefix. Returns false when the prefix is not a
  /// prenecklace (no necklace starts with it).
  bool seed_slot(std::uint64_t slot, Value* a, Value* digits, std::size_t& p,
                 GlobalStateId& partial) const;

  /// The FKM recursion below the seeded prefix: a[1..t-1] is a prenecklace
  /// with period p; `partial` is its encoded contribution. Amortized O(1)
  /// per emitted necklace (the tree has O(necklaces) nodes).
  template <typename Visitor>
  void descend(std::size_t t, std::size_t p, GlobalStateId partial, Value* a,
               Value* digits, Visitor&& visit) const {
    if (t > k_) {
      if (k_ % p == 0)
        visit(static_cast<const Value*>(digits), partial,
              static_cast<std::uint32_t>(p));
      return;
    }
    const Value lo = a[t - p];
    a[t] = lo;
    digits[k_ - t] = lo;
    descend(t + 1, p, partial + GlobalStateId{lo} * pow_[k_ - t], a, digits,
            visit);
    for (std::size_t j = lo + 1; j < d_; ++j) {
      const Value v = static_cast<Value>(j);
      a[t] = v;
      digits[k_ - t] = v;
      descend(t + 1, t, partial + GlobalStateId{v} * pow_[k_ - t], a, digits,
              visit);
    }
  }

  std::size_t k_;
  std::size_t d_;
  std::size_t prefix_len_;
  std::uint64_t num_slots_;
  std::vector<GlobalStateId> pow_;
};

/// Total number of necklaces (rotation orbits) of length-k strings over a
/// d-letter alphabet, by enumeration.
std::uint64_t count_necklaces(std::size_t k, std::size_t d);

}  // namespace ringstab
