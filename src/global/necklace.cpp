#include "global/necklace.hpp"

#include <algorithm>

namespace ringstab {

GlobalStateId canonical_necklace_id(GlobalStateId id, const Value* digits,
                                    std::size_t k,
                                    std::span<const GlobalStateId> pow) {
  if (k < 2) return id;
  const GlobalStateId radix = pow[1];
  const GlobalStateId wrap = pow[k - 1] * radix - 1;  // |D|^K - 1 mod 2^64
  // Step i moves digit i, the top of the current rotation, to the bottom.
  GlobalStateId least = id;
  for (std::size_t i = k - 1; i > 0; --i) {
    id = id * radix - GlobalStateId{digits[i]} * wrap;
    least = std::min(least, id);
  }
  return least;
}

GlobalStateId canonical_necklace_id(const Value* digits, std::size_t k,
                                    std::span<const GlobalStateId> pow) {
  GlobalStateId id = 0;
  for (std::size_t i = 0; i < k; ++i) id += GlobalStateId{digits[i]} * pow[i];
  return canonical_necklace_id(id, digits, k, pow);
}

std::size_t cyclic_period(const Value* digits, std::size_t k) {
  for (std::size_t r = 1; r < k; ++r) {
    if (k % r != 0) continue;
    bool fixed = true;
    for (std::size_t i = 0; i < k && fixed; ++i)
      fixed = digits[(i + r) % k] == digits[i];
    if (fixed) return r;
  }
  return k;
}

NecklaceEnumerator::NecklaceEnumerator(std::size_t ring_size,
                                       std::size_t domain_size)
    : k_(ring_size), d_(domain_size) {
  RINGSTAB_ASSERT(k_ >= 1 && d_ >= 1,
                  "necklace enumeration needs K >= 1 and |D| >= 1");
  pow_.reserve(k_);
  GlobalStateId n = 1;
  for (std::size_t i = 0; i < k_; ++i) {
    pow_.push_back(n);
    n *= d_;
  }
  // Enough subtrees that chunked scheduling balances the (skewed) necklace
  // distribution, few enough that per-slot prefix validation is noise.
  constexpr std::uint64_t kMinSlots = 4096;
  prefix_len_ = 1;
  num_slots_ = d_;
  while (prefix_len_ < k_ && num_slots_ < kMinSlots) {
    ++prefix_len_;
    num_slots_ *= d_;
  }
}

bool NecklaceEnumerator::seed_slot(std::uint64_t slot, Value* a, Value* digits,
                                   std::size_t& p,
                                   GlobalStateId& partial) const {
  std::uint64_t rem = slot;
  for (std::size_t t = prefix_len_; t >= 1; --t) {
    a[t] = static_cast<Value>(rem % d_);
    rem /= d_;
  }
  // Incremental FKM period of the prefix: a value below a[t-p] can never
  // appear in a prenecklace, so such prefixes head empty subtrees.
  p = 1;
  for (std::size_t t = 2; t <= prefix_len_; ++t) {
    if (a[t] == a[t - p]) continue;
    if (a[t] < a[t - p]) return false;
    p = t;
  }
  partial = 0;
  for (std::size_t t = 1; t <= prefix_len_; ++t) {
    digits[k_ - t] = a[t];
    partial += GlobalStateId{a[t]} * pow_[k_ - t];
  }
  return true;
}

std::uint64_t count_necklaces(std::size_t k, std::size_t d) {
  const NecklaceEnumerator enumerator(k, d);
  std::uint64_t count = 0;
  enumerator.visit_all(
      [&](const Value*, GlobalStateId, std::uint32_t) { ++count; });
  return count;
}

}  // namespace ringstab
