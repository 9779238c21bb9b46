#include "core/local_state.hpp"

#include <algorithm>

#include "core/fmt.hpp"

namespace ringstab {

LocalStateSpace::LocalStateSpace(Domain domain, Locality locality)
    : domain_(std::move(domain)), locality_(locality) {
  locality_.validate();
  const std::size_t d = domain_.size();
  const int w = locality_.window();
  std::size_t n = 1;
  pow_.resize(static_cast<std::size_t>(w) + 1);
  for (int p = 0; p <= w; ++p) {
    pow_[static_cast<std::size_t>(p)] = static_cast<std::uint32_t>(n);
    if (p < w) {
      if (n > (1u << 24) / d)
        throw CapacityError("local state space too large");
      n *= d;
    }
  }
  size_ = n;
}

std::size_t LocalStateSpace::index_of(int offset) const {
  RINGSTAB_ASSERT(offset >= -locality_.left && offset <= locality_.right,
                  cat("window offset ", offset, " out of range"));
  return static_cast<std::size_t>(offset + locality_.left);
}

Value LocalStateSpace::value(LocalStateId s, int offset) const {
  RINGSTAB_ASSERT(s < size_, "local state id out of range");
  const std::size_t p = index_of(offset);
  return static_cast<Value>((s / pow_[p]) % domain_.size());
}

LocalStateId LocalStateSpace::with_value(LocalStateId s, int offset,
                                         Value v) const {
  RINGSTAB_ASSERT(s < size_, "local state id out of range");
  RINGSTAB_ASSERT(v < domain_.size(), "value out of domain");
  const std::size_t p = index_of(offset);
  const Value old = static_cast<Value>((s / pow_[p]) % domain_.size());
  return s + (static_cast<LocalStateId>(v) - static_cast<LocalStateId>(old)) *
                 pow_[p];
}

LocalStateId LocalStateSpace::encode(std::span<const Value> window) const {
  RINGSTAB_ASSERT(window.size() == static_cast<std::size_t>(locality_.window()),
                  "window valuation has wrong arity");
  LocalStateId s = 0;
  for (std::size_t p = 0; p < window.size(); ++p) {
    RINGSTAB_ASSERT(window[p] < domain_.size(), "value out of domain");
    s += static_cast<LocalStateId>(window[p]) * pow_[p];
  }
  return s;
}

std::vector<Value> LocalStateSpace::decode(LocalStateId s) const {
  RINGSTAB_ASSERT(s < size_, "local state id out of range");
  const int w = locality_.window();
  std::vector<Value> out(static_cast<std::size_t>(w));
  for (int p = 0; p < w; ++p)
    out[static_cast<std::size_t>(p)] = static_cast<Value>(
        (s / pow_[static_cast<std::size_t>(p)]) % domain_.size());
  return out;
}

std::string LocalStateSpace::brief(LocalStateId s) const {
  std::string out;
  for (Value v : decode(s)) out.push_back(domain_.abbrev(v));
  return out;
}

std::string LocalStateSpace::describe(LocalStateId s) const {
  const auto vals = decode(s);
  std::ostringstream os;
  os << "⟨";
  for (int p = 0; p < locality_.window(); ++p) {
    if (p > 0) os << ", ";
    const int offset = p - locality_.left;
    os << "x[" << offset << "]=" << domain_.name(vals[static_cast<std::size_t>(p)]);
  }
  os << "⟩";
  return os.str();
}

bool LocalStateSpace::right_continues(LocalStateId u, LocalStateId v) const {
  RINGSTAB_ASSERT(u < size_ && v < size_, "local state id out of range");
  // The shared offsets [1-left, right] of u are its digits above the lowest;
  // the same variables are v's offsets [-left, right-1], its digits below
  // the highest.
  const auto top = static_cast<std::size_t>(locality_.window() - 1);
  return u / domain_.size() == v % pow_[top];
}

std::vector<LocalStateId> LocalStateSpace::right_continuations(
    LocalStateId u) const {
  RINGSTAB_ASSERT(u < size_, "local state id out of range");
  // v's digits below the highest are u's above the lowest (see
  // right_continues); its rightmost variable is free.
  const LocalStateId base = static_cast<LocalStateId>(u / domain_.size());
  const std::size_t top = static_cast<std::size_t>(locality_.window() - 1);
  std::vector<LocalStateId> out;
  out.reserve(domain_.size());
  for (std::size_t v = 0; v < domain_.size(); ++v)
    out.push_back(base + static_cast<LocalStateId>(v) * pow_[top]);
  return out;
}

}  // namespace ringstab
