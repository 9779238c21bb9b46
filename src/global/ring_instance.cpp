#include "global/ring_instance.hpp"

#include <random>

#include "core/fmt.hpp"
#include "local/array.hpp"

namespace ringstab {
namespace {

// Reused digit buffer for the single-state entry points, so callers that
// probe arbitrary states (tests, witnesses, the CLI) pay one decode and no
// allocation per call. Sweeps should use Cursor instead.
std::vector<Value>& scratch_digits() {
  static thread_local std::vector<Value> digits;
  return digits;
}

}  // namespace

RingInstance::RingInstance(Protocol protocol, std::size_t size, bool ring,
                           GlobalStateId max_states)
    : protocol_(std::move(protocol)),
      k_(size),
      d_(protocol_.domain().size()),
      radix_(ring ? d_ : d_ - 1),
      window_(static_cast<std::size_t>(protocol_.locality().window())) {
  GlobalStateId n = 1;
  pow_.reserve(k_);
  for (std::size_t i = 0; i < k_; ++i) {
    pow_.push_back(n);
    if (n > max_states / radix_)
      throw CapacityError(cat(ring ? "|D|^K = " : "(|D|-1)^n = ", radix_, "^",
                              k_, " exceeds the state budget ", max_states));
    n *= radix_;
  }
  num_states_ = n;

  lpow_.reserve(window_);
  LocalStateId lp = 1;
  for (std::size_t p = 0; p < window_; ++p) {
    lpow_.push_back(lp);
    lp *= static_cast<LocalStateId>(d_);
  }

  widx_.resize(k_ * window_);
  local_flags_.resize(protocol_.num_states());
  for (LocalStateId ls = 0; ls < local_flags_.size(); ++ls)
    local_flags_[ls] =
        static_cast<std::uint8_t>((protocol_.is_legit(ls) ? kLegit : 0) |
                                  (protocol_.is_enabled(ls) ? kEnabled : 0));
}

RingInstance::RingInstance(Protocol protocol, std::size_t ring_size,
                           GlobalStateId max_states)
    : RingInstance(std::move(protocol), ring_size, /*ring=*/true,
                   max_states) {
  if (k_ < 2) throw ModelError("ring size must be at least 2");
  // Offset p - left of process i, with full wraparound (windows wider than
  // the ring wrap more than once).
  const auto& loc = protocol_.locality();
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t p = 0; p < window_; ++p) {
      const long long off = static_cast<long long>(p) - loc.left;
      long long j = (static_cast<long long>(i) + off) %
                    static_cast<long long>(k_);
      if (j < 0) j += static_cast<long long>(k_);
      widx_[i * window_ + p] = static_cast<std::uint32_t>(j);
    }
  }
}

RingInstance RingInstance::array(Protocol protocol, std::size_t length,
                                 GlobalStateId max_states) {
  validate_array_protocol(protocol);
  if (length < 2) throw ModelError("array length must be at least 2");
  RingInstance inst(std::move(protocol), length, /*ring=*/false, max_states);
  const long long n = static_cast<long long>(length);
  const auto& loc = inst.protocol_.locality();
  for (std::size_t i = 0; i < length; ++i) {
    for (std::size_t p = 0; p < inst.window_; ++p) {
      const long long j = static_cast<long long>(i + p) - loc.left;
      inst.widx_[i * inst.window_ + p] =
          static_cast<std::uint32_t>(j < 0 || j >= n ? length : j);
    }
  }
  return inst;
}

RingInstance RingInstance::tree(Protocol protocol,
                                const std::vector<std::size_t>& parents,
                                GlobalStateId max_states) {
  validate_array_protocol(protocol);
  if (protocol.locality() != Locality{1, 0})
    throw ModelError(
        "tree instances require a parent-read locality (reads -1 .. 0)");
  const std::size_t n = parents.size() + 1;
  if (n < 2) throw ModelError("tree must have at least 2 nodes");
  for (std::size_t i = 1; i < n; ++i)
    if (parents[i - 1] >= i)
      throw ModelError("tree parents must satisfy parent(i) < i");
  RingInstance inst(std::move(protocol), n, /*ring=*/false, max_states);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t parent = i == 0 ? n : parents[i - 1];
    inst.widx_[2 * i] = static_cast<std::uint32_t>(parent);
    inst.widx_[2 * i + 1] = static_cast<std::uint32_t>(i);
  }
  return inst;
}

RingInstance RingInstance::without_invariant() const {
  RingInstance out = *this;
  out.protocol_ = Protocol(protocol_.name(), protocol_.space(),
                           protocol_.delta(),
                           std::vector<bool>(protocol_.num_states(), false));
  for (std::uint8_t& f : out.local_flags_)
    f = static_cast<std::uint8_t>(f & ~kLegit);
  return out;
}

std::vector<Value> RingInstance::decode(GlobalStateId s) const {
  std::vector<Value> out;
  decode_into(s, out);
  out.pop_back();  // the ⊥ slot
  return out;
}

void RingInstance::decode_into(GlobalStateId s,
                               std::vector<Value>& digits) const {
  digits.resize(k_ + 1);
  for (std::size_t i = 0; i < k_; ++i) {
    digits[i] = static_cast<Value>(s % radix_);
    s /= radix_;
  }
  digits[k_] = static_cast<Value>(d_ - 1);
}

GlobalStateId RingInstance::encode(std::span<const Value> values) const {
  RINGSTAB_ASSERT(values.size() == k_, "valuation has wrong size");
  GlobalStateId s = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    RINGSTAB_ASSERT(values[i] < radix_, "value out of domain");
    s += pow_[i] * values[i];
  }
  return s;
}

LocalStateId RingInstance::local_state(GlobalStateId s, std::size_t i) const {
  auto& digits = scratch_digits();
  decode_into(s, digits);
  return local_state_from(digits.data(), i);
}

bool RingInstance::in_invariant(GlobalStateId s) const {
  auto& digits = scratch_digits();
  decode_into(s, digits);
  for (std::size_t i = 0; i < k_; ++i)
    if (!legit_local(local_state_from(digits.data(), i))) return false;
  return true;
}

bool RingInstance::is_deadlock(GlobalStateId s) const {
  auto& digits = scratch_digits();
  decode_into(s, digits);
  for (std::size_t i = 0; i < k_; ++i)
    if (enabled_local(local_state_from(digits.data(), i))) return false;
  return true;
}

void RingInstance::successors(GlobalStateId s, std::vector<Step>& out) const {
  auto& digits = scratch_digits();
  decode_into(s, digits);
  successors_from(s, digits.data(), out);
}

void RingInstance::successors_from(GlobalStateId s, const Value* digits,
                                   std::vector<Step>& out) const {
  out.clear();
  for (std::size_t i = 0; i < k_; ++i) {
    const LocalStateId ls = local_state_from(digits, i);
    if (!enabled_local(ls)) continue;
    for (const auto& t : protocol_.transitions_from(ls)) {
      const Value old_self = protocol_.space().self(t.from);
      const Value new_self = protocol_.space().self(t.to);
      const GlobalStateId target =
          s + pow_[i] * new_self - pow_[i] * old_self;
      out.push_back({target, i, t});
    }
  }
}

std::size_t RingInstance::num_enabled(GlobalStateId s) const {
  auto& digits = scratch_digits();
  decode_into(s, digits);
  std::size_t n = 0;
  for (std::size_t i = 0; i < k_; ++i)
    if (enabled_local(local_state_from(digits.data(), i))) ++n;
  return n;
}

std::string RingInstance::brief(GlobalStateId s) const {
  std::string out;
  out.reserve(k_);
  for (std::size_t i = 0; i < k_; ++i)
    out.push_back(protocol_.domain().abbrev(value(s, i)));
  return out;
}

Schedule schedule_from_path(const RingInstance& ring,
                            std::span<const GlobalStateId> path, bool cyclic) {
  Schedule sched;
  if (path.size() < 2 && !cyclic) return sched;
  const std::size_t steps = cyclic ? path.size() : path.size() - 1;
  sched.reserve(steps);
  const auto& space = ring.protocol().space();
  std::vector<Value> from_digits, to_digits;
  for (std::size_t n = 0; n < steps; ++n) {
    const GlobalStateId from = path[n];
    const GlobalStateId to = path[(n + 1) % path.size()];
    auto bad_step = [&] {
      return ModelError(cat("path step ", n, " (", ring.brief(from), " → ",
                            ring.brief(to), ") is not a protocol transition"));
    };
    // Interleaving semantics: exactly one process's variable changes, so the
    // mover is recoverable from the digit difference — no successor scan.
    ring.decode_into(from, from_digits);
    ring.decode_into(to, to_digits);
    std::size_t mover = ring.ring_size();
    for (std::size_t i = 0; i < ring.ring_size(); ++i) {
      if (from_digits[i] == to_digits[i]) continue;
      if (mover != ring.ring_size()) throw bad_step();  // two movers
      mover = i;
    }
    if (mover == ring.ring_size()) throw bad_step();  // stutter
    const LocalStateId ls = ring.local_state_from(from_digits.data(), mover);
    bool found = false;
    for (const auto& t : ring.protocol().transitions_from(ls)) {
      if (space.self(t.to) == to_digits[mover]) {
        sched.push_back({mover, t});
        found = true;
        break;
      }
    }
    if (!found) throw bad_step();
  }
  return sched;
}

std::vector<std::size_t> random_tree_shape(std::size_t n,
                                           std::uint64_t seed) {
  RINGSTAB_ASSERT(n >= 2, "tree must have at least 2 nodes");
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> parent(n - 1);
  for (std::size_t i = 1; i < n; ++i)
    parent[i - 1] = rng() % i;
  return parent;
}

}  // namespace ringstab
