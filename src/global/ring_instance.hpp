// A parameterized protocol instantiated on a concrete ring of size K, or on
// an array or a parent-read in-tree of K processes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "local/precedence.hpp"  // ScheduledStep

namespace ringstab {

/// Explicit-state view of p(K): global states are mixed-radix uint64 codes
/// of the K process variables. This is the substrate for the "global
/// reasoning" baseline the paper contrasts with (model checking / fixed-K
/// synthesis).
///
/// One instance type covers three topologies. They differ only in the
/// digit-index table, which maps every (process, window offset) pair to the
/// digit that offset reads, and in the radix of a digit:
///  * ring: the wrapped ring index; every digit ranges over D;
///  * array (local/array.hpp): the index of an in-range offset, else the
///    constant ⊥ slot; digits range over the |D|-1 real values;
///  * parent-read in-tree: the parent's index, or the ⊥ slot at the root,
///    and the process's own index; real values only, as for arrays.
/// The ⊥ slot is index K, so digit buffers hold K+1 values and the last one
/// is always ⊥ (the domain's last value). No ring table entry points at it.
///
/// Construction also precomputes, once per instance:
///  * the per-local-state flag byte (legit? enabled?), so predicate checks
///    are one table read instead of a Protocol query;
///  * the window powers |D|^p, so a local state is a Horner sum over the
///    window digits;
///  * the move table: each local state's moves, in transitions_from order,
///    as the mover's new self value and its signed self delta, so a
///    successor is s + radix^i · delta with no decode and no Step;
///  * the reader table: for each digit, the processes whose windows read it
///    and the window weight of each read (the ⊥ slot never changes, so it
///    has no entry). Cursor uses it to keep every local state current.
/// Sweeps should decode a state's digits once (or roll them forward with
/// Cursor) and reuse them for all K processes; for_each_target is the one
/// successor kernel, and successors() the independent Step-building path
/// that the oracle, witness lifts and violation reports use.
class RingInstance {
 public:
  /// A ring of `ring_size` processes. Throws ModelError if ring_size < 2,
  /// CapacityError if |D|^K exceeds `max_states` (default 2^24) or does not
  /// fit in 64 bits.
  RingInstance(Protocol protocol, std::size_t ring_size,
               GlobalStateId max_states = GlobalStateId{1} << 24);

  /// An array (open chain) of `length` processes under the array
  /// convention: offsets past either end read ⊥, and variables hold only
  /// the |D|-1 real values. Throws ModelError if validate_array_protocol
  /// rejects the protocol or length < 2, CapacityError if (|D|-1)^length
  /// exceeds `max_states`.
  static RingInstance array(Protocol protocol, std::size_t length,
                            GlobalStateId max_states = GlobalStateId{1}
                                                       << 24);

  /// A rooted in-tree of parents.size() + 1 processes running an array
  /// protocol with a parent-read locality (reads -1 .. 0): node 0 is the
  /// root and reads ⊥, node i >= 1 reads parents[i-1]. Throws ModelError on
  /// an invalid array protocol, another locality, fewer than 2 nodes or a
  /// parent not below its child (parents[i-1] < i), CapacityError if
  /// (|D|-1)^n exceeds `max_states`.
  static RingInstance tree(Protocol protocol,
                           const std::vector<std::size_t>& parents,
                           GlobalStateId max_states = GlobalStateId{1} << 22);

  const Protocol& protocol() const { return protocol_; }
  /// Number of processes K (the array length, the tree's node count).
  std::size_t ring_size() const { return k_; }
  GlobalStateId num_states() const { return num_states_; }
  std::size_t domain_size() const { return d_; }
  /// A ring, not an array or a tree: only rings have digits over all of D.
  bool is_ring() const { return radix_ == d_; }

  /// The same topology with LC_r ≡ false: every state is outside I, so the
  /// checker's livelock search sees every cycle of the transition graph.
  RingInstance without_invariant() const;

  /// Bits returned by Cursor::classify().
  static constexpr std::uint8_t kClassInvariant = 1;  // s ∈ I(K)
  static constexpr std::uint8_t kClassDeadlock = 2;   // no process enabled

  Value value(GlobalStateId s, std::size_t i) const {
    return static_cast<Value>((s / pow_[i]) % radix_);
  }
  /// pow_[i] = radix^i, the mixed-radix place values (pow_[0] = 1).
  const std::vector<GlobalStateId>& powers() const { return pow_; }
  /// The K process values (no ⊥ slot).
  std::vector<Value> decode(GlobalStateId s) const;
  /// The K digits plus the ⊥ slot into a caller-owned buffer (resized to
  /// K+1); the only divisions a sweep needs per state.
  void decode_into(GlobalStateId s, std::vector<Value>& digits) const;
  GlobalStateId encode(std::span<const Value> values) const;

  /// Local state of process i (its readable window) in global state s.
  LocalStateId local_state(GlobalStateId s, std::size_t i) const;

  /// Local state of process i from predecoded digits: a division-free
  /// Horner sum over the window. `digits` is laid out as decode_into()
  /// fills it; a ring never reads the ⊥ slot, so K digits suffice there.
  LocalStateId local_state_from(const Value* digits, std::size_t i) const {
    const std::uint32_t* idx = widx_.data() + i * window_;
    LocalStateId ls = 0;
    for (std::size_t p = 0; p < window_; ++p)
      ls += static_cast<LocalStateId>(digits[idx[p]]) * lpow_[p];
    return ls;
  }

  /// Precomputed LC_r / enablement of a local state (one byte read).
  bool legit_local(LocalStateId ls) const { return local_flags_[ls] & kLegit; }
  bool enabled_local(LocalStateId ls) const {
    return local_flags_[ls] & kEnabled;
  }

  bool process_enabled(GlobalStateId s, std::size_t i) const {
    return enabled_local(local_state(s, i));
  }

  /// s ∈ I(K): every process satisfies LC_r.
  bool in_invariant(GlobalStateId s) const;

  bool is_deadlock(GlobalStateId s) const;

  /// One outgoing global transition.
  struct Step {
    GlobalStateId target = 0;
    std::size_t process = 0;
    LocalTransition transition;
  };

  /// All outgoing global transitions of s (interleaving semantics: one
  /// process moves), computed from transitions_from and kept apart from the
  /// move table. Appended to `out` (cleared first).
  void successors(GlobalStateId s, std::vector<Step>& out) const;

  /// Number of moves of a local state (its local transitions).
  std::size_t num_moves(LocalStateId ls) const {
    return move_off_[ls + 1] - move_off_[ls];
  }

  /// The successor kernel over predecoded digits of s, laid out as
  /// decode_into() fills them or as NecklaceEnumerator yields a ring's
  /// necklace: calls f(target, process, new_self) for every successor, in
  /// successors() order, until f returns false. Returns false iff f did.
  template <typename F>
  bool for_each_target(GlobalStateId s, const Value* digits, F&& f) const {
    return walk_moves(
        s, [&](std::size_t i) { return local_state_from(digits, i); }, f);
  }

  /// Number of enabled processes in s.
  std::size_t num_enabled(GlobalStateId s) const;

  /// Compact dump using domain abbreviations, e.g. "lsrls".
  std::string brief(GlobalStateId s) const;

  /// Rolling decoder for dense state-space sweeps: holds the digit vector
  /// and the K local states of the current state, and advances by one with
  /// a mixed-radix carry — O(1) amortized, no division. Each digit the carry
  /// changes updates only the local states of its readers, so a step costs
  /// about radix/(radix-1) digits times the window width. All
  /// predicates and the successor kernel read the maintained local states.
  class Cursor {
   public:
    Cursor(const RingInstance& ring, GlobalStateId start)
        : ring_(&ring), s_(start), local_(ring.k_) {
      ring.decode_into(start, digits_);
      for (std::size_t i = 0; i < ring.k_; ++i)
        local_[i] = ring.local_state_from(digits_.data(), i);
    }

    GlobalStateId state() const { return s_; }

    /// Move to state s+1 (carry-propagating increment of the K digits; the
    /// ⊥ slot never changes).
    void advance() {
      ++s_;
      const Value top = static_cast<Value>(ring_->radix_ - 1);
      for (std::size_t i = 0; i < ring_->k_; ++i) {
        if (digits_[i] != top) {
          ++digits_[i];
          shift(i, 1);
          return;
        }
        digits_[i] = 0;
        shift(i, LocalStateId{0} - top);  // wraps: -top in unsigned terms
      }
    }

    LocalStateId local_state(std::size_t i) const { return local_[i]; }
    bool in_invariant() const {
      for (const LocalStateId ls : local_)
        if (!ring_->legit_local(ls)) return false;
      return true;
    }
    bool is_deadlock() const {
      for (const LocalStateId ls : local_)
        if (ring_->enabled_local(ls)) return false;
      return true;
    }
    /// Both sweep predicates in one walk over the processes: each local
    /// state's flag byte settles both bits (an enabled process kills
    /// kClassDeadlock, a non-legit one kills kClassInvariant), with an early
    /// exit once neither bit survives. This is what lets the fused census
    /// pass replace the separate in_invariant()/is_deadlock() sweeps without
    /// touching a state twice.
    std::uint8_t classify() const {
      std::uint8_t out = kClassInvariant | kClassDeadlock;
      for (std::size_t i = 0; i < ring_->k_ && out; ++i) {
        const std::uint8_t f = ring_->local_flags_[local_[i]];
        if (f & kEnabled) out &= ~kClassDeadlock;
        if (!(f & kLegit)) out &= ~kClassInvariant;
      }
      return out;
    }
    /// The successor kernel at the current state (see
    /// RingInstance::for_each_target).
    template <typename F>
    bool for_each_target(F&& f) const {
      return ring_->walk_moves(
          s_, [&](std::size_t i) { return local_[i]; }, f);
    }

   private:
    /// Digit `d` moved by `step` (mod 2^32): every read of it moves its
    /// reader's local state by step times the read's window weight.
    void shift(std::size_t d, LocalStateId step) {
      const Reader* r = ring_->readers_.data() + ring_->reader_off_[d];
      const Reader* end = ring_->readers_.data() + ring_->reader_off_[d + 1];
      for (; r != end; ++r) local_[r->process] += step * r->weight;
    }

    const RingInstance* ring_;
    GlobalStateId s_;
    std::vector<Value> digits_;
    std::vector<LocalStateId> local_;
  };

  Cursor cursor(GlobalStateId start = 0) const { return Cursor(*this, start); }

 private:
  static constexpr std::uint8_t kLegit = 1;
  static constexpr std::uint8_t kEnabled = 2;

  /// One entry of the move table. The target of process i's move from s is
  /// s + pow_[i] · delta in wrapping unsigned arithmetic.
  struct Move {
    std::int16_t delta;  // new self value − old self value
    Value self;          // the new self value
  };
  /// One entry of the reader table: `process` reads the digit at window
  /// weight |D|^p.
  struct Reader {
    std::uint32_t process;
    LocalStateId weight;
  };

  /// Everything but the index and reader tables, which the caller fills:
  /// radix |D| for a ring, |D|-1 otherwise, the budget-checked place
  /// values, the window powers, the flag table and the move table.
  RingInstance(Protocol protocol, std::size_t size, bool ring,
               GlobalStateId max_states);

  /// Fill the reader table from the finished index table.
  void index_readers();

  /// The kernel body both for_each_target forms share; `local_of(i)` is
  /// process i's local state.
  template <typename LocalOf, typename F>
  bool walk_moves(GlobalStateId s, const LocalOf& local_of, F& f) const {
    for (std::size_t i = 0; i < k_; ++i) {
      const LocalStateId ls = local_of(i);
      const Move* m = moves_.data() + move_off_[ls];
      const Move* end = moves_.data() + move_off_[ls + 1];
      for (; m != end; ++m) {
        const auto delta =
            static_cast<GlobalStateId>(static_cast<std::int64_t>(m->delta));
        if (!f(s + pow_[i] * delta, i, m->self)) return false;
      }
    }
    return true;
  }

  Protocol protocol_;
  std::size_t k_;
  std::size_t d_;
  std::size_t radix_;  // values a process variable ranges over
  std::size_t window_;
  GlobalStateId num_states_;
  std::vector<GlobalStateId> pow_;
  std::vector<LocalStateId> lpow_;        // |D|^p over the window
  std::vector<std::uint32_t> widx_;       // widx_[i*window + p]: digit index
  std::vector<std::uint8_t> local_flags_; // kLegit | kEnabled per local state
  std::vector<std::uint32_t> move_off_;   // local state → its moves_ range
  std::vector<Move> moves_;
  std::vector<std::uint32_t> reader_off_; // digit d → its readers_ range
  std::vector<Reader> readers_;
};

/// A uniformly random in-tree shape on n nodes, as RingInstance::tree takes
/// it (each node's parent drawn from its predecessors).
std::vector<std::size_t> random_tree_shape(std::size_t n, std::uint64_t seed);

/// Recover the interleaving schedule along a path of global states
/// (consecutive states must differ in exactly one process's variable by a
/// δ_r transition). Throws ModelError if the path is not a computation.
Schedule schedule_from_path(const RingInstance& ring,
                            std::span<const GlobalStateId> path,
                            bool cyclic = false);

}  // namespace ringstab
