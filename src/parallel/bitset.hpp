// Packed uint64 bitset shared by the serial and parallel global engines.
//
// std::vector<bool> is bit-packed too, but gives no access to the words
// (needed to skip 64 states at a time in rank scans), no popcount, and
// no atomic writes. PackedBitset exposes all three; writers that cannot
// guarantee word-private chunks use set_atomic() (relaxed fetch_or —
// publication happens at the parallel region join, never through the bits).
//
// Memory telemetry: while observability is enabled, every bitset keeps the
// `mem.bitset_bytes` gauge in sync with its word storage (allocation-
// grained — assign/copy/destroy, never per-bit), so the run manifest
// reports the live and peak bitset footprint of a sweep. With observability
// off the accounting path is one relaxed load; bitsets allocated while
// disabled are simply not counted.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/obs.hpp"

namespace ringstab {

class PackedBitset {
 public:
  PackedBitset() = default;
  explicit PackedBitset(std::uint64_t size, bool value = false) {
    assign(size, value);
  }
  PackedBitset(const PackedBitset& other)
      : size_(other.size_), words_(other.words_) {
    account();
  }
  PackedBitset(PackedBitset&& other) noexcept
      : size_(other.size_),
        words_(std::move(other.words_)),
        reported_(other.reported_) {
    other.size_ = 0;
    other.words_.clear();
    other.reported_ = 0;
  }
  PackedBitset& operator=(const PackedBitset& other) {
    if (this != &other) {
      size_ = other.size_;
      words_ = other.words_;
      account();
    }
    return *this;
  }
  PackedBitset& operator=(PackedBitset&& other) noexcept {
    if (this != &other) {
      release();
      size_ = other.size_;
      words_ = std::move(other.words_);
      reported_ = other.reported_;
      other.size_ = 0;
      other.words_.clear();
      other.reported_ = 0;
    }
    return *this;
  }
  ~PackedBitset() { release(); }

  void assign(std::uint64_t size, bool value = false) {
    size_ = size;
    words_.assign((size + 63) / 64, value ? ~std::uint64_t{0} : 0);
    trim();
    account();
  }

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool test(std::uint64_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void set(std::uint64_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::uint64_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void set(std::uint64_t i, bool value) {
    if (value) set(i); else reset(i);
  }

  /// Concurrent set; safe against writers of the same word. Relaxed order:
  /// the bits carry no inter-thread ordering of their own.
  void set_atomic(std::uint64_t i) {
    std::atomic_ref<std::uint64_t> w(words_[i >> 6]);
    w.fetch_or(std::uint64_t{1} << (i & 63), std::memory_order_relaxed);
  }

  /// Number of set bits.
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
  }

  bool all() const { return count() == size_; }
  bool none() const {
    for (std::uint64_t w : words_)
      if (w != 0) return false;
    return true;
  }

  /// Raw word access for sweeps that skip 64 states at a time.
  std::span<const std::uint64_t> words() const { return words_; }
  std::uint64_t word(std::uint64_t w) const { return words_[w]; }
  std::uint64_t num_words() const { return words_.size(); }

  /// Compares contents only — never the telemetry bookkeeping, so two
  /// equal bitsets compare equal regardless of when observability was on.
  bool operator==(const PackedBitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

 private:
  void trim() {
    // Keep bits past size() zero so count()/operator== stay exact.
    if (size_ & 63 && !words_.empty())
      words_.back() &= (std::uint64_t{1} << (size_ & 63)) - 1;
  }

  static obs::Gauge& live_bytes_gauge() {
    // The registry reference is process-lifetime; one lookup ever.
    static obs::Gauge& g = obs::gauge("mem.bitset_bytes");
    return g;
  }

  /// Reconciles the gauge with the current word storage. Enabled: report
  /// the live byte count. Disabled: withdraw whatever this bitset had
  /// reported (keeps the gauge balanced across enable/disable toggles).
  void account() {
    const bool on = obs::enabled();
    if (reported_ == 0 && !on) return;  // the off fast path: one load
    const std::uint64_t target =
        on ? words_.size() * sizeof(std::uint64_t) : 0;
    if (target == reported_) return;
    if (target > reported_)
      live_bytes_gauge().add(target - reported_);
    else
      live_bytes_gauge().sub(reported_ - target);
    reported_ = target;
  }

  void release() {
    if (reported_ == 0) return;
    live_bytes_gauge().sub(reported_);
    reported_ = 0;
  }

  std::uint64_t size_ = 0;
  std::vector<std::uint64_t> words_;
  std::uint64_t reported_ = 0;  // bytes currently counted in the gauge
};

/// Select over a ranked bit set: `prefix[w]` counts the members in words
/// [0, w) (words + 1 entries) and `word(w)` yields word w's member bits.
/// The position of the member of rank r < prefix.back(): the word whose
/// prefix brackets r, then the (r - prefix[w])-th set bit inside it. Bits
/// past the last member of a word are never read, so `word` may leave the
/// tail of the final word unmasked.
template <typename Prefix, typename WordFn>
std::uint64_t select_ranked(const std::vector<Prefix>& prefix,
                            std::uint64_t r, const WordFn& word) {
  const auto w = static_cast<std::uint64_t>(
      std::upper_bound(prefix.begin(), prefix.end(), r) - prefix.begin() - 1);
  std::uint64_t bits = word(w);
  for (std::uint64_t skip = r - prefix[w]; skip > 0; --skip) bits &= bits - 1;
  return w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
}

}  // namespace ringstab
