// The serve-mix request catalogue and its seeded Zipf request stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/exec.hpp"

namespace perfbench {

/// Verdict-cache capacity of the serve-mix daemon: 3 entries in each of the
/// cache's 16 shards. Below the catalogue's distinct keys, so LRU evictions
/// and recomputation are part of the traffic (the self-test checks the
/// inequality). With 2 per shard the p99 sat on the edge between the ~10 ms
/// and ~25 ms K=10 checks and jumped between them from run to run.
inline constexpr std::size_t kServeCacheCapacity = 48;

/// One request per (ring file, command) of the catalogue: `check` at
/// K in {6, 8, 10}, `lint`, `analyze` with lint, and `synthesize` for every
/// examples/rings/*.ring in name order, then `simulate` of herman.ring at
/// K in {7, 11} (target one-token, PRNG seed derived from `seed`).
/// Throws if the directory holds no .ring file or herman.ring is missing.
std::vector<ringstab::serve::Request> build_catalogue(
    const std::string& rings_dir, std::uint64_t seed);

/// Number of distinct serve::cache_key values in the catalogue.
std::size_t distinct_keys(const std::vector<ringstab::serve::Request>& cat);

/// SplitMix64 finalizer: a fixed bijective mix of 64-bit values.
std::uint64_t mix64(std::uint64_t x);

/// Zipf(s = 1) over catalogue positions. Popularity ranks follow a fixed
/// permutation of the catalogue (independent of the workload seed), so the
/// head of the distribution holds a mix of commands rather than the first
/// file's requests; the seed drives only the draws.
class ZipfStream {
 public:
  ZipfStream(std::size_t catalogue_size, std::uint64_t seed);
  /// Catalogue index of request number i of the stream: a pure function of
  /// (catalogue size, seed, i), so any prefix is reproducible.
  std::size_t at(std::uint64_t i) const;
  std::size_t size() const { return by_rank_.size(); }

 private:
  std::uint64_t seed_;
  std::vector<double> cdf_;          // cumulative Zipf mass by rank
  std::vector<std::size_t> by_rank_;  // rank -> catalogue index
};

}  // namespace perfbench
