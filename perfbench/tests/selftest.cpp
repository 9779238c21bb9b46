// perfbench's own tests: the seeded request stream, the catalogue against
// the daemon's cache capacity, and the percentile reporting rule.
//
//   perfbench_selftest <checkout root>
//
// Exits 0 when every check holds; prints each failure and exits 1 otherwise.
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/wire.hpp"
#include "stream.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<std::string> encoded_stream(const std::string& rings,
                                        std::uint64_t seed, std::size_t n) {
  const auto cat = perfbench::build_catalogue(rings, seed);
  const perfbench::ZipfStream stream(cat.size(), seed);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(ringstab::serve::encode_request(cat[stream.at(i)]));
  return out;
}

void test_seed_fixes_the_stream(const std::string& rings) {
  for (const std::uint64_t seed : {1u, 2u, 12345u}) {
    check(encoded_stream(rings, seed, 5000) ==
              encoded_stream(rings, seed, 5000),
          "seed " + std::to_string(seed) + " reproduces its request stream");
  }
  check(encoded_stream(rings, 1, 5000) != encoded_stream(rings, 2, 5000),
        "different seeds give different streams");
  // Zipf(1): the most popular catalogue entry is drawn most often.
  const perfbench::ZipfStream stream(62, 9);
  std::vector<std::size_t> hits(62, 0);
  for (std::uint64_t i = 0; i < 100000; ++i) ++hits[stream.at(i)];
  std::size_t top = 0;
  for (std::size_t i = 1; i < hits.size(); ++i)
    if (hits[i] > hits[top]) top = i;
  check(hits[top] > 100000 / 6 && hits[top] < 100000 / 4,
        "the Zipf(1) head over 62 entries draws ~21% of requests");
}

void test_catalogue_exceeds_cache(const std::string& rings) {
  const auto cat = perfbench::build_catalogue(rings, 1);
  const std::size_t keys = perfbench::distinct_keys(cat);
  check(keys == cat.size(), "catalogue requests have distinct cache keys");
  check(keys > perfbench::kServeCacheCapacity,
        "catalogue keys (" + std::to_string(keys) +
            ") exceed the cache capacity (" +
            std::to_string(perfbench::kServeCacheCapacity) + ")");
}

void test_percentile_rule() {
  using perfbench::kMinBeyond;
  for (std::size_t n = 1; n <= 2500; ++n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    const perfbench::Percentile p = perfbench::tail_percentile(v);
    const std::string at = " (n=" + std::to_string(n) + ")";
    check(p.samples == n, "sample count reported" + at);
    if (n >= 2 * kMinBeyond) {
      check(p.beyond >= kMinBeyond, "reported rank has 10 samples beyond" + at);
      // Only the highest qualifying rank is reported.
      for (const double q : {0.99, 0.9})
        if (q > p.q)
          check(perfbench::samples_beyond(n, q) < kMinBeyond,
                "a higher qualifying rank was skipped" + at);
    } else {
      check(p.q == 0.5 && p.value == perfbench::median(v),
            "too few samples fall back to the median" + at);
    }
    std::size_t above = 0;
    for (const double x : v) above += x > p.value;
    if (p.q > 0.5) check(above == p.beyond, "beyond counts samples above" + at);
  }
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  const perfbench::Percentile p99 = perfbench::tail_percentile(v);
  check(p99.q == 0.99 && p99.value == 990 && p99.beyond == 10,
        "p99 of 1..1000 is 990 with 10 samples beyond");
  v.pop_back();
  check(perfbench::tail_percentile(v).q == 0.9,
        "999 samples report p90, not p99");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_selftest <checkout root>\n";
    return 2;
  }
  const std::string rings = std::string(argv[1]) + "/examples/rings";
  test_seed_fixes_the_stream(rings);
  test_catalogue_exceeds_cache(rings);
  test_percentile_rule();
  std::cout << (failures == 0 ? "perfbench selftest: ok\n"
                              : "perfbench selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}
