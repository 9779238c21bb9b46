#include "stream.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "core/parser.hpp"

namespace perfbench {

using ringstab::serve::Request;

std::vector<Request> build_catalogue(const std::string& rings_dir,
                                     std::uint64_t seed) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(rings_dir))
    if (entry.is_regular_file() && entry.path().extension() == ".ring")
      files.push_back(entry.path());
  if (files.empty())
    throw std::runtime_error("no .ring files in " + rings_dir);
  std::sort(files.begin(), files.end());

  std::vector<Request> cat;
  std::string herman;
  for (const auto& path : files) {
    Request base;
    base.source = ringstab::read_source_file(path.string());
    base.name = path.filename().string();
    if (base.name == "herman.ring") herman = base.source;
    for (const std::size_t k : {6, 8, 10}) {
      Request r = base;
      r.cmd = "check";
      r.k = k;
      cat.push_back(r);
    }
    Request lint = base;
    lint.cmd = "lint";
    cat.push_back(lint);
    Request analyze = base;
    analyze.cmd = "analyze";
    analyze.options.lint = true;
    cat.push_back(analyze);
    Request synth = base;
    synth.cmd = "synthesize";
    cat.push_back(synth);
  }
  if (herman.empty())
    throw std::runtime_error("herman.ring missing from " + rings_dir);
  for (const std::size_t k : {7, 11}) {
    Request sim;
    sim.cmd = "simulate";
    sim.source = herman;
    sim.name = "herman.ring";
    sim.k = k;
    sim.options.target = "one-token";
    sim.options.trajectories = 300;
    sim.options.sim_seed = mix64(seed ^ 0x73696d756c617465ull);  // "simulate"
    cat.push_back(sim);
  }
  return cat;
}

std::size_t distinct_keys(const std::vector<Request>& cat) {
  std::set<std::string> keys;
  for (const Request& r : cat) keys.insert(ringstab::serve::cache_key(r));
  return keys.size();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

ZipfStream::ZipfStream(std::size_t catalogue_size, std::uint64_t seed)
    : seed_(seed), cdf_(catalogue_size), by_rank_(catalogue_size) {
  double mass = 0;
  for (std::size_t r = 0; r < catalogue_size; ++r) {
    mass += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = mass;
  }
  for (double& c : cdf_) c /= mass;
  // Fixed popularity order: a Fisher-Yates shuffle under a constant key.
  for (std::size_t i = 0; i < catalogue_size; ++i) by_rank_[i] = i;
  for (std::size_t i = catalogue_size; i > 1; --i) {
    const std::size_t j = mix64(0x706f70756c6172ull + i) % i;  // "popular"
    std::swap(by_rank_[i - 1], by_rank_[j]);
  }
}

std::size_t ZipfStream::at(std::uint64_t i) const {
  const std::uint64_t bits = mix64(mix64(seed_) ^ i) >> 11;  // 53 bits
  const double u = static_cast<double>(bits) * 0x1.0p-53;
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t rank =
      std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  return by_rank_[rank];
}

}  // namespace perfbench
