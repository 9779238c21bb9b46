#include "synthesis/portfolio.hpp"

#include <algorithm>
#include <utility>

#include "core/protocol.hpp"

namespace ringstab {

std::string memo_key_npl(const Protocol& p) {
  std::vector<std::pair<Value, Value>> pairs;
  pairs.reserve(p.delta().size());
  for (const LocalTransition& t : p.delta())
    pairs.emplace_back(p.space().self(t.from), p.space().self(t.to));
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::string key;
  key.reserve(1 + 8 * 2 + 2 * pairs.size());
  key.push_back('N');
  memo_append_u64(key, p.domain().size());
  memo_append_u64(key, pairs.size());
  for (const auto& [a, b] : pairs) {
    key.push_back(static_cast<char>(a));
    key.push_back(static_cast<char>(b));
  }
  return key;
}

std::string memo_key_protocol(char kind, const Protocol& p) {
  std::string key;
  key.reserve(1 + 8 * 4 + p.num_states() / 8 + 8 * p.delta().size());
  key.push_back(kind);
  memo_append_u64(key, p.num_states());
  memo_append_u64(key, p.domain().size());
  memo_append_u32(key, static_cast<std::uint32_t>(p.locality().left));
  memo_append_u32(key, static_cast<std::uint32_t>(p.locality().right));
  memo_append_bits(key, p.legit_mask());
  memo_append_u64(key, p.delta().size());
  for (const LocalTransition& t : p.delta()) {
    memo_append_u32(key, t.from);
    memo_append_u32(key, t.to);
  }
  return key;
}

void memo_append_query(std::string& key, const TrailQuery& query) {
  memo_append_u64(key, query.t_arc_whitelist.size());
  for (std::size_t idx : query.t_arc_whitelist) memo_append_u64(key, idx);
  key.push_back(query.require_illegitimate ? 1 : 0);
  key.push_back(query.require_pseudo_livelock ? 1 : 0);
  memo_append_u64(key, query.node_budget);
  key.push_back(query.ablation_disable_cycle_prune ? 1 : 0);
}

}  // namespace ringstab
