#include "helpers.hpp"

#include "core/fmt.hpp"
#include "protocols/agreement.hpp"
#include "protocols/coloring.hpp"
#include "protocols/matching.hpp"
#include "protocols/misc.hpp"
#include "protocols/sum_not_two.hpp"

namespace ringstab::testing {

std::vector<Protocol> protocol_zoo() {
  std::vector<Protocol> zoo;
  zoo.push_back(protocols::matching_skeleton());
  zoo.push_back(protocols::matching_generalizable());
  zoo.push_back(protocols::matching_nongeneralizable());
  zoo.push_back(protocols::matching_nongeneralizable_fixed());
  zoo.push_back(protocols::matching_gouda_acharya_fragment());
  zoo.push_back(protocols::agreement_empty());
  zoo.push_back(protocols::agreement_both());
  zoo.push_back(protocols::agreement_one_sided(true));
  zoo.push_back(protocols::agreement_one_sided(false));
  zoo.push_back(protocols::agreement_max(3));
  zoo.push_back(protocols::coloring_empty(2));
  zoo.push_back(protocols::coloring_empty(3));
  zoo.push_back(protocols::three_coloring_rotation());
  zoo.push_back(protocols::sum_not_two_empty());
  zoo.push_back(protocols::sum_not_two_solution());
  zoo.push_back(protocols::sum_not_two_rotation(true));
  zoo.push_back(protocols::sum_not_two_rotation(false));
  zoo.push_back(protocols::no_adjacent_ones_empty());
  zoo.push_back(protocols::no_adjacent_ones_solution());
  zoo.push_back(protocols::alternator_empty());
  return zoo;
}

Protocol random_protocol(std::mt19937_64& rng,
                         const RandomProtocolOptions& opts) {
  std::uniform_int_distribution<std::size_t> dsize(2, opts.max_domain);
  const std::size_t d = dsize(rng);
  Locality loc{1, 0};
  if (opts.allow_bidirectional && (rng() & 1)) loc = Locality{1, 1};
  const LocalStateSpace space(Domain::range(d), loc);

  std::bernoulli_distribution legit_coin(opts.legit_density);
  std::vector<bool> legit(space.size(), false);
  // Ensure at least one legit and one illegitimate state.
  while (true) {
    std::size_t count = 0;
    for (std::size_t s = 0; s < space.size(); ++s) {
      legit[s] = legit_coin(rng);
      if (legit[s]) ++count;
    }
    if (count > 0 && count < space.size()) break;
  }

  std::bernoulli_distribution fire(opts.transition_density);
  std::uniform_int_distribution<std::size_t> pick_value(0, d - 1);
  std::vector<LocalTransition> delta;
  // Keep the protocol self-disabling by construction: only illegitimate
  // states fire, and targets are chosen arbitrarily but the final pass
  // reroutes enabled targets (mirrors the paper's Assumption 2 setting).
  for (LocalStateId s = 0; s < space.size(); ++s) {
    if (legit[s]) continue;
    if (!fire(rng)) continue;
    Value v = static_cast<Value>(pick_value(rng));
    if (v == space.self(s)) v = static_cast<Value>((v + 1) % d);
    delta.push_back({s, space.with_self(s, v)});
  }
  // Reroute transitions whose target is itself a source (enabled).
  std::vector<bool> is_source(space.size(), false);
  for (const auto& t : delta) is_source[t.from] = true;
  for (auto& t : delta) {
    int guard = 0;
    while (is_source[t.to] && guard++ < 8) {
      const Value v =
          static_cast<Value>((space.self(t.to) + 1) % d);
      const LocalStateId cand = space.with_self(t.from, v);
      if (cand == t.from) break;
      t.to = cand;
    }
  }
  delta.erase(std::remove_if(delta.begin(), delta.end(),
                             [&](const LocalTransition& t) {
                               return is_source[t.to] || t.from == t.to;
                             }),
              delta.end());
  static int counter = 0;
  return Protocol(cat("random", counter++), space, std::move(delta),
                  std::move(legit));
}

Protocol random_array_protocol(std::mt19937_64& rng,
                               const RandomArrayOptions& opts) {
  const std::size_t real = 2 + rng() % (opts.max_real - 1);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < real; ++i) names.push_back(std::to_string(i));
  names.push_back("B");
  const LocalStateSpace space(Domain::named(names),
                              opts.bidirectional ? Locality{1, 1}
                                                 : Locality{1, 0});
  const Value bot = static_cast<Value>(real);

  std::vector<bool> legit(space.size());
  for (LocalStateId s = 0; s < space.size(); ++s) legit[s] = rng() & 1;

  std::vector<LocalTransition> delta;
  std::bernoulli_distribution fire(0.35);
  for (LocalStateId s = 0; s < space.size(); ++s) {
    if (space.self(s) == bot) continue;
    if (legit[s] || !fire(rng)) continue;
    Value v = static_cast<Value>(rng() % real);
    if (v == space.self(s)) v = static_cast<Value>((v + 1) % real);
    delta.push_back({s, space.with_self(s, v)});
  }
  if (opts.self_disabling) {
    std::vector<bool> is_source(space.size(), false);
    for (const auto& t : delta) is_source[t.from] = true;
    delta.erase(std::remove_if(delta.begin(), delta.end(),
                               [&](const LocalTransition& t) {
                                 return is_source[t.to];
                               }),
                delta.end());
  }
  static int counter = 0;
  return Protocol("rand_array" + std::to_string(counter++), space,
                  std::move(delta), std::move(legit));
}

bool global_has_deadlock(const Protocol& p, std::size_t k) {
  const RingInstance ring(p, k);
  return GlobalChecker(ring).count_deadlocks_outside_invariant() > 0;
}

bool global_has_livelock(const Protocol& p, std::size_t k) {
  const RingInstance ring(p, k);
  return GlobalChecker(ring).find_livelock().has_value();
}

}  // namespace ringstab::testing
