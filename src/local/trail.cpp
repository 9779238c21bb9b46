#include "local/trail.hpp"

#include <algorithm>

#include "core/fmt.hpp"
#include "local/precedence.hpp"
#include "local/pseudo_livelock.hpp"

namespace ringstab {
namespace {

class TrailSearch {
 public:
  TrailSearch(const Ltg& ltg, const TrailQuery& q) : ltg_(ltg), q_(q) {
    const Protocol& p = ltg.protocol();
    allowed_t_.assign(p.delta().size(), q.t_arc_whitelist.empty());
    for (std::size_t idx : q.t_arc_whitelist) {
      RINGSTAB_ASSERT(idx < p.delta().size(), "t-arc index out of range");
      allowed_t_[idx] = true;
    }

    // Static prune (sound when condition 2 applies): a qualifying trail's
    // t-arc set is a union of projected value cycles, hence contained in
    // the maximal union-of-cycles subset of the allowed arcs — computed as
    // a fixpoint (dropping an arc can break other arcs' cycles).
    if (q.require_pseudo_livelock && !q.ablation_disable_cycle_prune) {
      bool changed = true;
      while (changed) {
        changed = false;
        std::vector<std::size_t> live;
        for (std::size_t i = 0; i < allowed_t_.size(); ++i)
          if (allowed_t_[i]) live.push_back(i);
        if (live.empty()) break;
        const WriteProjection proj(p, live);
        for (std::size_t i : live)
          if (!proj.on_value_cycle(i)) {
            allowed_t_[i] = false;
            changed = true;
          }
      }
    }

    enabled_.assign(p.num_states(), false);
    num_enabled_states_ = 0;
    for (std::size_t i = 0; i < p.delta().size(); ++i)
      if (allowed_t_[i]) enabled_[p.delta()[i].from] = true;
    for (bool b : enabled_)
      if (b) ++num_enabled_states_;
  }

  TrailSearchResult run() {
    TrailSearchResult res;
    const Protocol& p = ltg_.protocol();
    const std::size_t num_allowed = static_cast<std::size_t>(
        std::count(allowed_t_.begin(), allowed_t_.end(), true));
    if (num_allowed == 0) return res;  // no t-arcs → no trail

    // P t-arcs per round are distinct, so P ≤ |allowed t-arcs| is exhaustive.
    const int max_p = static_cast<int>(num_allowed);
    // |E|−1 s-arcs per round lie between enabled states, all distinct, so
    // |E| ≤ (#enabled · |D|) + 1 is exhaustive.
    const int max_e =
        static_cast<int>(num_enabled_states_ * p.domain().size()) + 1;
    res.max_enabled_used = max_e;
    res.max_propagation_used = max_p;

    used_t_.assign(p.delta().size(), false);
    used_s_.assign(ltg_.num_s_arc_ids(), false);
    budget_ = q_.node_budget;
    budget_hit_ = false;

    for (int e = 1; e <= max_e && !res.trail; ++e) {
      for (int pp = 1; pp <= max_p && !res.trail; ++pp) {
        e_ = e;
        p_ = pp;
        round_len_ = (e - 1) + 2 * pp;
        for (LocalStateId start = 0; start < p.num_states() && !res.trail;
             ++start) {
          if (!enabled_[start]) continue;
          start_ = start;
          steps_.clear();
          if (dfs(start, 0)) {
            ContiguousTrail trail;
            trail.num_enabled = e;
            trail.propagation = pp;
            trail.rounds =
                static_cast<int>(steps_.size()) / round_len_;
            trail.steps = steps_;
            res.trail = std::move(trail);
            res.status = TrailSearchStatus::kTrailFound;
          }
        }
      }
    }
    res.nodes_explored = q_.node_budget - budget_;
    if (!res.trail)
      res.status = budget_hit_ ? TrailSearchStatus::kInconclusive
                               : TrailSearchStatus::kNoTrail;
    return res;
  }

 private:
  // DFS over (current vertex, phase within round). Returns true when a
  // qualifying closed trail is stored in steps_.
  bool dfs(LocalStateId v, int phase) {
    if (budget_ == 0) {
      budget_hit_ = true;
      return false;
    }
    --budget_;

    if (phase == 0 && !steps_.empty() && v == start_ && qualifies()) {
      return true;
    }

    const Protocol& p = ltg_.protocol();
    const bool in_w1 = phase < e_ - 1;
    const bool t_phase = !in_w1 && ((phase - (e_ - 1)) % 2 == 0);
    const int next_phase = (phase + 1) % round_len_;

    if (t_phase) {
      for (const auto& t : p.transitions_from(v)) {
        const std::size_t idx = p.index_of(t);
        if (!allowed_t_[idx] || used_t_[idx]) continue;
        used_t_[idx] = true;
        steps_.push_back({true, v, t.to, idx});
        if (dfs(t.to, next_phase)) return true;
        steps_.pop_back();
        used_t_[idx] = false;
      }
    } else {
      // s-arc. Inside w1 the source must be an enabled state (it is part of
      // the contiguous segment of enablements).
      if (in_w1 && !enabled_[v]) return false;
      for (VertexId w : ltg_.s_arcs().out(v)) {
        // The w1 segment consists of enabled states; the state entering a
        // t-phase must be enabled too (enforced by t-arc availability).
        if (in_w1 && !enabled_[w]) continue;
        const std::size_t sid = ltg_.s_arc_id(v, w);
        if (used_s_[sid]) continue;
        used_s_[sid] = true;
        steps_.push_back({false, v, w, 0});
        if (dfs(w, next_phase)) return true;
        steps_.pop_back();
        used_s_[sid] = false;
      }
    }
    return false;
  }

  // Closure conditions of Theorem 5.14 on the candidate closed trail.
  bool qualifies() const {
    const Protocol& p = ltg_.protocol();
    // Lemma 5.12: every vertex of the w1 segment (a stalled enablement) has
    // an outgoing t-arc *in the trail* — in a contiguous livelock each
    // stalled enablement eventually propagates. Vertices at phases < |E|-1
    // are the w1 sources; the segment's last vertex fires the next t-arc by
    // construction.
    if (e_ > 1) {
      std::vector<bool> fires(p.num_states(), false);
      for (const auto& s : steps_)
        if (s.is_t) fires[s.from] = true;
      for (std::size_t i = 0; i < steps_.size(); ++i) {
        const int phase = static_cast<int>(i % static_cast<std::size_t>(round_len_));
        if (phase < e_ - 1 && !fires[steps_[i].from]) return false;
      }
    }
    if (q_.require_illegitimate) {
      const bool illegit =
          std::any_of(steps_.begin(), steps_.end(), [&](const TrailStep& s) {
            return !p.is_legit(s.from) || !p.is_legit(s.to);
          });
      if (!illegit) return false;
    }
    if (q_.require_pseudo_livelock) {
      std::vector<std::size_t> tarcs;
      for (const auto& s : steps_)
        if (s.is_t) tarcs.push_back(s.t_arc_index);
      std::sort(tarcs.begin(), tarcs.end());
      tarcs.erase(std::unique(tarcs.begin(), tarcs.end()), tarcs.end());
      if (!WriteProjection(p, tarcs).forms_pseudo_livelocks()) return false;
    }
    return true;
  }

  const Ltg& ltg_;
  const TrailQuery& q_;
  std::vector<bool> allowed_t_;
  std::vector<bool> enabled_;
  std::size_t num_enabled_states_ = 0;

  int e_ = 1, p_ = 1, round_len_ = 2;
  LocalStateId start_ = 0;
  std::vector<bool> used_t_, used_s_;
  std::vector<TrailStep> steps_;
  std::size_t budget_ = 0;
  bool budget_hit_ = false;
};

}  // namespace

std::optional<std::vector<Value>> ContiguousTrail::round_start_ring(
    const Protocol& p) const {
  const auto& space = p.space();
  const auto k = static_cast<std::size_t>(implied_ring_size());
  if (k < static_cast<std::size_t>(space.locality().window()) || k < 2)
    return std::nullopt;
  const int e = num_enabled;
  if (steps.size() < static_cast<std::size_t>((e - 1) + 2 * propagation))
    return std::nullopt;
  // The w1 vertex of segment process i: the first step's source, then the
  // targets of the w1 s-arcs.
  const auto w1 = [&](int i) {
    return i == 0 ? steps[0].from : steps[static_cast<std::size_t>(i - 1)].to;
  };
  // The w2 s-arc targets' windows after the write equal their round-start
  // windows except for the incoming x value, whose own variable is
  // unchanged, so only self() is taken.
  std::vector<Value> ring(k, 0);
  for (int i = 0; i < e; ++i)
    ring[static_cast<std::size_t>(i)] = space.self(w1(i));
  for (int j = 0; j < propagation; ++j)
    ring[static_cast<std::size_t>(e + j)] =
        space.self(steps[static_cast<std::size_t>((e - 1) + 2 * j + 1)].to);
  for (int i = 0; i < e; ++i)
    if (local_state_of(p, ring, static_cast<std::size_t>(i)) != w1(i))
      return std::nullopt;
  return ring;
}

std::string ContiguousTrail::to_string(const Protocol& p) const {
  const auto& space = p.space();
  std::ostringstream os;
  if (!steps.empty()) os << space.brief(steps.front().from);
  for (const auto& s : steps) {
    if (s.is_t)
      os << " —t#" << s.t_arc_index << "→ " << space.brief(s.to);
    else
      os << " ⇢ " << space.brief(s.to);
  }
  os << "  (|E|=" << num_enabled << ", P=" << propagation
     << ", K=" << implied_ring_size() << ", rounds=" << rounds << ")";
  return os.str();
}

TrailSearchResult find_contiguous_trail(const Ltg& ltg,
                                        const TrailQuery& query) {
  return TrailSearch(ltg, query).run();
}

}  // namespace ringstab
