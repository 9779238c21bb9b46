#include "global/checker.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "core/fmt.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {
namespace {

constexpr std::uint32_t kUnvisited = 0xffffffffu;

}  // namespace

// ---------------------------------------------------------------------------
// GlobalChecker front-end: two decode passes build the NotInvariantGraph.
// ---------------------------------------------------------------------------

std::uint32_t GlobalChecker::rank_of(GlobalStateId s) const {
  const std::uint64_t w = s >> 6;
  const std::uint64_t below = (std::uint64_t{1} << (s & 63)) - 1;
  return static_cast<std::uint32_t>(
      word_rank_[w] +
      static_cast<std::uint64_t>(std::popcount(~inv_mask_.word(w) & below)));
}

GlobalStateId GlobalChecker::state_of(std::uint32_t rank) const {
  return select_ranked(word_rank_, rank,
                       [&](std::uint64_t w) { return ~inv_mask_.word(w); });
}

void GlobalChecker::ensure_masks() const {
  if (census_done_) return;
  const GlobalStateId n = ring_->num_states();
  const obs::Span span("checker.fused_census");
  obs::Counter& swept = obs::counter("checker.states_swept");
  PackedBitset mask(n);
  const std::uint64_t chunks = num_chunks(n, 0);
  std::vector<std::size_t> counts(chunks, 0);
  std::vector<std::vector<GlobalStateId>> found(chunks);
  // Chunks start on multiples of a 64-aligned grain, so each chunk's mask
  // bits live in chunk-private words: plain set() is race-free.
  parallel_for(n, num_threads_, 0, [&](const ChunkRange& chunk, std::size_t) {
    auto cur = ring_->cursor(chunk.begin);
    std::size_t count = 0;
    for (GlobalStateId s = chunk.begin; s < chunk.end; ++s, cur.advance()) {
      const std::uint8_t cls = cur.classify();
      if (cls & RingInstance::kClassInvariant) {
        mask.set(s);
      } else if (cls & RingInstance::kClassDeadlock) {
        ++count;
        if (found[chunk.index].size() < kMaxSamples)
          found[chunk.index].push_back(s);
      }
    }
    counts[chunk.index] = count;
    swept.add(chunk.end - chunk.begin);
  });
  deadlock_count_ = 0;
  deadlock_samples_.clear();
  for (std::uint64_t c = 0; c < chunks; ++c) {
    deadlock_count_ += counts[c];
    for (GlobalStateId s : found[c])
      if (deadlock_samples_.size() < kMaxSamples)
        deadlock_samples_.push_back(s);
  }
  if (obs::enabled())
    obs::counter("checker.invariant_states").add(mask.count());
  obs::counter("checker.deadlocks_found").add(deadlock_count_);
  inv_mask_ = std::move(mask);
  census_done_ = true;
}

void GlobalChecker::ensure_graph() const {
  if (graph_built_) return;
  ensure_masks();
  const GlobalStateId n = ring_->num_states();
  const obs::Span span("checker.graph_build");
  obs::Counter& swept = obs::counter("checker.states_swept");

  // Rank structure: word_rank_[w] = number of ¬I states in words [0, w), so
  // a successor's rank is one prefix read plus one popcount.
  const std::uint64_t words = inv_mask_.num_words();
  word_rank_.assign(words + 1, 0);
  for (std::uint64_t w = 0; w < words; ++w) {
    const std::uint64_t live = std::min<std::uint64_t>(64, n - w * 64);
    word_rank_[w + 1] =
        word_rank_[w] + live -
        static_cast<std::uint64_t>(std::popcount(inv_mask_.word(w)));
  }
  const std::uint64_t nni = words == 0 ? 0 : word_rank_[words];
  if (nni >> 32)
    throw CapacityError("fused engine: more than 2^32 states outside I");

  graph_.to_inv.assign(nni);
  const std::uint64_t chunks = num_chunks(n, 0);
  struct ChunkGraph {
    std::vector<std::uint32_t> deg;  // per ¬I state of the chunk, ascending
    std::vector<std::uint32_t> col;  // concatenated successor ranks
    std::optional<std::pair<GlobalStateId, GlobalStateId>> violation;
  };
  std::vector<ChunkGraph> part(chunks);
  parallel_for(n, num_threads_, 0, [&](const ChunkRange& chunk, std::size_t) {
    ChunkGraph& mine = part[chunk.index];
    auto cur = ring_->cursor(chunk.begin);
    // chunk.begin is a multiple of 64, so its rank is a word prefix.
    std::uint32_t r = static_cast<std::uint32_t>(word_rank_[chunk.begin >> 6]);
    for (GlobalStateId s = chunk.begin; s < chunk.end; ++s, cur.advance()) {
      if (inv_mask_.test(s)) {
        // Closure duty: only the chunk's first violation matters (the merge
        // below keeps the lowest), so later I-states skip the expansion.
        if (mine.violation) continue;
        cur.for_each_target([&](GlobalStateId to, std::size_t, Value) {
          if (inv_mask_.test(to)) return true;
          mine.violation = {s, to};
          return false;
        });
        continue;
      }
      std::uint32_t deg = 0;
      bool into_inv = false;
      cur.for_each_target([&](GlobalStateId to, std::size_t, Value) {
        if (inv_mask_.test(to)) {
          into_inv = true;
        } else {
          mine.col.push_back(rank_of(to));
          ++deg;
        }
        return true;
      });
      mine.deg.push_back(deg);
      // Rank-space bits are not chunk-word-aligned (chunks are 64-aligned
      // in *state* space), so neighbor chunks may share a to_inv word.
      if (into_inv) graph_.to_inv.set_atomic(r);
      ++r;
    }
    swept.add(chunk.end - chunk.begin);
  });

  closure_ok_ = true;
  closure_violation_.reset();
  for (std::uint64_t c = 0; c < chunks && closure_ok_; ++c)
    if (part[c].violation) {
      closure_ok_ = false;
      closure_violation_ = part[c].violation;
    }

  CsrGraph& csr = graph_.csr;
  csr.row.assign(nni + 1, 0);
  std::vector<std::uint64_t> edge_base(chunks, 0);
  std::uint64_t total_edges = 0;
  {
    std::uint64_t r = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      edge_base[c] = total_edges;
      for (const std::uint32_t d : part[c].deg) {
        csr.row[r + 1] = csr.row[r] + d;
        total_edges += d;
        ++r;
      }
    }
    RINGSTAB_ASSERT(r == nni, "rank bookkeeping out of sync");
  }
  csr.col.assign(total_edges, 0);
  parallel_for(chunks, num_threads_, 64,
               [&](const ChunkRange& ck, std::size_t) {
    for (std::uint64_t c = ck.begin; c < ck.end; ++c)
      std::copy(part[c].col.begin(), part[c].col.end(),
                csr.col.begin() + edge_base[c]);
  });
  obs::counter("checker.graph_edges").add(total_edges);
  if (obs::enabled())
    obs::gauge("mem.csr_bytes")
        .set(csr.row.size() * sizeof(csr.row[0]) +
             csr.col.size() * sizeof(csr.col[0]));
  graph_built_ = true;
}

void GlobalChecker::ensure_acyclic() const {
  if (acyclic_done_) return;
  ensure_graph();
  acyclic_ = acyclic_verdict(graph_);
  acyclic_done_ = true;
}

void GlobalChecker::ensure_cyclic() const {
  if (cyclic_done_) return;
  ensure_graph();
  cyclic_ = cyclic_verdict(graph_);
  cyclic_done_ = true;
}

// ---------------------------------------------------------------------------
// Shared verdict stages over a NotInvariantGraph.
// ---------------------------------------------------------------------------

std::optional<std::vector<std::uint32_t>> livelock_witness(
    const NotInvariantGraph& g, const SccLabels& scc) {
  // Canonical witness anchor: the smallest rank on any ¬I cycle.
  std::uint64_t start = kUnvisited;
  for (std::uint64_t w = 0; w < scc.nontrivial.num_words(); ++w) {
    const std::uint64_t word = scc.nontrivial.word(w) | scc.self_loop.word(w);
    if (word) {
      start = w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
      break;
    }
  }
  if (start == kUnvisited) return std::nullopt;
  return extract_component_cycle(g.csr, scc,
                                 static_cast<std::uint32_t>(start));
}

std::optional<AcyclicVerdict> acyclic_verdict(const NotInvariantGraph& g) {
  const CsrGraph& csr = g.csr;
  const std::uint64_t nni = g.to_inv.size();
  const obs::Span span("checker.acyclic_verdict");
  constexpr std::uint32_t kOpen = 0xfffffffeu;  // on the DFS stack
  // depth[r] is kUnvisited, kOpen, or r's longest path into I once closed.
  std::vector<std::uint32_t> depth(nni, kUnvisited);
  struct Frame {
    std::uint32_t rank;
    std::uint32_t depth;  // running max over the successors seen so far
    std::uint64_t edge;   // next CSR edge to follow
  };
  std::vector<Frame> stack;
  AcyclicVerdict out;
  obs::Counter& closed_ctr = obs::counter("checker.acyclic_ranks");
  std::uint64_t closed = 0;
  const auto open = [&](std::uint32_t r) {
    depth[r] = kOpen;
    stack.push_back({r, g.to_inv.test(r) ? 1u : 0u, csr.row[r]});
  };
  for (std::uint32_t root = 0; root < nni; ++root) {
    if (depth[root] != kUnvisited) continue;
    open(root);
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.edge < csr.row[top.rank + 1]) {
        const std::uint32_t s = csr.col[top.edge++];
        if (depth[s] == kOpen) {  // back edge: s is on the current path
          closed_ctr.add(closed);
          return std::nullopt;
        }
        if (depth[s] == kUnvisited)
          open(s);
        else
          top.depth = std::max(top.depth, 1 + depth[s]);
        continue;
      }
      const Frame done = top;
      stack.pop_back();
      depth[done.rank] = done.depth;
      ++closed;
      // Depth 0: no edge into I and no successor, a ¬I deadlock.
      if (done.depth == 0) out.reaches_invariant = false;
      out.recovery_steps =
          std::max<std::size_t>(out.recovery_steps, done.depth);
      if (!stack.empty())
        stack.back().depth = std::max(stack.back().depth, 1 + done.depth);
    }
  }
  closed_ctr.add(closed);
  return out;
}

CyclicVerdict cyclic_verdict(const NotInvariantGraph& g) {
  const CsrGraph& csr = g.csr;
  const std::uint32_t n = csr.num_vertices();
  const obs::Span span("checker.cyclic_verdict");
  obs::Histogram& sizes = obs::histogram("scc.region_size");
  CyclicVerdict out;
  SccLabels& scc = out.scc;
  // A rank is unvisited (index kUnvisited), on the Tarjan stack (indexed,
  // component still kUnvisited), or popped (component holds its label).
  scc.component.assign(n, kUnvisited);
  scc.nontrivial.assign(n);
  scc.self_loop.assign(n);
  std::vector<std::uint32_t> index(n, kUnvisited), low(n, 0);
  // reach[r] while r is on the stack: r steps into I or into a popped
  // component that reaches I. Once r's component pops: that component's
  // reach-I verdict, for every member.
  PackedBitset reach = g.to_inv;
  std::vector<std::uint32_t> stack;
  struct Frame {
    std::uint32_t rank;
    std::uint64_t edge;  // next CSR edge to follow
  };
  std::vector<Frame> call;
  std::uint32_t next_index = 0;
  const auto open = [&](std::uint32_t r) {
    index[r] = low[r] = next_index++;
    stack.push_back(r);
    call.push_back({r, csr.row[r]});
  };
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    open(root);
    while (!call.empty()) {
      Frame& top = call.back();
      const std::uint32_t v = top.rank;
      if (top.edge < csr.row[v + 1]) {
        const std::uint32_t w = csr.col[top.edge++];
        if (index[w] == kUnvisited) {
          open(w);
        } else if (scc.component[w] == kUnvisited) {  // on the stack
          low[v] = std::min(low[v], index[w]);
          if (w == v) scc.self_loop.set(v);
        } else if (reach.test(w)) {
          reach.set(v);
        }
        continue;
      }
      call.pop_back();
      if (low[v] == index[v]) {
        // v roots a component: the stack from v upward. Every component it
        // points to popped earlier, so its reach-I verdict is final here.
        std::size_t base = stack.size();
        std::uint32_t label = v;
        bool reaches = false;
        do {
          label = std::min(label, stack[--base]);
          reaches = reaches || reach.test(stack[base]);
        } while (stack[base] != v);
        const std::size_t size = stack.size() - base;
        for (std::size_t i = base; i < stack.size(); ++i) {
          scc.component[stack[i]] = label;
          reach.set(stack[i], reaches);
          if (size > 1) scc.nontrivial.set(stack[i]);
        }
        stack.resize(base);
        ++scc.num_components;
        out.reaches_invariant = out.reaches_invariant && reaches;
        sizes.record(size);
      }
      if (!call.empty()) {
        const std::uint32_t parent = call.back().rank;
        low[parent] = std::min(low[parent], low[v]);
        if (reach.test(v)) reach.set(parent);
      }
    }
  }
  return out;
}

std::vector<std::uint32_t> extract_component_cycle(const CsrGraph& g,
                                                   const SccLabels& scc,
                                                   std::uint32_t start) {
  if (scc.self_loop.test(start)) return {start};
  RINGSTAB_ASSERT(scc.nontrivial.test(start), "start is not on a cycle");
  const std::uint32_t comp = scc.component[start];
  std::unordered_map<std::uint32_t, std::uint32_t> parent;
  std::vector<std::uint32_t> stack{start};
  parent.emplace(start, start);
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e) {
      const std::uint32_t w = g.col[e];
      if (scc.component[w] != comp) continue;
      if (w == start) {
        std::vector<std::uint32_t> cyc{start};
        for (std::uint32_t x = v; x != start; x = parent.at(x))
          cyc.push_back(x);
        std::reverse(cyc.begin() + 1, cyc.end());
        return cyc;
      }
      if (!parent.emplace(w, v).second) continue;
      stack.push_back(w);
    }
  }
  RINGSTAB_ASSERT(false, "nontrivial SCC without a cycle through its root");
  return {};
}

// ---------------------------------------------------------------------------
// Public interface: each query runs the passes it needs, then a shared stage.
// ---------------------------------------------------------------------------

const PackedBitset& GlobalChecker::invariant_mask() const {
  ensure_masks();
  return inv_mask_;
}

std::size_t GlobalChecker::count_deadlocks_outside_invariant(
    std::vector<GlobalStateId>* samples, std::size_t max_samples) const {
  ensure_masks();
  if (samples)
    for (GlobalStateId s : deadlock_samples_)
      if (samples->size() < max_samples) samples->push_back(s);
  return deadlock_count_;
}

std::optional<std::vector<GlobalStateId>> GlobalChecker::find_livelock()
    const {
  ensure_acyclic();
  if (acyclic_) return std::nullopt;
  ensure_cyclic();
  const auto ranks = livelock_witness(graph_, cyclic_.scc);
  if (!ranks) return std::nullopt;
  std::vector<GlobalStateId> cycle;
  cycle.reserve(ranks->size());
  for (const std::uint32_t r : *ranks) cycle.push_back(state_of(r));
  return cycle;
}

std::vector<GlobalStateId> GlobalChecker::livelock_states() const {
  ensure_acyclic();
  if (acyclic_) return {};
  ensure_cyclic();
  const SccLabels& scc = cyclic_.scc;
  // Walk the ¬I states in order, ranks alongside.
  const GlobalStateId n = ring_->num_states();
  std::vector<GlobalStateId> out;
  std::uint32_t r = 0;
  for (GlobalStateId base = 0; base < n; base += 64) {
    std::uint64_t word = ~inv_mask_.word(base >> 6);
    if (n - base < 64) word &= (std::uint64_t{1} << (n - base)) - 1;
    for (; word != 0; word &= word - 1, ++r)
      if (scc.on_cycle(r))
        out.push_back(base +
                      static_cast<GlobalStateId>(std::countr_zero(word)));
  }
  return out;
}

bool GlobalChecker::check_closure(
    std::optional<std::pair<GlobalStateId, GlobalStateId>>* violation) const {
  ensure_graph();
  if (!closure_ok_ && violation) *violation = *closure_violation_;
  return closure_ok_;
}

bool GlobalChecker::check_weak_convergence() const {
  ensure_acyclic();
  if (acyclic_) return acyclic_->reaches_invariant;
  ensure_cyclic();
  return cyclic_.reaches_invariant;
}

std::size_t GlobalChecker::max_recovery_steps() const {
  ensure_acyclic();
  if (!acyclic_) throw ModelError("cycle outside I: not strongly converging");
  if (!acyclic_->reaches_invariant)
    throw ModelError("deadlock outside I: not strongly converging");
  return acyclic_->recovery_steps;
}

GlobalCheckResult GlobalChecker::check_all() const {
  const obs::Span span("checker.check_all");
  GlobalCheckResult res;
  res.ring_size = ring_->ring_size();
  res.num_states = ring_->num_states();
  res.num_deadlocks_outside_i =
      count_deadlocks_outside_invariant(&res.deadlock_samples);
  auto cycle = find_livelock();
  res.has_livelock = cycle.has_value();
  if (cycle) res.livelock_cycle = std::move(*cycle);
  res.closure_ok = check_closure(&res.closure_violation);
  res.weakly_converges = check_weak_convergence();
  if (res.strongly_converges()) res.max_recovery_steps = max_recovery_steps();
  return res;
}

bool strongly_stabilizing(const RingInstance& ring, std::size_t num_threads) {
  const GlobalChecker checker(ring, num_threads);
  if (!checker.check_closure()) return false;
  if (checker.count_deadlocks_outside_invariant() > 0) return false;
  return !checker.find_livelock().has_value();
}

bool terminates(const RingInstance& inst, std::size_t num_threads) {
  const RingInstance never_legit = inst.without_invariant();
  return !GlobalChecker(never_legit, num_threads).find_livelock().has_value();
}

}  // namespace ringstab
