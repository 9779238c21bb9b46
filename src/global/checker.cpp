#include "global/checker.hpp"

#include <algorithm>
#include <bit>

#include "core/fmt.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {
namespace {

constexpr std::uint32_t kUnvisited = 0xffffffffu;

/// All 8 words of the 64-byte tile starting at word `w` fully set?
inline bool tile_full(const PackedBitset& bs, std::uint64_t w) {
  std::uint64_t acc = ~std::uint64_t{0};
  for (std::uint64_t i = 0; i < 8; ++i) acc &= bs.word(w + i);
  return acc == ~std::uint64_t{0};
}

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
  ni_ids_.assign(nni, 0);
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
    std::vector<RingInstance::Step> succ;
    // chunk.begin is a multiple of 64, so its rank is a word prefix.
    std::uint32_t r = static_cast<std::uint32_t>(word_rank_[chunk.begin >> 6]);
    for (GlobalStateId s = chunk.begin; s < chunk.end; ++s, cur.advance()) {
      if (inv_mask_.test(s)) {
        // Closure duty: only the chunk's first violation matters (the merge
        // below keeps the lowest), so later I-states skip the expansion.
        if (mine.violation) continue;
        cur.successors(succ);
        for (const auto& step : succ)
          if (!inv_mask_.test(step.target)) {
            mine.violation = {s, step.target};
            break;
          }
        continue;
      }
      cur.successors(succ);
      std::uint32_t deg = 0;
      bool into_inv = false;
      for (const auto& step : succ) {
        if (inv_mask_.test(step.target)) {
          into_inv = true;
          continue;
        }
        mine.col.push_back(rank_of(step.target));
        ++deg;
      }
      mine.deg.push_back(deg);
      // Rank-space bits are not chunk-word-aligned (chunks are 64-aligned
      // in *state* space), so neighbor chunks may share a to_inv word.
      if (into_inv) graph_.to_inv.set_atomic(r);
      ni_ids_[r] = s;
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

void GlobalChecker::ensure_scc() const {
  if (scc_done_) return;
  ensure_graph();
  scc_ = livelock_scc(graph_, num_threads_);
  scc_done_ = true;
}


// ---------------------------------------------------------------------------
// Shared verdict stages over a NotInvariantGraph.
// ---------------------------------------------------------------------------

ParallelSccResult livelock_scc(const NotInvariantGraph& g,
                               std::size_t num_threads) {
  const obs::Span span("checker.livelock_scc");
  return parallel_scc(g.csr, num_threads);
}

std::optional<std::vector<std::uint32_t>> livelock_witness(
    const NotInvariantGraph& g, const ParallelSccResult& scc) {
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

bool all_reach_invariant(const NotInvariantGraph& g,
                         std::size_t num_threads) {
  const CsrGraph& csr = g.csr;
  const PackedBitset& to_inv = g.to_inv;
  const std::uint64_t nni = to_inv.size();
  const obs::Span span("checker.weak_convergence");
  obs::Counter& rounds = obs::counter("checker.fixpoint_rounds");
  obs::Counter& frontier = obs::counter("checker.frontier_states");
  // Backward fixpoint in rank space, as synchronous (Jacobi) rounds over
  // the CSR: to_inv acts as a constant edge into the (already reaching)
  // invariant, so the per-round growth — and the round count — matches a
  // full-space sweep from I exactly.
  PackedBitset reaches(nni);
  PackedBitset next(nni);
  const std::uint64_t chunks = num_chunks(nni, 0);
  std::vector<std::uint8_t> chunk_changed(chunks, 0);
  while (true) {
    rounds.add(1);
    next = reaches;
    std::fill(chunk_changed.begin(), chunk_changed.end(), 0);
    parallel_for(nni, num_threads, 0,
                 [&](const ChunkRange& chunk, std::size_t) {
      bool changed = false;
      std::uint64_t grew = 0;
      const std::uint64_t w1 = (chunk.end + 63) >> 6;
      for (std::uint64_t w = chunk.begin >> 6; w < w1;) {
        // 64-byte tiling: skip 8 fully-settled words at a time, then
        // whole words, so late rounds touch only the live frontier.
        if ((w & 7) == 0 && w + 8 <= w1 && tile_full(reaches, w)) {
          w += 8;
          continue;
        }
        std::uint64_t todo = ~reaches.word(w);
        const std::uint64_t base = w * 64;
        ++w;
        while (todo) {
          const std::uint64_t r =
              base + static_cast<std::uint64_t>(std::countr_zero(todo));
          todo &= todo - 1;
          if (r >= chunk.end) break;
          bool hit = to_inv.test(r);
          for (std::uint64_t e = csr.row[r]; !hit && e < csr.row[r + 1]; ++e)
            hit = reaches.test(csr.col[e]);
          if (hit) {
            next.set(r);
            changed = true;
            ++grew;
          }
        }
      }
      chunk_changed[chunk.index] = changed;
      frontier.add(grew);
    });
    if (std::find(chunk_changed.begin(), chunk_changed.end(), 1) ==
        chunk_changed.end())
      break;
    std::swap(reaches, next);
  }
  return reaches.count() == nni;
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
  ensure_scc();
  const auto ranks = livelock_witness(graph_, scc_);
  if (!ranks) return std::nullopt;
  std::vector<GlobalStateId> cycle;
  cycle.reserve(ranks->size());
  for (const std::uint32_t r : *ranks) cycle.push_back(ni_ids_[r]);
  return cycle;
}

std::vector<GlobalStateId> GlobalChecker::livelock_states() const {
  ensure_acyclic();
  if (acyclic_) return {};
  ensure_scc();
  std::vector<GlobalStateId> out;
  for (std::uint64_t w = 0; w < scc_.nontrivial.num_words(); ++w) {
    std::uint64_t word = scc_.nontrivial.word(w) | scc_.self_loop.word(w);
    while (word) {
      const std::uint64_t r =
          w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
      word &= word - 1;
      out.push_back(ni_ids_[r]);
    }
  }
  return out;  // ni_ids_ is ascending, so the result is sorted
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
  return all_reach_invariant(graph_, num_threads_);
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

}  // namespace ringstab
