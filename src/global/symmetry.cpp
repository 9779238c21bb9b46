#include "global/symmetry.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_map>

#include "core/fmt.hpp"
#include "global/necklace.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {
namespace {

constexpr std::uint32_t kInI = 0xffffffffu;

/// The ¬I necklaces as a subset of the canonical ids [0, |D|^K): one bit
/// per member plus a per-word popcount prefix, so a member's rank (its
/// index in ascending id order) is one prefix read and one popcount, as
/// GlobalChecker::rank_of reads its invariant mask, and select() maps a
/// rank back to its id.
class RankedNecklaces {
 public:
  explicit RankedNecklaces(GlobalStateId num_ids) : bits_(num_ids) {}

  /// Concurrent insert: census chunks cover id ranges that are not
  /// 64-aligned, so two chunks may share a word.
  void insert(GlobalStateId id) { bits_.set_atomic(id); }

  /// Fix the ranks once every member is in. Throws CapacityError past
  /// 32-bit ranks.
  void index() {
    word_rank_.assign(bits_.num_words() + 1, 0);
    std::uint64_t members = 0;
    for (std::uint64_t w = 0; w < bits_.num_words(); ++w) {
      members += static_cast<std::uint64_t>(std::popcount(bits_.word(w)));
      if (members >= kInI)
        throw CapacityError("rotation quotient: more than 2^32 necklaces "
                            "outside I");
      word_rank_[w + 1] = static_cast<std::uint32_t>(members);
    }
  }

  std::uint32_t size() const { return word_rank_.back(); }
  bool contains(GlobalStateId id) const { return bits_.test(id); }

  std::uint32_t rank(GlobalStateId id) const {
    const std::uint64_t below = (std::uint64_t{1} << (id & 63)) - 1;
    return word_rank_[id >> 6] +
           static_cast<std::uint32_t>(
               std::popcount(bits_.word(id >> 6) & below));
  }

  /// The member of rank r.
  GlobalStateId select(std::uint32_t r) const {
    return select_ranked(word_rank_, r,
                         [&](std::uint64_t w) { return bits_.word(w); });
  }

 private:
  PackedBitset bits_;
  std::vector<std::uint32_t> word_rank_;  // members in words [0, w)
};

/// Chunk grain over the necklace prefix-slot space: a pure function of the
/// slot count so the chunk partition — and therefore any ascending-order
/// merge — is identical for every thread count.
std::uint64_t slot_grain(std::uint64_t slots) {
  return std::max<std::uint64_t>(1, slots / 1024);
}

/// The census, and when collecting what the graph pass needs: the ranked
/// ¬I necklaces and, per slot chunk, where its ranks and its CSR edges
/// start (chunks + 1 entries each; the edge slots come from an upper bound
/// the census counts, so the graph pass writes the CSR in place).
struct CensusBuild {
  NecklaceCensus census;
  std::optional<RankedNecklaces> not_inv;
  std::vector<std::uint64_t> rank_base;
  std::vector<std::uint64_t> edge_base;
};

/// One pass of the parallel FKM enumeration: orbit-weighted deadlock census
/// and, when collecting, the ¬I necklace bitset with per-chunk rank and
/// edge bounds, merged in ascending slot order. A template parameter, so
/// the census alone compiles to the bare classification loop.
template <bool kCollect>
CensusBuild run_census(const RingInstance& ring, std::size_t max_samples,
                       std::size_t num_threads) {
  if (!ring.is_ring())
    throw ModelError(
        "the rotation quotient needs a ring: arrays and trees have no "
        "rotation symmetry");
  const obs::Span span("symmetry.necklace_census");
  const NecklaceEnumerator enumerator(ring.ring_size(), ring.domain_size());
  const std::uint64_t slots = enumerator.num_slots();
  const std::uint64_t grain = slot_grain(slots);
  const std::uint64_t chunks = num_chunks(slots, grain);
  const std::size_t k = ring.ring_size();
  const Protocol& protocol = ring.protocol();

  CensusBuild out;
  if constexpr (kCollect) out.not_inv.emplace(ring.num_states());
  struct Chunk {
    std::uint64_t necklaces = 0;
    std::uint64_t orbit_states = 0;
    std::uint64_t deadlocks = 0;
    std::vector<GlobalStateId> reps;
    std::uint64_t not_inv = 0;
    std::uint64_t edge_bound = 0;
  };
  std::vector<Chunk> tally(chunks);

  // Per-FKM-block census latency: the necklace enumerator's blocks are
  // uneven (prefix-dependent), so this distribution is the evidence for
  // the block-size heuristic in slot_grain().
  obs::Histogram* block_ns =
      obs::enabled() ? &obs::histogram("symmetry.block_ns") : nullptr;
  parallel_for(slots, num_threads, grain,
               [&](const ChunkRange& chunk, std::size_t) {
    const obs::Ticks t0 = block_ns != nullptr ? obs::now() : 0;
    // Tallied locally: neighbouring chunks run on other lanes, and their
    // slots in `tally` share cache lines.
    Chunk t;
    enumerator.visit_slots(chunk.begin, chunk.end,
                           [&](const Value* digits, GlobalStateId id,
                               std::uint32_t orbit) {
      // Fused rotation-invariant predicates off the canonical digits: stop
      // as soon as both are decided, except that collecting first counts
      // the moves of the first `orbit` processes. Processes i and i + orbit
      // read the same window and their moves land in the same necklace, so
      // those moves bound the necklace's distinct quotient edges.
      bool in_inv = true, dead = true;
      const auto classify = [&](LocalStateId ls) {
        if (!ring.legit_local(ls)) in_inv = false;
        if (ring.enabled_local(ls)) dead = false;
      };
      std::uint64_t moves = 0;
      std::size_t i = 0;
      if constexpr (kCollect)
        for (; i < orbit; ++i) {
          const LocalStateId ls = ring.local_state_from(digits, i);
          classify(ls);
          moves += protocol.transitions_from(ls).size();
        }
      for (; i < k && (in_inv || dead); ++i)
        classify(ring.local_state_from(digits, i));
      ++t.necklaces;
      t.orbit_states += orbit;
      if (!in_inv && dead) {
        t.deadlocks += orbit;
        if (t.reps.size() < max_samples) t.reps.push_back(id);
      }
      if constexpr (kCollect) {
        if (in_inv) return;
        out.not_inv->insert(id);
        ++t.not_inv;
        t.edge_bound += moves;
      }
    });
    tally[chunk.index] = std::move(t);
    if (block_ns != nullptr) block_ns->record(obs::now() - t0);
  });

  if constexpr (kCollect) {
    out.rank_base.assign(chunks + 1, 0);
    out.edge_base.assign(chunks + 1, 0);
  }
  for (std::uint64_t c = 0; c < chunks; ++c) {
    const Chunk& t = tally[c];
    out.census.num_necklaces += t.necklaces;
    out.census.orbit_states += t.orbit_states;
    out.census.num_deadlocks_outside_i += t.deadlocks;
    for (GlobalStateId id : t.reps)
      if (out.census.deadlock_orbit_reps.size() < max_samples)
        out.census.deadlock_orbit_reps.push_back(id);
    if constexpr (!kCollect) continue;
    out.rank_base[c + 1] = out.rank_base[c] + t.not_inv;
    out.edge_base[c + 1] = out.edge_base[c] + t.edge_bound;
  }
  RINGSTAB_ASSERT(out.census.orbit_states == ring.num_states(),
                  "necklace orbit sizes must partition |D|^K");
  if constexpr (kCollect) {
    out.not_inv->index();
    RINGSTAB_ASSERT(out.not_inv->size() == out.rank_base.back(),
                    "census rank bookkeeping out of sync");
    obs::counter("symmetry.edge_bound").add(out.edge_base.back());
  }
  obs::counter("symmetry.necklaces").add(out.census.num_necklaces);
  obs::counter("symmetry.orbit_states").add(out.census.orbit_states);
  obs::counter("symmetry.deadlocks_found")
      .add(out.census.num_deadlocks_outside_i);
  return out;
}

/// Builds the ¬I quotient graph: the census's slot chunks are enumerated
/// again, and every ¬I necklace's successors are canonicalized to ¬I
/// ranks, sorted and deduplicated per source, self-loops kept, edges into
/// I folded into to_inv. Each chunk writes its rows and edges in place,
/// from the slots the census bounded, and the gaps between chunks close in
/// chunk order afterwards. The I necklaces do the closure duty in the same
/// pass; returns the smallest one with a successor outside I.
std::optional<GlobalStateId> build_quotient_graph(const RingInstance& ring,
                                                  const CensusBuild& build,
                                                  NotInvariantGraph& graph,
                                                  std::size_t num_threads) {
  const obs::Span span("symmetry.quotient_graph");
  const std::size_t k = ring.ring_size();
  const auto& space = ring.protocol().space();
  const std::span<const GlobalStateId> pow{ring.powers()};
  const RankedNecklaces& not_inv = *build.not_inv;
  const NecklaceEnumerator enumerator(k, ring.domain_size());
  const std::uint64_t slots = enumerator.num_slots();
  const std::uint64_t chunks = build.rank_base.size() - 1;
  const std::uint64_t nni = build.rank_base.back();

  CsrGraph& csr = graph.csr;
  graph.to_inv.assign(nni);
  csr.row.assign(nni + 1, 0);
  csr.col.assign(build.edge_base.back(), 0);
  std::vector<std::uint64_t> used(chunks, 0);
  std::vector<std::optional<GlobalStateId>> bad(chunks);
  parallel_for(slots, num_threads, slot_grain(slots),
               [&](const ChunkRange& chunk, std::size_t) {
    std::vector<RingInstance::Step> succ;
    std::vector<std::uint32_t> targets;
    std::vector<Value> word(k);  // the necklace, one digit patched per move
    std::uint64_t r = build.rank_base[chunk.index];
    const std::uint64_t first = build.edge_base[chunk.index];
    const std::uint64_t last = build.edge_base[chunk.index + 1];
    std::uint64_t e = first;
    std::optional<GlobalStateId>& violation = bad[chunk.index];
    // The ¬I rank of successor `step` of the necklace in `word`, or kInI
    // for a successor outside the ¬I set, checked to lie in I.
    const auto rank_of = [&](const RingInstance::Step& step) {
      const Value old_self = word[step.process];
      word[step.process] = space.self(step.transition.to);
      const GlobalStateId to =
          canonical_necklace_id(step.target, word.data(), k, pow);
      std::uint32_t rank = kInI;
      if (not_inv.contains(to))
        rank = not_inv.rank(to);
      else
        for (std::size_t i = 0; i < k; ++i)
          RINGSTAB_ASSERT(
              ring.legit_local(ring.local_state_from(word.data(), i)),
              "canonicalized successor is not an enumerated necklace");
      word[step.process] = old_self;
      return rank;
    };
    enumerator.visit_slots(chunk.begin, chunk.end,
                           [&](const Value* digits, GlobalStateId id,
                               std::uint32_t) {
      const bool in_inv = !not_inv.contains(id);
      // Closure duty: only a chunk's first violation matters (the merge
      // keeps the lowest), so later I necklaces skip the expansion.
      if (in_inv && violation) return;
      std::copy(digits, digits + k, word.begin());
      ring.successors_from(id, digits, succ);
      if (in_inv) {
        for (const auto& step : succ)
          if (rank_of(step) != kInI) {
            violation = id;
            return;
          }
        return;
      }
      targets.clear();
      for (const auto& step : succ) targets.push_back(rank_of(step));
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      // kInI sorts last: drop it into to_inv. Rank ranges of slot chunks
      // are not 64-aligned, so neighbour chunks may share a to_inv word.
      if (!targets.empty() && targets.back() == kInI) {
        graph.to_inv.set_atomic(r);
        targets.pop_back();
      }
      RINGSTAB_ASSERT(e + targets.size() <= last,
                      "quotient edges exceed the census bound");
      csr.row[r++] = e;
      std::copy(targets.begin(), targets.end(), csr.col.begin() + e);
      e += targets.size();
    });
    used[chunk.index] = e - first;
  });

  // Close the gaps: each chunk's edges move down to follow the previous
  // chunk's, in chunk order (a chunk's new place can overlap the old place
  // of the chunk before it, never of one after it).
  std::uint64_t edges = 0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    const std::uint64_t from = build.edge_base[c];
    if (from != edges) {
      std::copy(csr.col.begin() + from, csr.col.begin() + from + used[c],
                csr.col.begin() + edges);
      for (std::uint64_t r = build.rank_base[c]; r < build.rank_base[c + 1];
           ++r)
        csr.row[r] -= from - edges;
    }
    edges += used[c];
  }
  csr.row[nni] = edges;
  csr.col.resize(edges);
  obs::counter("symmetry.quotient_edges").add(edges);
  if (obs::enabled())
    obs::gauge("mem.csr_bytes")
        .set(csr.row.size() * sizeof(csr.row[0]) +
             csr.col.capacity() * sizeof(csr.col[0]));

  for (const auto& source : bad)
    if (source) return source;
  return std::nullopt;
}

/// Lift a quotient cycle to a genuine full-space cycle: walk actual
/// transitions whose canonicalizations follow the quotient cycle. Each lap
/// returns to some rotation of the start; the walk through (state, lap
/// position 0) pairs must repeat within ord(rotation) ≤ K laps, and the
/// segment between the repeats is a real cycle, entirely outside I.
std::vector<GlobalStateId> lift_quotient_cycle(
    const RingInstance& ring, const RankedNecklaces& not_inv,
    const std::vector<std::uint32_t>& cycle) {
  const std::size_t k = ring.ring_size();
  const std::span<const GlobalStateId> pow{ring.powers()};
  std::vector<GlobalStateId> path;
  std::unordered_map<GlobalStateId, std::size_t> seen_at_start;
  std::vector<RingInstance::Step> succ;
  std::vector<Value> digits;
  GlobalStateId x = not_inv.select(cycle[0]);
  for (std::size_t lap = 0; lap <= k; ++lap) {
    const auto [it, fresh] = seen_at_start.emplace(x, path.size());
    if (!fresh) {
      std::vector<GlobalStateId> witness(path.begin() + it->second,
                                         path.end());
      obs::counter("symmetry.lift_steps").add(witness.size());
      return witness;
    }
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      path.push_back(x);
      const GlobalStateId want =
          not_inv.select(cycle[(i + 1) % cycle.size()]);
      ring.successors(x, succ);
      bool stepped = false;
      for (const auto& step : succ) {
        ring.decode_into(step.target, digits);
        if (canonical_necklace_id(digits.data(), k, pow) == want) {
          x = step.target;
          stepped = true;
          break;
        }
      }
      RINGSTAB_ASSERT(stepped, "quotient edge failed to lift");
    }
  }
  RINGSTAB_ASSERT(false, "quotient cycle lift did not close within K laps");
  return {};
}

}  // namespace

GlobalStateId canonical_rotation(const RingInstance& ring, GlobalStateId s) {
  const auto digits = ring.decode(s);
  return canonical_necklace_id(digits.data(), ring.ring_size(),
                               std::span<const GlobalStateId>{ring.powers()});
}

std::size_t rotation_orbit_size(const RingInstance& ring, GlobalStateId s) {
  const auto digits = ring.decode(s);
  return cyclic_period(digits.data(), ring.ring_size());
}

NecklaceCensus necklace_census(const RingInstance& ring,
                               std::size_t max_samples,
                               std::size_t num_threads) {
  return run_census<false>(ring, max_samples,
                           num_threads == 0 ? 1 : num_threads)
      .census;
}

SymmetricCheckResult check_symmetric(const RingInstance& ring,
                                     std::size_t max_samples,
                                     std::size_t num_threads) {
  const obs::Span span("symmetry.check");
  if (num_threads == 0) num_threads = 1;
  SymmetricCheckResult res;
  res.ring_size = ring.ring_size();
  res.num_states = ring.num_states();

  const CensusBuild build =
      run_census<true>(ring, max_samples, num_threads);
  res.num_necklaces = build.census.num_necklaces;
  res.num_deadlocks_outside_i = build.census.num_deadlocks_outside_i;
  res.deadlock_orbit_reps = build.census.deadlock_orbit_reps;

  NotInvariantGraph graph;
  if (const auto source =
          build_quotient_graph(ring, build, graph, num_threads)) {
    // Re-derive a concrete escaping transition from the canonical source.
    res.closure_ok = false;
    std::vector<RingInstance::Step> succ;
    ring.successors(*source, succ);
    for (const auto& step : succ)
      if (!ring.in_invariant(step.target)) {
        res.closure_violation = {*source, step.target};
        break;
      }
  }
  if (const auto acyclic = acyclic_verdict(graph)) {
    res.weakly_converges = acyclic->reaches_invariant;
    res.max_recovery_steps =
        res.strongly_converges() ? acyclic->recovery_steps : 0;
    return res;
  }
  const CyclicVerdict cyclic = cyclic_verdict(graph);
  res.weakly_converges = cyclic.reaches_invariant;
  if (const auto cycle = livelock_witness(graph, cyclic.scc)) {
    res.has_livelock = true;
    res.livelock_cycle = lift_quotient_cycle(ring, *build.not_inv, *cycle);
  }
  return res;
}

}  // namespace ringstab
