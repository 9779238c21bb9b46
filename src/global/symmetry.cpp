#include "global/symmetry.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/fmt.hpp"
#include "global/necklace.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace ringstab {
namespace {

constexpr std::uint32_t kInI = 0xffffffffu;

/// Dense view of the rotation quotient: necklaces in ascending canonical-id
/// order, split by I-membership, plus the ¬I graph over ni_ids ranks.
struct Quotient {
  std::vector<GlobalStateId> ni_ids;   // ¬I rank -> canonical id
  std::vector<GlobalStateId> inv_ids;  // necklaces in I
  NotInvariantGraph graph;
};

/// Chunk grain over the necklace prefix-slot space: a pure function of the
/// slot count so the chunk partition — and therefore any ascending-order
/// merge — is identical for every thread count.
std::uint64_t slot_grain(std::uint64_t slots) {
  return std::max<std::uint64_t>(1, slots / 1024);
}

struct CensusBuild {
  NecklaceCensus census;
  Quotient quotient;  // necklace ids filled only when `collect`
};

/// One pass of the parallel FKM enumeration: orbit-weighted deadlock census
/// and (optionally) the necklace ids split by I-membership, merged in
/// ascending slot order.
CensusBuild run_census(const RingInstance& ring, std::size_t max_samples,
                       std::size_t num_threads, bool collect) {
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

  struct Chunk {
    std::uint64_t necklaces = 0;
    std::uint64_t orbit_states = 0;
    std::uint64_t deadlocks = 0;
    std::vector<GlobalStateId> reps;
    std::vector<GlobalStateId> ni_ids, inv_ids;
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
    Chunk& t = tally[chunk.index];
    enumerator.visit_slots(chunk.begin, chunk.end,
                           [&](const Value* digits, GlobalStateId id,
                               std::uint32_t orbit) {
      // Fused rotation-invariant predicates off the canonical digits: stop
      // as soon as both are decided.
      bool in_inv = true, dead = true;
      for (std::size_t i = 0; i < k; ++i) {
        const LocalStateId ls = ring.local_state_from(digits, i);
        if (!ring.legit_local(ls)) in_inv = false;
        if (ring.enabled_local(ls)) dead = false;
        if (!in_inv && !dead) break;
      }
      ++t.necklaces;
      t.orbit_states += orbit;
      if (!in_inv && dead) {
        t.deadlocks += orbit;
        if (t.reps.size() < max_samples) t.reps.push_back(id);
      }
      if (collect) (in_inv ? t.inv_ids : t.ni_ids).push_back(id);
    });
    if (block_ns != nullptr) block_ns->record(obs::now() - t0);
  });

  CensusBuild out;
  Quotient& q = out.quotient;
  std::uint64_t nni = 0, ninv = 0;
  for (const Chunk& t : tally) {
    nni += t.ni_ids.size();
    ninv += t.inv_ids.size();
  }
  q.ni_ids.reserve(nni);
  q.inv_ids.reserve(ninv);
  for (const Chunk& t : tally) {
    out.census.num_necklaces += t.necklaces;
    out.census.orbit_states += t.orbit_states;
    out.census.num_deadlocks_outside_i += t.deadlocks;
    for (GlobalStateId id : t.reps)
      if (out.census.deadlock_orbit_reps.size() < max_samples)
        out.census.deadlock_orbit_reps.push_back(id);
    q.ni_ids.insert(q.ni_ids.end(), t.ni_ids.begin(), t.ni_ids.end());
    q.inv_ids.insert(q.inv_ids.end(), t.inv_ids.begin(), t.inv_ids.end());
  }
  RINGSTAB_ASSERT(out.census.orbit_states == ring.num_states(),
                  "necklace orbit sizes must partition |D|^K");
  obs::counter("symmetry.necklaces").add(out.census.num_necklaces);
  obs::counter("symmetry.orbit_states").add(out.census.orbit_states);
  obs::counter("symmetry.deadlocks_found")
      .add(out.census.num_deadlocks_outside_i);
  return out;
}

/// Builds q.graph: every ¬I necklace's successors canonicalized to ¬I
/// ranks, sorted and deduplicated per source, self-loops kept, edges into I
/// folded into to_inv. Checks closure on the I necklaces in the same pass
/// and returns the smallest one with a successor outside I.
std::optional<GlobalStateId> build_quotient_graph(const RingInstance& ring,
                                                  Quotient& q,
                                                  std::size_t num_threads) {
  const obs::Span span("symmetry.quotient_graph");
  const std::size_t k = ring.ring_size();
  const auto& space = ring.protocol().space();
  const std::span<const GlobalStateId> pow{ring.powers()};

  // A canonical successor's ¬I rank, or kInI for a necklace in I.
  auto locate = [&](GlobalStateId id) -> std::uint32_t {
    const auto it = std::lower_bound(q.ni_ids.begin(), q.ni_ids.end(), id);
    if (it != q.ni_ids.end() && *it == id)
      return static_cast<std::uint32_t>(it - q.ni_ids.begin());
    RINGSTAB_ASSERT(
        std::binary_search(q.inv_ids.begin(), q.inv_ids.end(), id),
        "canonicalized successor is not an enumerated necklace");
    return kInI;
  };
  // Located successors of necklace `id`, in successors() order.
  struct Scratch {
    std::vector<Value> digits;
    std::vector<RingInstance::Step> succ;
    std::vector<std::uint32_t> targets;
  };
  auto expand = [&](GlobalStateId id, Scratch& s) {
    ring.decode_into(id, s.digits);
    ring.successors_from(id, s.digits.data(), s.succ);
    s.targets.clear();
    for (const auto& step : s.succ) {
      const Value old_self = s.digits[step.process];
      s.digits[step.process] = space.self(step.transition.to);
      s.targets.push_back(
          locate(canonical_necklace_id(s.digits.data(), k, pow)));
      s.digits[step.process] = old_self;
    }
  };

  // Closure duty: only a chunk's first violation matters (the merge keeps
  // the lowest), so the chunk stops there.
  const std::uint64_t ninv = q.inv_ids.size();
  std::vector<std::optional<GlobalStateId>> bad(num_chunks(ninv, 0));
  parallel_for(ninv, num_threads, 0,
               [&](const ChunkRange& chunk, std::size_t) {
    Scratch s;
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
      expand(q.inv_ids[i], s);
      if (std::any_of(s.targets.begin(), s.targets.end(),
                      [](std::uint32_t t) { return t != kInI; })) {
        bad[chunk.index] = q.inv_ids[i];
        return;
      }
    }
  });

  const std::uint32_t nni = static_cast<std::uint32_t>(q.ni_ids.size());
  CsrGraph& csr = q.graph.csr;
  q.graph.to_inv.assign(nni);
  struct Chunk {
    std::vector<std::uint32_t> deg;  // per rank in the chunk
    std::vector<std::uint32_t> col;
  };
  std::vector<Chunk> built(num_chunks(nni, 0));
  // Chunks start on multiples of a 64-aligned grain, so each chunk's
  // to_inv bits live in chunk-private words: plain set() is race-free.
  parallel_for(nni, num_threads, 0, [&](const ChunkRange& chunk, std::size_t) {
    Chunk& c = built[chunk.index];
    c.deg.assign(chunk.end - chunk.begin, 0);
    Scratch s;
    for (std::uint64_t r = chunk.begin; r < chunk.end; ++r) {
      expand(q.ni_ids[r], s);
      std::sort(s.targets.begin(), s.targets.end());
      s.targets.erase(std::unique(s.targets.begin(), s.targets.end()),
                      s.targets.end());
      // kInI sorts last: drop it into to_inv.
      if (!s.targets.empty() && s.targets.back() == kInI) {
        q.graph.to_inv.set(r);
        s.targets.pop_back();
      }
      c.deg[r - chunk.begin] = static_cast<std::uint32_t>(s.targets.size());
      c.col.insert(c.col.end(), s.targets.begin(), s.targets.end());
    }
  });

  csr.row.assign(nni + 1, 0);
  std::uint64_t edges = 0;
  {
    std::uint64_t rank = 0;
    for (const Chunk& c : built)
      for (std::uint32_t d : c.deg) {
        csr.row[rank++] = edges;
        edges += d;
      }
    csr.row[nni] = edges;
  }
  csr.col.reserve(edges);
  for (const Chunk& c : built)
    csr.col.insert(csr.col.end(), c.col.begin(), c.col.end());
  obs::counter("symmetry.quotient_edges").add(edges);
  if (obs::enabled())
    obs::gauge("mem.csr_bytes")
        .set(csr.row.size() * sizeof(csr.row[0]) +
             csr.col.size() * sizeof(csr.col[0]));

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
    const RingInstance& ring, const Quotient& q,
    const std::vector<std::uint32_t>& cycle) {
  const std::size_t k = ring.ring_size();
  const std::span<const GlobalStateId> pow{ring.powers()};
  std::vector<GlobalStateId> path;
  std::unordered_map<GlobalStateId, std::size_t> seen_at_start;
  std::vector<RingInstance::Step> succ;
  std::vector<Value> digits;
  GlobalStateId x = q.ni_ids[cycle[0]];
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
      const GlobalStateId want = q.ni_ids[cycle[(i + 1) % cycle.size()]];
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
  return run_census(ring, max_samples, num_threads == 0 ? 1 : num_threads,
                    /*collect=*/false)
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

  CensusBuild build =
      run_census(ring, max_samples, num_threads, /*collect=*/true);
  res.num_necklaces = build.census.num_necklaces;
  res.num_deadlocks_outside_i = build.census.num_deadlocks_outside_i;
  res.deadlock_orbit_reps = std::move(build.census.deadlock_orbit_reps);

  Quotient& q = build.quotient;
  RINGSTAB_ASSERT(q.ni_ids.size() < kInI,
                  "quotient too large for 32-bit ranks");
  if (const auto source = build_quotient_graph(ring, q, num_threads)) {
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
  if (const auto acyclic = acyclic_verdict(q.graph)) {
    res.weakly_converges = acyclic->reaches_invariant;
    res.max_recovery_steps =
        res.strongly_converges() ? acyclic->recovery_steps : 0;
    return res;
  }
  const CyclicVerdict cyclic = cyclic_verdict(q.graph);
  res.weakly_converges = cyclic.reaches_invariant;
  if (const auto cycle = livelock_witness(q.graph, cyclic.scc)) {
    res.has_livelock = true;
    res.livelock_cycle = lift_quotient_cycle(ring, q, *cycle);
  }
  return res;
}

}  // namespace ringstab
