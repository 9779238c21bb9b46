#!/usr/bin/env bash
# Tier-1 gate + sanitized builds.
#
#   scripts/check.sh            full: build, ctest, TSan test_parallel+test_obs
#                               +test_parallel_scc+test_symmetry
#                               +test_synthesis_parallel+test_serve
#                               +test_herman+the report's thread-count
#                               test, ASan
#                               test_checker+test_parallel_scc+test_symmetry
#                               +test_ring_instance+test_array+test_tree
#                               +test_graph+test_deadlock+test_lint
#                               +test_synthesis+test_array_synthesis + CLI
#                               parsing/synthesis/lint tests, UBSan
#                               core/local/analysis test binaries
#                               +test_checker+test_parallel_scc+test_symmetry
#                               +test_ring_instance+test_array+test_tree
#                               +test_graph+test_synthesis
#                               +test_array_synthesis
#   scripts/check.sh --fast     tier-1 only (skip the sanitizer builds)
#   scripts/check.sh --tsan     TSan stage only (the CI tsan job's recipe)
#
# Run from anywhere; builds land in <repo>/build, build-tsan, build-asan,
# build-ubsan.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
mode="${1:-full}"

if [[ "$mode" != "--tsan" ]]; then
  echo "== tier-1: configure + build =="
  cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build" -j "$jobs"

  echo "== tier-1: ctest =="
  ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

  if [[ "$mode" == "--fast" ]]; then
    echo "== OK (fast mode: sanitizer build skipped) =="
    exit 0
  fi
fi

echo "== TSan: build test_parallel + test_parallel_scc + test_symmetry + test_obs + test_synthesis_parallel + test_serve + test_herman + test_report =="
cmake -B "$repo/build-tsan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DRINGSTAB_SANITIZE=thread
cmake --build "$repo/build-tsan" -j "$jobs" \
      --target test_parallel test_parallel_scc test_symmetry test_obs \
               test_synthesis_parallel test_serve test_herman test_report

echo "== TSan: run =="
"$repo/build-tsan/tests/test_parallel"
# The checker's two parallel decode passes under both front-ends (full
# space and quotient): the zoo sweeps against the serial reference, at 1
# and 4 threads, drive the chunked census merges and the rank-space
# to_inv writes. The acyclic and Tarjan verdict passes after them are
# serial.
"$repo/build-tsan/tests/test_parallel_scc"
# The rotation quotient's two parallel passes over slot chunks, at 1 and 4
# threads: the census sets ¬I necklace bits with set_atomic, because a slot
# chunk's id range is not 64-aligned and neighbours may share a word; the
# graph pass writes rows and edges in place into chunk-private CSR slots,
# reads the popcount rank of the finished bitset, and sets rank-space
# to_inv bits with set_atomic.
"$repo/build-tsan/tests/test_symmetry"
"$repo/build-tsan/tests/test_obs"
# The zoo-wide bit-identity sweeps re-run full synthesis dozens of times and
# take minutes under TSan; the remaining tests drive every concurrent code
# path (portfolio lanes, memo shards, quota claims, nested regions) and are
# what TSan is here to watch.
"$repo/build-tsan/tests/test_synthesis_parallel" \
    --gtest_filter='-PortfolioSynthesis.LocalBitIdenticalAcrossThreadCounts:PortfolioSynthesis.MemoizationDoesNotChangeResults:PortfolioSynthesis.SharedSignaturesHitTheMemo'
# The serve daemon's concurrency: accept thread vs connection threads vs
# shutdown, the sharded verdict cache, and the sigwait watcher. The zoo
# bit-identity sweep re-runs every engine at every K and takes minutes
# under TSan; the remaining tests drive all the serve-side threading.
"$repo/build-tsan/tests/test_serve" --gtest_filter='-ServeZooHeavy.*'
# The Monte Carlo estimator's parallel_for: trajectories fan out over
# the pool and write trajectory-indexed result slots, which one thread
# folds in order. test_herman holds it to 1-vs-4-vs-7-lane bit identity;
# the report test runs the simulated-recovery section and the checker at
# 1 and 4 lanes.
"$repo/build-tsan/tests/test_herman"
"$repo/build-tsan/tests/test_report" \
    --gtest_filter='Report.IdenticalAtEveryThreadCount'

if [[ "$mode" == "--tsan" ]]; then
  echo "== OK (tsan mode: TSan stage only) =="
  exit 0
fi

echo "== ASan: build test_checker + test_parallel_scc + test_symmetry + instance tests + test_graph + test_deadlock + test_lint + test_synthesis + test_array_synthesis + CLI tools =="
cmake -B "$repo/build-asan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DRINGSTAB_SANITIZE=address
cmake --build "$repo/build-asan" -j "$jobs" \
      --target test_checker test_parallel_scc test_symmetry \
               test_ring_instance test_array test_tree test_graph \
               test_deadlock test_lint test_synthesis test_array_synthesis \
               ringstab_cli ringstab_batch

echo "== ASan: run =="
# The acyclic and Tarjan passes index the rank arrays from explicit stacks;
# these three drive both on both front-ends, on random graphs, and on a
# 2^20-rank chain and cycle.
"$repo/build-asan/tests/test_checker"
"$repo/build-asan/tests/test_parallel_scc"
"$repo/build-asan/tests/test_symmetry"
# Array and tree windows read the ⊥ slot, digit K of every K+1-long digit
# buffer; these three drive it through every entry point and the checker.
"$repo/build-asan/tests/test_ring_instance"
"$repo/build-asan/tests/test_array"
"$repo/build-asan/tests/test_tree"
# The Resolve-set search reads its memo's removal sets as spans of one
# growing arena and stamps its fewest-marked-cycle probe's visits in buffers
# reused across graphs; test_graph holds it to its reference on graphs of 2
# to 200,000 vertices, and test_synthesis drives it through the local and
# global synthesizers.
"$repo/build-asan/tests/test_graph"
"$repo/build-asan/tests/test_synthesis"
# The bad-cycle enumeration skips start vertices by a per-SCC table;
# test_deadlock and test_lint drive it on every protocol and lint fixture.
"$repo/build-asan/tests/test_deadlock"
"$repo/build-asan/tests/test_lint"
# The array synthesizer's Resolve-set BFS and its candidate odometer index
# per-state vectors; test_array_synthesis holds the BFS to the reference
# enumerator on the array protocols and 2,000 random arrays.
"$repo/build-asan/tests/test_array_synthesis"
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" \
      -R 'cli_(bad_k|negative_k|missing_flag_value|flag_value_flag|batch_missing_value|check_symmetry|batch_symmetry|bad_jobs|synth_alias|synthesize_jobs|synthesize_bad_jobs|batch_synth|lint|lint_json|lint_error|batch_lint)'

echo "== UBSan: build core/local/analysis + checker + quotient + instance + graph + synthesis test binaries =="
cmake -B "$repo/build-ubsan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DRINGSTAB_SANITIZE=undefined
cmake --build "$repo/build-ubsan" -j "$jobs" \
      --target test_domain test_local_state test_protocol test_parser \
               test_deadlock test_livelock test_lint test_checker \
               test_parallel_scc test_symmetry test_ring_instance test_array \
               test_tree test_graph test_synthesis test_array_synthesis

echo "== UBSan: run =="
# Recovery is disabled in the build, so any UB aborts the stage. The
# checker's acyclic and Tarjan passes index rank arrays from explicit
# stacks; test_checker and test_parallel_scc drive both. test_symmetry
# drives the rotation quotient: the rotation scan's digit indexing on rings
# up to K=100, the popcount rank and select over the ¬I necklace bitset's
# word prefix, and the census's bit writes from slot chunks whose id ranges
# are not 64-aligned. test_ring_instance, test_array and test_tree drive
# the array and tree index tables, whose out-of-range offsets read the ⊥
# slot. test_graph drives the Resolve-set search's memo arena and its
# probe's generation stamps, wrap included, on graphs of 2 to 200,000
# vertices; test_synthesis drives the search through both synthesizers.
# test_array_synthesis drives the array Resolve-set BFS and the candidate
# odometer's decode.
for t in test_domain test_local_state test_protocol test_parser \
         test_deadlock test_livelock test_lint test_checker \
         test_parallel_scc test_symmetry test_ring_instance test_array \
         test_tree test_graph test_synthesis test_array_synthesis; do
  "$repo/build-ubsan/tests/$t"
done

echo "== OK =="
