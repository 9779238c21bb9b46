// Fixed thread pool and deterministic chunked parallel_for for the
// explicit-state sweeps of the global engine.
//
// Design notes:
//  * One process-wide pool (ThreadPool::shared()), sized to the hardware,
//    created lazily on the first parallel region and reused by every caller
//    — checkers, symmetry reduction, simulator batches. Callers limit the
//    *effective* parallelism per call with a `num_threads` knob instead of
//    constructing pools of their own.
//  * parallel_for splits [0, n) into fixed chunks whose boundaries depend
//    only on (n, grain) — never on the thread count — so per-chunk partial
//    results can be merged in ascending chunk order to reproduce the serial
//    left-to-right answer bit-for-bit. Workers claim chunk indices from an
//    atomic cursor (dynamic load balancing over a deterministic partition).
//  * Grains are rounded up to a multiple of 64 so chunks never share a
//    word of a packed bitset; chunk-local bitset writes need no atomics.
//  * num_threads <= 1 (or a single chunk) runs inline on the caller with no
//    pool, no atomics, and no thread creation: the serial default is the
//    seed engine's behavior exactly.
//  * A job's lanes go to the first workers that wake for it, not to fixed
//    workers: a job narrower than the pool does not wait on one worker
//    whose CPU is busy or slow to wake while another worker is free.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ringstab {

/// A fixed set of std::jthread workers that block between parallel regions.
class ThreadPool {
 public:
  /// `num_threads` includes the calling thread: N-1 workers are spawned.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes available (workers + the calling thread).
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Run job(lane) on `lanes` lanes (lane 0 is the calling thread) and
  /// block until all return. The first exception thrown by any lane is
  /// rethrown on the caller. Reentrancy-safe: a run() issued from inside a
  /// lane of an outer run() executes job(0) inline on that lane (the pool's
  /// workers are already occupied by the outer region), so nested parallel
  /// regions — a parallel synthesizer candidate invoking a parallel checker
  /// — degrade to serial instead of deadlocking.
  void run(std::size_t lanes, const std::function<void(std::size_t)>& job);

  /// The process-wide pool, sized to std::thread::hardware_concurrency()
  /// (at least 2 lanes), created on first use.
  static ThreadPool& shared();

 private:
  void worker_loop(std::stop_token stop);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_lanes_ = 0;       // lanes participating in the current job
  std::size_t next_lane_ = 0;       // the lane the next waking worker takes
  std::uint64_t generation_ = 0;    // bumped per run() to wake workers
  std::size_t active_ = 0;          // workers still inside the current job
  std::exception_ptr first_error_;
  std::vector<std::jthread> workers_;
};

/// One deterministic chunk of a parallel_for: states [begin, end).
struct ChunkRange {
  std::uint64_t index = 0;  // ascending chunk number, 0-based
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Clamp a requested thread count: 0 means "all hardware lanes".
std::size_t resolve_threads(std::size_t requested);

/// Chunk size used by parallel_for when `grain` is 0: large enough to
/// amortize dispatch, small enough for load balancing, and always a
/// multiple of 64 (see header comment). Deliberately independent of
/// `num_threads` so the chunk partition — and therefore any per-chunk
/// merge — is reproducible across thread counts.
std::uint64_t default_grain(std::uint64_t n);

/// Number of chunks parallel_for will produce for (n, grain); use to size
/// per-chunk result slots before the sweep.
std::uint64_t num_chunks(std::uint64_t n, std::uint64_t grain);

/// Chunked parallel loop over [0, n). `body` is invoked once per chunk with
/// the lane that runs it (lane < num_threads). With num_threads <= 1 the
/// chunks run in ascending order on the calling thread.
void parallel_for(std::uint64_t n, std::size_t num_threads,
                  std::uint64_t grain,
                  const std::function<void(const ChunkRange&, std::size_t)>& body);

}  // namespace ringstab
