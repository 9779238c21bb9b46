#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "obs/obs.hpp"

namespace ringstab {
namespace {

// True while this thread is executing a lane of some ThreadPool::run. A
// nested run() from inside a lane (e.g. a parallel synthesizer candidate
// evaluation calling a parallel checker) must not wait on the pool — the
// workers it would wait for are the ones already busy running it — so
// nested regions degrade to inline execution instead of deadlocking.
thread_local bool t_inside_pool_run = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this](std::stop_token stop) { worker_loop(stop); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    for (auto& w : workers_) w.request_stop();
  }
  work_cv_.notify_all();
  // jthread joins on destruction.
}

void ThreadPool::worker_loop(std::stop_token stop) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* job = nullptr;
    std::size_t lane = 0;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop.stop_requested() || generation_ != seen;
      });
      if (stop.stop_requested()) return;
      seen = generation_;
      // Lanes go to workers in the order they wake (see the header).
      if (next_lane_ == job_lanes_) continue;  // every lane is taken
      lane = next_lane_++;
      job = job_;
    }
    try {
      t_inside_pool_run = true;
      (*job)(lane);
      t_inside_pool_run = false;
    } catch (...) {
      t_inside_pool_run = false;
      std::lock_guard lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    std::lock_guard lock(mu_);
    if (--active_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run(std::size_t lanes,
                     const std::function<void(std::size_t)>& job) {
  lanes = std::clamp<std::size_t>(lanes, 1, num_threads());
  if (lanes == 1 || t_inside_pool_run) {
    job(0);
    return;
  }
  struct RunScope {  // clears the reentrancy flag on every exit path
    ~RunScope() { t_inside_pool_run = false; }
  } run_scope;
  t_inside_pool_run = true;
  {
    std::lock_guard lock(mu_);
    job_ = &job;
    job_lanes_ = lanes;
    next_lane_ = 1;
    active_ = lanes - 1;
    first_error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  std::exception_ptr caller_error;
  try {
    job(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  job_ = nullptr;
  if (caller_error) std::rethrow_exception(caller_error);
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(resolve_threads(0));
  return pool;
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(2u, hw);
}

std::uint64_t default_grain(std::uint64_t n) {
  // Aim for plenty of chunks on any realistic machine while keeping each
  // chunk big enough that claiming it is noise. 64-alignment keeps packed
  // bitset words chunk-private.
  std::uint64_t g = std::max<std::uint64_t>(n / 256, 4096);
  return (g + 63) & ~std::uint64_t{63};
}

std::uint64_t num_chunks(std::uint64_t n, std::uint64_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = default_grain(n);
  return (n + grain - 1) / grain;
}

void parallel_for(
    std::uint64_t n, std::size_t num_threads, std::uint64_t grain,
    const std::function<void(const ChunkRange&, std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = default_grain(n);
  const std::uint64_t chunks = num_chunks(n, grain);
  auto chunk_at = [&](std::uint64_t c) {
    return ChunkRange{c, c * grain, std::min(n, (c + 1) * grain)};
  };
  // When observability is on, each chunk becomes one span on the lane that
  // ran it, labelled with the caller's innermost phase name — trace sinks
  // render the sweep as one track per lane. The label is read on
  // the calling thread before dispatch (span stacks are thread-local).
  const bool traced = obs::enabled();
  const char* region = traced ? obs::current_span_name() : nullptr;
  if (region == nullptr) region = "parallel_for";
  // Per-chunk sweep latency distribution (p99 chunk time is the load-balance
  // health metric). Timing-shaped, so NOT thread-count-invariant.
  obs::Histogram* chunk_ns = traced ? &obs::histogram("pool.chunk_ns") : nullptr;
  if (num_threads <= 1 || chunks == 1) {
    for (std::uint64_t c = 0; c < chunks; ++c) {
      if (traced) {
        const obs::Ticks t0 = obs::now();
        {
          obs::Span span(region, /*chunk=*/true);
          body(chunk_at(c), 0);
        }
        chunk_ns->record(obs::now() - t0);
      } else {
        body(chunk_at(c), 0);
      }
    }
    return;
  }
  std::atomic<std::uint64_t> next{0};
  ThreadPool::shared().run(num_threads, [&](std::size_t lane) {
    obs::LaneScope lane_scope(static_cast<std::uint32_t>(lane));
    while (true) {
      const std::uint64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      if (traced) {
        const obs::Ticks t0 = obs::now();
        {
          obs::Span span(region, /*chunk=*/true);
          body(chunk_at(c), lane);
        }
        chunk_ns->record(obs::now() - t0);
      } else {
        body(chunk_at(c), lane);
      }
    }
  });
}

}  // namespace ringstab
