// The ringstab-serve daemon core: a Unix-domain-socket JSONL server that
// answers check/lint/synthesize/analyze requests out of a warm exact-key
// verdict cache (docs/serve.md).
//
// Threading model: one accept-loop thread; one thread per connection
// (clients are few — a batch run, a CI job — and each connection pipelines
// many requests); heavy per-request work fans out through the engines'
// own `jobs` parallelism on the shared pool. Finished connection threads
// are reaped opportunistically by the accept loop and joined en masse by
// stop().
//
// Shutdown contract (graceful drain):
//   1. stop() closes the listening socket — no new connections.
//   2. Each live connection gets shutdown(fd, SHUT_RD): a blocked read
//      returns 0 ("client went away") while the write side stays open, so
//      the request in flight completes and its response is delivered.
//   3. stop() joins every connection thread, then unlinks the socket path.
// Observability (serve.request_ns, serve.cache_hits, …) is flushed by the
// caller's Session, not by the server itself.
#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/cache.hpp"
#include "serve/wire.hpp"
#include "synthesis/portfolio.hpp"

namespace ringstab::serve {

/// Longest request line (newline excluded) a connection may send: a longer
/// one gets one ok:false response naming the limit, then the connection
/// closes, so no client can grow the daemon's buffer without bound.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct ServerOptions {
  std::string socket_path;          // required; unlinked on stop()
  std::size_t cache_capacity = 1024;  // verdict-cache entries (0 disables)
  std::size_t default_jobs = 1;     // jobs when a request doesn't say
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Stops and joins everything (idempotent with stop()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens on `socket_path` and starts the accept loop. Throws
  /// ModelError (with errno text) if the socket can't be created — e.g. a
  /// stale file at the path that isn't ours, or a path over the
  /// sockaddr_un limit.
  void start();

  /// Graceful drain per the contract above. Safe to call from any thread
  /// (the ShutdownWatcher callback calls it); idempotent.
  void stop();

  /// Live daemon counters (exact: atomics + cache internals).
  ServerStats stats() const;

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection* conn);
  /// Handles one decoded request line; never throws.
  Response dispatch(const std::string& line);
  void reap_finished_locked();  // requires conns_mu_

  ServerOptions options_;
  VerdictCache cache_;
  std::shared_ptr<VerdictMemo> synth_memo_;  // shared across analyze reqs

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  mutable std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;

  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace ringstab::serve
