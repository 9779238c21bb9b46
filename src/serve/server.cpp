#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/types.hpp"
#include "obs/obs.hpp"
#include "serve/exec.hpp"

namespace ringstab::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw ModelError(what + ": " + std::strerror(errno));
}

/// Writes all of `data` to `fd`, retrying on EINTR / short writes.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Buffered line reader over a blocking fd. A request line can be large
/// (it carries the whole .ring source, escaped) so the buffer grows as
/// needed, up to kMaxRequestLineBytes; read_line returns false on EOF /
/// error with no complete line, and on a longer line (too_long()).
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', scan_);
      too_long_ = std::min(nl, buf_.size()) > kMaxRequestLineBytes;
      if (too_long_) return false;
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scan_ = 0;
        return true;
      }
      scan_ = buf_.size();
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // EOF (or SHUT_RD during drain)
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool too_long() const { return too_long_; }

 private:
  int fd_;
  std::string buf_;
  std::size_t scan_ = 0;
  bool too_long_ = false;
};

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      synth_memo_(std::make_shared<VerdictMemo>()) {}

Server::~Server() { stop(); }

void Server::start() {
  if (options_.socket_path.empty())
    throw ModelError("serve: socket path must not be empty");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof addr.sun_path)
    throw ModelError("serve: socket path too long (" +
                     std::to_string(options_.socket_path.size()) + " > " +
                     std::to_string(sizeof addr.sun_path - 1) +
                     " bytes): " + options_.socket_path);
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("serve: socket()");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    // Deliberately no unlink-and-retry: a file already at the path may be
    // a live daemon's socket. The operator decides what to remove.
    throw_errno("serve: bind(" + options_.socket_path + ")");
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    errno = saved;
    throw_errno("serve: listen(" + options_.socket_path + ")");
  }

  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // ECONNABORTED etc. are transient; everything else (EBADF/EINVAL
      // after stop() closed the socket) ends the loop.
      if (errno == ECONNABORTED) continue;
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    std::lock_guard lock(conns_mu_);
    reap_finished_locked();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conns_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { serve_connection(raw); });
  }
}

void Server::serve_connection(Connection* conn) {
  LineReader reader(conn->fd);
  std::string line;
  while (reader.read_line(line)) {
    if (line.empty()) continue;  // blank keep-alive lines are fine
    const Response resp = dispatch(line);
    // Counted before the reply leaves: a client that has read it and then
    // asks for stats must see it counted.
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) obs::counter("serve.requests").add(1);
    if (!write_all(conn->fd, encode_response(resp) + "\n")) break;
  }
  if (reader.too_long()) {
    // Refuse once and hang up: the rest of the line is never read.
    Response refusal;
    refusal.error = "request line longer than " +
                    std::to_string(kMaxRequestLineBytes) + " bytes";
    write_all(conn->fd, encode_response(refusal) + "\n");
  }
  ::close(conn->fd);
  conn->done.store(true, std::memory_order_release);
}

Response Server::dispatch(const std::string& line) {
  const obs::Ticks t0 = obs::enabled() ? obs::now() : 0;
  Response resp;
  try {
    const Request req = decode_request(line);
    if (req.cmd == "stats") {
      resp.ok = true;
      resp.has_stats = true;
      resp.stats = stats();
      return resp;
    }
    Request run = req;
    if (run.options.jobs == 1) run.options.jobs = options_.default_jobs;
    // The cache key is over the original request: `jobs` (and therefore
    // the daemon-side default) is not part of the identity.
    const std::string key = cache_key(req);
    if (auto cached = cache_.get(key)) {
      resp.ok = true;
      resp.cached = true;
      resp.exit_code = cached->exit_code;
      resp.output = std::move(cached->output);
    } else {
      ExecResult res = execute(run, synth_memo_);
      cache_.put(key, res);
      resp.ok = true;
      resp.exit_code = res.exit_code;
      resp.output = std::move(res.output);
    }
  } catch (const Error& e) {
    resp.ok = false;
    resp.error = e.what();
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = std::string("internal error: ") + e.what();
  }
  if (obs::enabled() && t0 != 0)
    obs::histogram("serve.request_ns").record(obs::now() - t0);
  return resp;
}

void Server::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;

  // 1. No new connections: closing the fd makes the blocked accept()
  //    return with an error and the loop exit.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  accept_thread_.join();
  listen_fd_ = -1;

  // 2. Drain: half-close every live connection's read side. A handler
  //    blocked in read() sees EOF and exits after writing the response to
  //    the request it is working on now.
  {
    std::lock_guard lock(conns_mu_);
    for (const auto& conn : conns_)
      if (!conn->done.load(std::memory_order_acquire))
        ::shutdown(conn->fd, SHUT_RD);
  }

  // 3. Join everything, then remove the rendezvous point.
  std::list<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) conn->thread.join();
  ::unlink(options_.socket_path.c_str());
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.cache_entries = cache_.size();
  s.cache_capacity = cache_.capacity();
  return s;
}

}  // namespace ringstab::serve
