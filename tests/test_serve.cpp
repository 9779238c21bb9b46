// ringstab-serve: wire framing, the exact-key verdict cache, daemon/client
// round trips, and the byte-identity contract — a request answered by the
// daemon (cold or cached) produces exactly the bytes the local CLI path
// produces, across the shipped .ring zoo (docs/serve.md).
//
// Also covers the silent-failure fixes that ride with the daemon PR:
// bench artifact writes that report failure, FileSink mid-run write
// failures surfacing through Session::finish(), and the
// `"interrupted": true` manifest stamp.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "../bench/bench_util.hpp"
#include "core/parser.hpp"
#include "core/types.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics_json.hpp"
#include "obs/obs.hpp"
#include "obs/session.hpp"
#include "obs/sinks.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/exec.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace ringstab::serve {
namespace {

std::string socket_path(const char* tag) {
  // cwd-relative: ctest's working directory is short, sockaddr_un is not.
  return std::string("test_serve_") + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

std::vector<std::filesystem::path> zoo_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(RINGSTAB_RINGS))
    if (entry.path().extension() == ".ring") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  EXPECT_FALSE(files.empty());
  return files;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ── wire framing ──

TEST(ServeWire, RequestRoundTripsIncludingControlCharacters) {
  Request req;
  req.cmd = "check";
  req.source = "line1\nline2\t\"quoted\\\"\n";  // newlines must be escaped
  req.name = "zoo/x.ring";
  req.k = 7;
  req.options.jobs = 4;
  req.options.symmetry = true;
  req.options.check_k = 5;
  const std::string line = encode_request(req);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "a frame must never contain a raw newline";
  const Request back = decode_request(line);
  EXPECT_EQ(back.cmd, req.cmd);
  EXPECT_EQ(back.source, req.source);
  EXPECT_EQ(back.name, req.name);
  EXPECT_EQ(back.k, req.k);
  EXPECT_EQ(back.options.jobs, req.options.jobs);
  EXPECT_EQ(back.options.symmetry, req.options.symmetry);
  EXPECT_EQ(back.options.check_k, req.options.check_k);
  EXPECT_FALSE(back.options.all);
}

TEST(ServeWire, ResponseRoundTrips) {
  Response resp;
  resp.ok = true;
  resp.cached = true;
  resp.exit_code = 1;
  resp.output = "verdict\nwith lines\n";
  const Response back = decode_response(encode_response(resp));
  EXPECT_TRUE(back.ok);
  EXPECT_TRUE(back.cached);
  EXPECT_EQ(back.exit_code, 1);
  EXPECT_EQ(back.output, resp.output);
  EXPECT_FALSE(back.has_stats);
}

TEST(ServeWire, StatsRoundTrip) {
  Response resp;
  resp.ok = true;
  resp.has_stats = true;
  resp.stats.requests = 10;
  resp.stats.cache_hits = 7;
  resp.stats.cache_capacity = 1024;
  const Response back = decode_response(encode_response(resp));
  ASSERT_TRUE(back.has_stats);
  EXPECT_EQ(back.stats.requests, 10u);
  EXPECT_EQ(back.stats.cache_hits, 7u);
  EXPECT_EQ(back.stats.cache_capacity, 1024u);
}

TEST(ServeWire, MalformedInputThrows) {
  EXPECT_THROW(decode_request("not json"), ModelError);
  EXPECT_THROW(decode_request("[1,2]"), ModelError);
  EXPECT_THROW(decode_request(R"({"source":"x"})"), ModelError);  // no cmd
  EXPECT_THROW(decode_request(R"({"cmd":"check","bogus":1})"), ModelError);
  EXPECT_THROW(decode_request(R"({"cmd":"check","options":{"nope":true}})"),
               ModelError);
  EXPECT_THROW(decode_response(R"({"exit":0})"), ModelError);  // no ok
}

// ── cache keys: distinct identities never collide ──

TEST(ServeCacheKey, DistinctRequestsProduceDistinctKeys) {
  // Every result-affecting coordinate perturbed one at a time, plus
  // prefix-confusable sources; all must key differently.
  std::vector<Request> reqs;
  const auto base = [] {
    Request r;
    r.cmd = "check";
    r.source = "protocol x\n";
    r.k = 4;
    return r;
  };
  reqs.push_back(base());
  {
    Request r = base();
    r.cmd = "lint";
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.cmd = "synthesize";
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.cmd = "analyze";
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.k = 5;
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.source = "protocol y\n";
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.source = "protocol x\n ";  // one trailing byte
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.options.symmetry = true;
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.options.all = true;
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.options.json = true;
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.options.lint = true;
    reqs.push_back(r);
  }
  {
    // `lint --werror` turns warnings into exit 1: a key without it would
    // serve a cached non-werror exit code.
    Request r = base();
    r.options.werror = true;
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.options.synth = true;
    reqs.push_back(r);
  }
  {
    Request r = base();
    r.options.check_k = 6;
    reqs.push_back(r);
  }
  {
    // An analyze row with `sim_k` appends a Monte Carlo estimate at that
    // ring size.
    Request r = base();
    r.options.sim_k = 7;
    reqs.push_back(r);
  }
  {
    // `name` is rendered into lint summaries, parse-error prefixes, and
    // batch rows, so the same source under a different name is a
    // different verdict.
    Request r = base();
    r.name = "other.ring";
    reqs.push_back(r);
  }
  {
    // name/source boundary confusion: bytes moved across the boundary
    // must not produce the same concatenated identity.
    Request r = base();
    r.name = "<request>p";
    r.source = "rotocol x\n";
    reqs.push_back(r);
  }
  std::set<std::string> keys;
  for (const Request& r : reqs) keys.insert(cache_key(r));
  EXPECT_EQ(keys.size(), reqs.size())
      << "two distinct request identities collided";
}

TEST(ServeCacheKey, JobsIsExcludedFromTheIdentity) {
  Request a;
  a.cmd = "check";
  a.source = "protocol x\n";
  a.k = 4;
  Request b = a;
  b.options.jobs = 16;
  EXPECT_EQ(cache_key(a), cache_key(b))
      << "thread count never changes a verdict, so it must not shard the "
         "cache";
}

// cache_key() lists the request's fields by hand, apart from the wire codec.
// Perturb each field decode_request() accepts, one wire line at a time:
// every key must differ from the base key except under options.jobs, which
// is execution advice. The field list is tied to the codec by encoding an
// all-non-default request, which must emit exactly these names.
TEST(ServeCacheKey, EveryWireFieldIsIdentityExceptJobs) {
  const std::vector<std::pair<std::string, std::string>> base = {
      {"cmd", R"("check")"},
      {"source", R"("protocol x\n")"},
      {"name", R"("x.ring")"},
      {"k", "4"}};
  // One non-default JSON value per field; "options." fields nest.
  const std::vector<std::pair<std::string, std::string>> perturbed = {
      {"cmd", R"("lint")"},
      {"source", R"("protocol y\n")"},
      {"name", R"("y.ring")"},
      {"k", "5"},
      {"options.jobs", "4"},
      {"options.symmetry", "true"},
      {"options.all", "true"},
      {"options.json", "true"},
      {"options.lint", "true"},
      {"options.werror", "true"},
      {"options.synth", "true"},
      {"options.check_k", "6"},
      {"options.trajectories", "7"},
      {"options.seed", "8"},
      {"options.cap", "9"},
      {"options.coin", "0.25"},
      {"options.scheduler", R"("weighted")"},
      {"options.target", R"("one-token")"},
      {"options.start", R"("zero")"},
      {"options.sim_k", "10"}};
  const std::string kOptions = "options.";
  const auto line = [&](const std::string& field, const std::string& value) {
    std::string out = "{";
    for (const auto& [name, v] : base)
      out += "\"" + name + "\":" + (name == field ? value : v) + ",";
    if (field.starts_with(kOptions))
      out += "\"options\":{\"" + field.substr(kOptions.size()) +
             "\":" + value + "},";
    out.back() = '}';
    return out;
  };
  const std::string base_key = cache_key(decode_request(line("", "")));
  for (const auto& [field, value] : perturbed) {
    const std::string key = cache_key(decode_request(line(field, value)));
    if (field == "options.jobs")
      EXPECT_EQ(key, base_key) << field;
    else
      EXPECT_NE(key, base_key) << field << " is not part of the cache key";
  }

  Request all;
  all.cmd = "check";
  all.source = "protocol x\n";
  all.name = "x.ring";
  all.k = 4;
  all.options.jobs = 4;
  all.options.symmetry = all.options.all = all.options.json = true;
  all.options.lint = all.options.werror = all.options.synth = true;
  all.options.check_k = 6;
  all.options.trajectories = 7;
  all.options.sim_seed = 8;
  all.options.round_cap = 9;
  all.options.coin = 0.25;
  all.options.scheduler = "weighted";
  all.options.target = "one-token";
  all.options.start = "zero";
  all.options.sim_k = 10;
  std::set<std::string> emitted;
  for (const auto& [name, v] : obs::json::parse(encode_request(all)).members) {
    if (name != "options") {
      emitted.insert(name);
      continue;
    }
    for (const auto& [opt, ov] : v.members) emitted.insert(kOptions + opt);
  }
  std::set<std::string> listed;
  for (const auto& [field, value] : perturbed) listed.insert(field);
  EXPECT_EQ(emitted, listed) << "a wire field is missing from this test";
}

TEST(ServeCacheKey, UnknownCommandThrows) {
  Request r;
  r.cmd = "exec";
  EXPECT_THROW(cache_key(r), ModelError);
}

// ── simulate requests: wire, cache identity, and byte-identity ──

constexpr const char* kHermanSource =
    "protocol herman;\n"
    "domain 2;\n"
    "reads -1 .. 0;\n"
    "legit: x[-1] != x[0];\n"
    "action toss: x[-1] == x[0] -> x[0] := 1 - x[0];\n"
    "action pass: x[-1] != x[0] -> x[0] := x[-1];\n";

Request simulate_request() {
  Request r;
  r.cmd = "simulate";
  r.source = kHermanSource;
  r.name = "herman.ring";
  r.k = 7;
  r.options.trajectories = 300;
  r.options.target = "one-token";
  r.options.start = "zero";
  return r;
}

TEST(ServeWire, SimulateOptionsRoundTripIncludingCoinBits) {
  Request req = simulate_request();
  req.options.sim_seed = 99;
  req.options.round_cap = 12345;
  req.options.coin = 0.3;  // not exactly representable — %.17g must survive
  req.options.scheduler = "weighted";
  req.options.sim_k = 6;
  const Request back = decode_request(encode_request(req));
  EXPECT_EQ(back.cmd, "simulate");
  EXPECT_EQ(back.options.trajectories, 300u);
  EXPECT_EQ(back.options.sim_seed, 99u);
  EXPECT_EQ(back.options.round_cap, 12345u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.options.coin),
            std::bit_cast<std::uint64_t>(req.options.coin))
      << "coin must round-trip bit-exactly, not just approximately";
  EXPECT_EQ(back.options.scheduler, "weighted");
  EXPECT_EQ(back.options.target, "one-token");
  EXPECT_EQ(back.options.start, "zero");
  EXPECT_EQ(back.options.sim_k, 6u);
  // Defaults are elided from the frame and restored on decode.
  Request bare;
  bare.cmd = "simulate";
  bare.source = kHermanSource;
  const Request defaults = decode_request(encode_request(bare));
  EXPECT_EQ(defaults.options.trajectories, 1000u);
  EXPECT_EQ(defaults.options.coin, 0.5);
  EXPECT_EQ(defaults.options.scheduler, "coin");
}

TEST(ServeCacheKey, SimulateCoordinatesAreIdentity) {
  std::vector<Request> reqs;
  reqs.push_back(simulate_request());
  {
    Request r = simulate_request();
    r.options.sim_seed = 2;
    reqs.push_back(r);
  }
  {
    Request r = simulate_request();
    r.options.trajectories = 301;
    reqs.push_back(r);
  }
  {
    Request r = simulate_request();
    r.options.round_cap = 999;
    reqs.push_back(r);
  }
  {
    Request r = simulate_request();
    r.options.coin = 0.25;
    reqs.push_back(r);
  }
  {
    Request r = simulate_request();
    r.options.scheduler = "weighted";
    reqs.push_back(r);
  }
  {
    Request r = simulate_request();
    r.options.target = "invariant";
    reqs.push_back(r);
  }
  {
    Request r = simulate_request();
    r.options.start = "three";
    reqs.push_back(r);
  }
  {
    Request r = simulate_request();
    r.k = 9;
    reqs.push_back(r);
  }
  {
    Request r = simulate_request();
    r.options.sim_k = 6;
    reqs.push_back(r);
  }
  std::set<std::string> keys;
  for (const Request& r : reqs) keys.insert(cache_key(r));
  EXPECT_EQ(keys.size(), reqs.size())
      << "two distinct simulate identities collided";

  // And jobs stays out: legitimate only because the estimator is
  // bit-identical at every thread count.
  Request a = simulate_request();
  Request b = a;
  b.options.jobs = 8;
  EXPECT_EQ(cache_key(a), cache_key(b));
}

TEST(ServeExec, SimulateMatchesRenderSimulateBytes) {
  const Request req = simulate_request();
  const ExecResult res = execute(req);
  EXPECT_EQ(res.exit_code, 0);
  const Protocol p = parse_protocol(req.source);
  std::ostringstream direct;
  render_simulate(p, req.k, req.options, direct);
  EXPECT_EQ(res.output, direct.str());
  // Different jobs, same bytes — the cache contract, end to end.
  Request jobs4 = req;
  jobs4.options.jobs = 4;
  EXPECT_EQ(execute(jobs4).output, res.output);
}

TEST(ServeExec, SimulateBadKReportsLikeTheCli) {
  Request req = simulate_request();
  req.k = 1;
  const ExecResult res = execute(req);
  EXPECT_NE(res.exit_code, 0);
  EXPECT_NE(res.output.find("invalid k value"), std::string::npos);
}

// ── the verdict cache ──

TEST(ServeCache, HitRepeatsTheStoredResultExactly) {
  VerdictCache cache(64);
  ExecResult res;
  res.exit_code = 1;
  res.output = "verdict bytes\n";
  cache.put("key", res);
  const auto hit = cache.get("key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->exit_code, 1);
  EXPECT_EQ(hit->output, "verdict bytes\n");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_FALSE(cache.get("other").has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServeCache, CapacityBoundsResidencyAndCountsEvictions) {
  VerdictCache cache(32);
  for (int i = 0; i < 1000; ++i) {
    ExecResult res;
    res.output = std::to_string(i);
    cache.put("key" + std::to_string(i), res);
  }
  EXPECT_LE(cache.size(), 32u);
  EXPECT_GE(cache.evictions(), 1000u - 32u - 16u)  // per-shard rounding slack
      << "inserting far past capacity must evict";
}

TEST(ServeCache, ZeroCapacityDisablesCaching) {
  VerdictCache cache(0);
  cache.put("key", ExecResult{0, "x"});
  EXPECT_FALSE(cache.get("key").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ── execute(): the CLI error contract is part of the cacheable result ──

TEST(ServeExec, ParseErrorsComeBackAsOutputNotExceptions) {
  Request req;
  req.cmd = "check";
  req.source = "this is not a protocol";
  req.k = 4;
  const ExecResult res = execute(req);
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_EQ(res.output.rfind("error: ", 0), 0u) << res.output;
}

TEST(ServeExec, BadKIsReportedLikeTheCli) {
  Request req;
  req.cmd = "check";
  req.source = "protocol x\n";
  req.k = 1;  // below the CLI's [2, 63] contract
  const ExecResult res = execute(req);
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("invalid k value"), std::string::npos);
}

// ── daemon round trips ──

TEST(ServeServer, AnswersAndCachesAndReportsStats) {
  ServerOptions opts;
  opts.socket_path = socket_path("basic");
  Server server(opts);
  server.start();
  {
    Client client(opts.socket_path);
    Request req;
    req.cmd = "lint";
    req.source = slurp(zoo_files().front());
    req.name = "zoo.ring";
    const Response cold = client.request(req);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.cached);
    const Response warm = client.request(req);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(warm.output, cold.output);
    EXPECT_EQ(warm.exit_code, cold.exit_code);
    const ServerStats stats = client.stats();
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.requests, 2u);  // the in-flight stats req not yet counted
    EXPECT_EQ(stats.cache_entries, 1u);
  }
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(opts.socket_path))
      << "stop() must unlink the socket";
}

TEST(ServeServer, MalformedRequestGetsAnErrorResponseNotADisconnect) {
  ServerOptions opts;
  opts.socket_path = socket_path("malformed");
  Server server(opts);
  server.start();
  {
    Client client(opts.socket_path);
    Request bad;
    bad.cmd = "exec";  // unknown command
    const Response resp = client.request(bad);
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("unknown serve command"), std::string::npos);
    // The connection survives a bad request.
    Request good;
    good.cmd = "lint";
    good.source = "protocol p { }";
    const Response next = client.request(good);
    EXPECT_TRUE(next.ok) << next.error;
  }
  server.stop();
}

TEST(ServeServer, OversizedRequestLineIsRefusedThenDisconnected) {
  ServerOptions opts;
  opts.socket_path = socket_path("oversized");
  Server server(opts);
  server.start();
  {
    // A raw connection sending one byte past the cap and no newline.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opts.socket_path.c_str(),
                opts.socket_path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    const std::string flood(kMaxRequestLineBytes + 1, 'x');
    for (std::size_t off = 0; off < flood.size();) {
      const ssize_t n = ::send(fd, flood.data() + off, flood.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
    std::string reply;
    char c = 0;
    while (::read(fd, &c, 1) == 1 && c != '\n') reply += c;
    const Response resp = decode_response(reply);
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find(std::to_string(kMaxRequestLineBytes)),
              std::string::npos)
        << resp.error;
    EXPECT_EQ(::read(fd, &c, 1), 0) << "the daemon hangs up after refusing";
    ::close(fd);
  }
  // The daemon itself is unharmed: the next client is answered.
  Client client(opts.socket_path);
  Request good;
  good.cmd = "lint";
  good.source = "protocol p { }";
  const Response next = client.request(good);
  EXPECT_TRUE(next.ok) << next.error;
  server.stop();
}

TEST(ServeServer, BindRefusesAnOccupiedPath) {
  const std::string path = socket_path("occupied");
  std::ofstream(path) << "not a socket";
  ServerOptions opts;
  opts.socket_path = path;
  Server server(opts);
  EXPECT_THROW(server.start(), ModelError)
      << "an existing file at the socket path must not be clobbered";
  std::filesystem::remove(path);
}

TEST(ServeServer, GracefulStopCompletesInFlightConnections) {
  ServerOptions opts;
  opts.socket_path = socket_path("drain");
  Server server(opts);
  server.start();
  Client client(opts.socket_path);
  // Issue a request, then stop from another thread while the connection is
  // idle-open: stop() must complete without hanging and the response to
  // the earlier request must already have been delivered intact.
  Request req;
  req.cmd = "lint";
  req.source = "protocol p { }";
  const Response resp = client.request(req);
  EXPECT_TRUE(resp.ok) << resp.error;
  std::thread stopper([&] { server.stop(); });
  stopper.join();
  EXPECT_FALSE(std::filesystem::exists(opts.socket_path));
}

// ── byte identity across the zoo ──
//
// The acceptance bar: for every shipped .ring file and every serve command,
// the daemon's bytes — cold AND cached — equal the shared local execution
// path's bytes (which ARE the CLI's bytes; the CLI calls the same
// serve::render_* functions).

TEST(ServeZooHeavy, CheckLintSynthesizeBitIdenticalColdAndWarm) {
  ServerOptions opts;
  opts.socket_path = socket_path("zoo");
  opts.cache_capacity = 4096;
  Server server(opts);
  server.start();
  Client client(opts.socket_path);

  std::size_t compared = 0;
  for (const auto& path : zoo_files()) {
    const std::string source = slurp(path);
    const std::string name = path.filename().string();
    std::vector<Request> reqs;
    for (std::size_t k = 2; k <= 8; ++k) {
      Request req;
      req.cmd = "check";
      req.source = source;
      req.name = name;
      req.k = k;
      reqs.push_back(req);
      req.options.symmetry = true;
      reqs.push_back(req);
    }
    for (const bool json : {false, true}) {
      Request req;
      req.cmd = "lint";
      req.source = source;
      req.name = name;
      req.options.json = json;
      reqs.push_back(req);
    }
    {
      Request req;
      req.cmd = "synthesize";
      req.source = source;
      req.name = name;
      reqs.push_back(req);
    }
    for (const Request& req : reqs) {
      const ExecResult local = execute(req);
      const Response cold = client.request(req);
      ASSERT_TRUE(cold.ok) << name << ": " << cold.error;
      EXPECT_FALSE(cold.cached);
      EXPECT_EQ(cold.output, local.output) << name << " cmd=" << req.cmd;
      EXPECT_EQ(cold.exit_code, local.exit_code) << name;
      const Response warm = client.request(req);
      ASSERT_TRUE(warm.ok) << name << ": " << warm.error;
      EXPECT_TRUE(warm.cached) << name;
      EXPECT_EQ(warm.output, local.output) << name << " cmd=" << req.cmd;
      EXPECT_EQ(warm.exit_code, local.exit_code) << name;
      ++compared;
    }
  }
  const ServerStats stats = client.stats();
  EXPECT_EQ(stats.cache_hits, compared);
  EXPECT_EQ(stats.cache_misses, compared);
  server.stop();
}

TEST(ServeZooHeavy, BatchAnalyzeRowsBitIdenticalToLocal) {
  ServerOptions opts;
  opts.socket_path = socket_path("batch");
  Server server(opts);
  server.start();
  Client client(opts.socket_path);

  RequestOptions options;
  options.lint = true;
  options.check_k = 4;
  for (const auto& path : zoo_files()) {
    const std::string source = slurp(path);
    const std::string name = path.filename().string();
    const BatchOutcome local = batch_outcome(source, name, options, nullptr);
    Request req;
    req.cmd = "analyze";
    req.source = source;
    req.name = name;
    req.options = options;
    for (const bool expect_cached : {false, true}) {
      const Response resp = client.request(req);
      ASSERT_TRUE(resp.ok) << name << ": " << resp.error;
      EXPECT_EQ(resp.cached, expect_cached) << name;
      const BatchOutcome remote = parse_batch_outcome(resp.output);
      EXPECT_EQ(remote.name, local.name) << name;
      EXPECT_EQ(remote.verdict, local.verdict) << name;
      EXPECT_EQ(remote.expectation, local.expectation) << name;
      EXPECT_EQ(remote.ok, local.ok) << name;
    }
  }
  server.stop();
}

// ── silent-failure fixes riding along ──

TEST(BenchArtifacts, TryWriteReportsUnopenableAndUnwritableTargets) {
  EXPECT_FALSE(bench::try_write_bench_json(
      "/nonexistent_dir_for_sure/x.json", bench::Json().put("a", 1)));
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_FALSE(
        bench::try_write_bench_json("/dev/full", bench::Json().put("a", 1)))
        << "a full disk must be reported, not swallowed";
  }
  const std::string good = "test_serve_artifact.json";
  EXPECT_TRUE(bench::try_write_bench_json(good, bench::Json().put("a", 1)));
  std::filesystem::remove(good);
}

TEST(ObsFailures, FileSinkGoesUnhealthyWhenTheDiskFills) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  obs::FileSink<obs::JsonlSink> sink("/dev/full");
  ASSERT_TRUE(sink.ok()) << "/dev/full opens fine; failure is at write time";
  obs::SpanRecord rec;
  rec.name = "phase";
  rec.start = 0;
  rec.end = 1000;
  // JSONL writes eagerly; spans + flush must push past the buffer.
  for (int i = 0; i < 100000 && sink.healthy(); ++i) {
    sink.on_span(rec);
    sink.flush();
  }
  EXPECT_FALSE(sink.healthy());
  EXPECT_NE(sink.describe().find("/dev/full"), std::string::npos);
}

TEST(ObsFailures, SessionFinishSurfacesSinkFailure) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  obs::SessionOptions opts;
  opts.jsonl_path = "/dev/full";
  opts.command = "test";
  obs::Session session(opts);
  ASSERT_TRUE(session.active());
  for (int i = 0; i < 100000; ++i) {
    obs::Span span("phase");
  }
  EXPECT_FALSE(session.finish())
      << "a session whose artifact failed must report it";
  EXPECT_FALSE(session.finish()) << "finish() is idempotent";
}

TEST(ObsFailures, SessionFinishTrueOnHealthySinks) {
  const std::string path = "test_serve_session.jsonl";
  obs::SessionOptions opts;
  opts.jsonl_path = path;
  opts.command = "test";
  obs::Session session(opts);
  {
    obs::Span span("phase");
  }
  EXPECT_TRUE(session.finish());
  std::filesystem::remove(path);
}

TEST(ObsFailures, InterruptedRunsStampTheManifest) {
  ASSERT_FALSE(obs::interrupted());
  std::ostringstream out;
  {
    obs::MetricsSink sink(out, "test");
    obs::g_interrupted.store(true, std::memory_order_relaxed);
    sink.flush();
    obs::g_interrupted.store(false, std::memory_order_relaxed);
  }
  const obs::json::Value doc = obs::json::parse(out.str());
  const obs::json::Value* flag = doc.find("interrupted");
  ASSERT_NE(flag, nullptr) << out.str();
  EXPECT_TRUE(flag->boolean);
  EXPECT_EQ(obs::validate_manifest(doc), "")
      << "the stamp must not break schema validation";
}

TEST(ObsFailures, NormalRunsDoNotCarryTheStamp) {
  ASSERT_FALSE(obs::interrupted());
  std::ostringstream out;
  {
    obs::MetricsSink sink(out, "test");
    sink.flush();
  }
  const obs::json::Value doc = obs::json::parse(out.str());
  EXPECT_EQ(doc.find("interrupted"), nullptr);
}

}  // namespace
}  // namespace ringstab::serve
