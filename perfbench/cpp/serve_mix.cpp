// serve-mix: an in-process ringstab-serve daemon under a closed loop of
// client connections, each sending its next request as soon as the reply
// arrives. Requests follow a seeded Zipf stream over a catalogue built from
// examples/rings; the daemon's cache holds fewer entries than the catalogue
// has keys, so the stream starts cold and keeps evicting. Every reply is
// compared byte for byte with a local serve::execute of the same request.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stream.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ringstab;
using serve::Request;

/// The local, uncached answer to one catalogue request.
struct Reference {
  serve::ExecResult result;
  double exec_ms = 0;
};

/// Executes the whole catalogue locally `passes` times. Each request's
/// exec_ms is its median wall time over the passes, and every pass must give
/// the same answers. Returns the references; `pass_ms` gets each pass's time,
/// scaled by `probe` when there is one.
std::vector<Reference> local_references(const std::vector<Request>& cat,
                                        int passes, Tracer& tracer,
                                        Outcome& out, SpeedProbe* probe,
                                        std::vector<double>& pass_ms) {
  std::vector<Reference> refs(cat.size());
  std::vector<std::vector<double>> ms(cat.size());
  for (int pass = 0; pass < passes; ++pass) {
    const auto one_pass = [&] {
      for (std::size_t i = 0; i < cat.size(); ++i) {
        serve::ExecResult res;
        const Span s(tracer, "serve.execute." + cat[i].cmd, i);
        ms[i].push_back(1e3 * time_s([&] { res = serve::execute(cat[i]); }));
        if (pass == 0)
          refs[i].result = res;
        else
          out.expect(res.exit_code == refs[i].result.exit_code &&
                         res.output == refs[i].result.output,
                     "local execute of catalogue request " +
                         std::to_string(i) + " repeats its answer");
      }
    };
    pass_ms.push_back(probe ? probe->scaled_ms(one_pass)
                            : 1e3 * time_s(one_pass));
  }
  for (std::size_t i = 0; i < cat.size(); ++i) refs[i].exec_ms = median(ms[i]);
  return refs;
}

/// One client round trip.
struct Sample {
  std::size_t index = 0;  // catalogue position
  double ms = 0;          // scaled when the phase has a probe
  double wall_ms = 0;
  bool cached = false;
  bool ok = false;        // reply bytes equal the local reference
  double decode_us = 0;   // traced phase only
  double key_us = 0;
};

struct Phase {
  std::vector<Sample> samples;
  double s = 0;       // time the clients ran, scaled when there is a probe
  double wall_s = 0;
  serve::ServerStats stats;
  std::vector<std::string> errors;  // per client, empty when it ran to time
};

serve::ServerOptions daemon_options(const Args& args) {
  serve::ServerOptions o;
  o.socket_path =
      args.out_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  o.cache_capacity = kServeCacheCapacity;
  return o;
}

/// Client time between two speed probes, in seconds.
constexpr double kSegmentS = 1;

/// Starts a cold daemon, drives it for `seconds` from `clients` closed-loop
/// connections, and stops it. A traced phase also times decode_request and
/// cache_key on each request, from the client's side. With a probe, the
/// clients run in segments of kSegmentS and pause for a probe between them
/// (the daemon and its cache stay up); each round trip and segment time is
/// scaled by the probes around its segment.
Phase drive(const Args& args, std::size_t clients, double seconds,
            const std::vector<Request>& cat, const ZipfStream& stream,
            const std::vector<Reference>& refs, Tracer& tracer,
            SpeedProbe* probe) {
  serve::Server server(daemon_options(args));
  server.start();
  std::vector<serve::Client> conns;
  conns.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c)
    conns.emplace_back(server.socket_path());

  std::atomic<std::uint64_t> cursor{0};
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<std::string> errors(clients);  // why a client stopped early
  Clock::time_point t0;
  double segment_s = 0;
  const auto client_loop = [&](std::size_t c) {
    while (seconds_since(t0) < segment_s) {
      const std::uint64_t n = cursor.fetch_add(1);
      Sample s;
      s.index = stream.at(n);
      const Request& req = cat[s.index];
      if (tracer.enabled()) {
        const std::string line = serve::encode_request(req);
        {
          const Span span(tracer, "serve.decode", n);
          s.decode_us =
              1e6 * time_s([&] { (void)serve::decode_request(line); });
        }
        const Span span(tracer, "serve.key", n);
        s.key_us = 1e6 * time_s([&] { (void)serve::cache_key(req); });
      }
      serve::Response resp;
      {
        const Span span(tracer, "serve.request", n);
        s.wall_ms = 1e3 * time_s([&] { resp = conns[c].request(req); });
        s.ms = s.wall_ms;
      }
      const serve::ExecResult& want = refs[s.index].result;
      s.cached = resp.cached;
      s.ok = resp.ok && resp.exit_code == want.exit_code &&
             resp.output == want.output;
      per_client[c].push_back(s);
    }
  };
  // Runs every client for segment_s; returns the segment's wall time in ms.
  const auto run_segment = [&] {
    t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        try {
          client_loop(c);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    for (std::thread& t : threads) t.join();
    return 1e3 * seconds_since(t0);
  };
  Phase phase;
  const auto start = Clock::now();
  bool failed = false;
  while (!failed && seconds_since(start) < seconds) {
    segment_s = probe ? std::min(kSegmentS, seconds - seconds_since(start))
                      : seconds;
    std::vector<std::size_t> first;
    for (const auto& samples : per_client) first.push_back(samples.size());
    const double ms = probe ? probe->scaled(run_segment) : run_segment();
    const double wall_ms = probe ? probe->raw().back() : ms;
    phase.s += ms / 1e3;
    phase.wall_s += wall_ms / 1e3;
    for (std::size_t c = 0; c < clients; ++c) {
      for (std::size_t i = first[c]; i < per_client[c].size(); ++i)
        per_client[c][i].ms *= ms / wall_ms;
      failed = failed || !errors[c].empty();
    }
  }
  phase.errors = errors;
  phase.stats = server.stats();
  server.stop();
  for (const auto& samples : per_client)
    phase.samples.insert(phase.samples.end(), samples.begin(), samples.end());
  return phase;
}

void expect_phase(Outcome& out, const Phase& phase) {
  for (const std::string& e : phase.errors)
    out.expect(e.empty(), "client ran to the end of the window: " + e);
  for (const Sample& s : phase.samples)
    out.expect(s.ok, "reply to catalogue request " + std::to_string(s.index) +
                         (s.cached ? " (cached)" : " (computed)") +
                         " equals the local execute");
  const std::uint64_t n = phase.samples.size();
  out.expect(phase.stats.cache_hits + phase.stats.cache_misses == n,
             "daemon hits + misses == requests");
}

/// Completed requests per second of (scaled) client time.
double rate(const Phase& phase) {
  return static_cast<double>(phase.samples.size()) / phase.s;
}

}  // namespace

/// Uncached local passes over the catalogue; alt_p50_ms is their median.
constexpr int kCataloguePasses = 11;

void run_serve_mix(const Args& args, std::size_t clients, Outcome& out) {
  const std::vector<Request> cat =
      build_catalogue(args.root + "/examples/rings", args.seed);
  const std::size_t keys = distinct_keys(cat);
  out.expect(keys > kServeCacheCapacity,
             "catalogue keys exceed the daemon's cache capacity");
  const ZipfStream stream(cat.size(), args.seed);

  // Untraced times are scaled to reference speed (SpeedProbe); the wall
  // times are printed as notes.
  SpeedProbe probe;
  // Set-up: daemon start plus the client connections, median of 21.
  const double setup_s = probe.scaled([&] {
    std::vector<double> setups;
    for (int r = 0; r < 21; ++r) {
      serve::Server server(daemon_options(args));
      std::vector<serve::Client> conns;
      conns.reserve(clients);
      setups.push_back(time_s([&] {
        server.start();
        for (std::size_t c = 0; c < clients; ++c)
          conns.emplace_back(server.socket_path());
      }));
    }
    return median(setups);
  });
  const double setup_wall_s = probe.raw().back();

  Tracer tracer(args.trace);
  std::vector<double> pass_ms;
  const std::vector<Reference> refs = local_references(
      cat, kCataloguePasses, tracer, out, args.trace ? nullptr : &probe,
      pass_ms);
  std::map<std::string, std::vector<double>> exec_by_cmd;
  for (std::size_t i = 0; i < cat.size(); ++i)
    exec_by_cmd[cat[i].cmd].push_back(refs[i].exec_ms);
  out.note("catalogue_keys", static_cast<double>(keys), "count");
  out.note("cache_capacity", static_cast<double>(kServeCacheCapacity),
           "count");

  if (!args.trace) {
    const std::vector<double> wall_pass_ms(
        probe.raw().end() - kCataloguePasses, probe.raw().end());
    Tracer off(false);
    const Phase phase =
        drive(args, clients, args.seconds, cat, stream, refs, off, &probe);
    expect_phase(out, phase);
    std::vector<double> ms, wall_ms;
    for (const Sample& s : phase.samples) {
      ms.push_back(s.ms);
      wall_ms.push_back(s.wall_ms);
    }
    const Percentile wall_tail = tail_percentile(wall_ms);
    out.note("req_p50_ms", median(wall_ms), "ms", "wall");
    out.note("req_p99_ms", wall_tail.value, "ms",
             "wall, rank " + json_number(wall_tail.q) + ", " +
                 std::to_string(wall_tail.beyond) + " samples beyond");
    out.note("req_per_s",
             static_cast<double>(phase.samples.size()) / phase.wall_s, "1/s",
             "wall");
    out.note("hit_ratio",
             static_cast<double>(phase.stats.cache_hits) /
                 static_cast<double>(phase.samples.size()),
             "ratio");
    out.note("evictions", static_cast<double>(phase.stats.cache_evictions),
             "count");
    out.note("catalogue_pass_s", median(wall_pass_ms) / 1e3, "s",
             "wall: every request once, uncached");
    out.note("setup_wall_s", setup_wall_s, "s", "set-up, wall");
    out.note("probe_p50_ms", median(probe.probe_ms()), "ms",
             "speed probe, wall");
    set_end_to_end(out, setup_s, ms, pass_ms, rate(phase), peak_rss_mb());
  } else {
    // Half the time untraced, half traced, each on its own cold daemon.
    Tracer off(false);
    const Phase plain = drive(args, clients, args.seconds / 2, cat, stream,
                              refs, off, nullptr);
    const Phase traced = drive(args, clients, args.seconds / 2, cat, stream,
                               refs, tracer, nullptr);
    expect_phase(out, plain);
    expect_phase(out, traced);

    std::vector<double> decode_us, key_us, hit_us, miss_ms;
    double wall = 0, covered = 0;
    for (const Sample& s : traced.samples) {
      decode_us.push_back(s.decode_us);
      key_us.push_back(s.key_us);
      if (s.cached)
        hit_us.push_back(1e3 * s.ms);
      else
        miss_ms.push_back(s.ms);
      wall += s.ms / 1e3;
      covered += (s.decode_us + s.key_us) / 1e6 +
                 (s.cached ? 0 : refs[s.index].exec_ms / 1e3);
    }
    const Percentile hit_tail = tail_percentile(hit_us);
    const Percentile miss_tail = tail_percentile(miss_ms);
    std::map<std::string, double> layer;
    layer["serve.decode_us"] = median(decode_us);
    layer["serve.key_us"] = median(key_us);
    layer["serve.hit_us_p50"] = median(hit_us);
    layer["serve.hit_us_p99"] = hit_tail.value;
    layer["serve.miss_ms_p50"] = median(miss_ms);
    layer["serve.miss_ms_p99"] = miss_tail.value;
    for (const auto& [cmd, samples] : exec_by_cmd)
      layer["serve.exec_" + cmd + "_ms"] = median(samples);
    const double requests = static_cast<double>(traced.samples.size());
    layer["serve.hit_ratio"] =
        static_cast<double>(traced.stats.cache_hits) / requests;
    layer["serve.evictions"] =
        static_cast<double>(traced.stats.cache_evictions);
    layer["trace_overhead_frac"] = rate(plain) / rate(traced) - 1;
    layer["unattributed_frac"] = 1 - covered / wall;
    out.note("hit_tail_rank", hit_tail.q, "quantile",
             std::to_string(hit_tail.samples) + " hits");
    out.note("miss_tail_rank", miss_tail.q, "quantile",
             std::to_string(miss_tail.samples) + " misses");
    out.note("req_per_s_untraced", rate(plain), "1/s");
    out.note("req_per_s_traced", rate(traced), "1/s");
    set_layer_metrics(out, layer);
    write_spans(args, tracer.spans(), out);
  }
}

}  // namespace perfbench
