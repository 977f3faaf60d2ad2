// serve-lookup: read-only BATCH_LOOKUP traffic against a serve::Server
// whose ReputationStore holds 10^6 synthetic scores, over loopback TCP.
//
// One process: the server's event-loop thread (CPU 0) plus two client
// connections, one thread each (CPUs 1 and 2). Keys are Zipf(0.8)-ranked and scattered over the id
// space by a seeded permutation, 64 per frame. Phases:
//   1. set-up, kSetups times (store build + publish + server start), median;
//   2. closed loop, pipeline 8 per connection: capacity in keys/s, the
//      median over 0.25 s windows;
//   3. open loop at a fixed offered rate (about a quarter of capacity):
//      per-frame latency timed from each frame's due time, percentiles
//      taken per 50 ms window and reported as the median over windows.
// Phases 2 and 3 alternate kRounds times (30% / 70% of the run's seconds).
// Every key must be found; every 16th closed-loop frame and every
// open-loop frame must return the published score bit for bit.
//
// Traced pass: the same live phases, plus an in-process replay of the
// connection-0 id stream through the protocol codecs,
// ConnectionHandler::on_bytes and ReputationStore::reader/lookup, with a
// span around each call.
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "client.hpp"
#include "common/powerlaw.hpp"
#include "common/rng.hpp"
#include "serve/handler.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace serve = gt::serve;

constexpr std::size_t kKeys = 1'000'000;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kPipeline = 8;
constexpr std::size_t kConns = 2;
constexpr double kZipf = 0.8;
constexpr std::size_t kStreamFrames = 1u << 14;  ///< id stream length, frames
/// Open-loop offered rate per connection, frames/s. Both connections
/// together offer 2 * 12000 * 64 = 1.54M keys/s, about a quarter of the
/// closed-loop capacity measured on a 4-core x86-64 host.
constexpr double kOpenLoopRate = 12000.0;
constexpr double kLatencyWindowS = 0.05;  ///< open-loop percentile window
/// Closed and open phases alternate this many times, so a slow stretch of
/// the host lands in both rather than in one phase.
constexpr std::size_t kRounds = 3;
/// Set-up is a ~60 ms figure (mostly page faults of the 10^6-score store),
/// so it is taken as the median of many tries.
constexpr std::size_t kSetups = 15;
constexpr std::size_t kReplayFrames = 20000;
constexpr std::size_t kReplayRounds = 5;

struct Serving {
  std::unique_ptr<serve::ReputationStore> store;
  std::unique_ptr<gt::telemetry::MetricsRegistry> registry;
  std::unique_ptr<serve::Server> server;
  std::uint64_t epoch = 0;

  ~Serving() {
    if (server) server->stop();
  }
};

/// Store build + publish + server start: the service's start-up path.
std::unique_ptr<Serving> start_serving(const std::vector<double>& scores,
                                       std::string* error) {
  auto s = std::make_unique<Serving>();
  s->store = std::make_unique<serve::ReputationStore>();
  s->epoch = s->store->publish(scores);
  s->registry = std::make_unique<gt::telemetry::MetricsRegistry>(1);
  s->server = std::make_unique<serve::Server>(*s->store, *s->registry);
  if (!s->server->start(error)) return nullptr;
  return s;
}

std::vector<std::uint64_t> make_id_stream(std::uint64_t seed,
                                          const gt::ZipfSampler& zipf,
                                          const std::vector<std::uint32_t>& rank_to_id) {
  gt::Rng rng(seed);
  std::vector<std::uint64_t> ids(kStreamFrames * kBatch);
  for (auto& id : ids) id = rank_to_id[zipf.sample(rng)];
  return ids;
}

struct LivePhases {
  std::vector<ClosedLoopResult> closed;
  std::vector<OpenLoopResult> open;
  serve::MetricsPayload metrics;
  bool metrics_ok = false;
};

LivePhases run_live(std::uint16_t port,
                    const std::vector<std::vector<std::uint64_t>>& streams,
                    double seconds, const KeyCheck& check, Report& report) {
  LivePhases live;
  live.closed.resize(kConns);
  live.open.resize(kConns);
  int fds[kConns];
  for (std::size_t c = 0; c < kConns; ++c) {
    fds[c] = connect_tcp(port);
    if (!report.check(fds[c] >= 0, "lookup.connect", "cannot connect")) return live;
  }
  const double closed_s = 0.3 * seconds / kRounds;
  const double open_s = 0.7 * seconds / kRounds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      pin_this_thread(static_cast<int>(1 + c));
      LookupStream sampled{&streams[c], kBatch, 16};
      LookupStream every{&streams[c], kBatch, 1};
      run_closed_loop(fds[c], sampled, kPipeline, 0.3, check);  // warm-up
      for (std::size_t round = 0; round < kRounds; ++round) {
        live.closed[c].append(run_closed_loop(fds[c], sampled, kPipeline, closed_s, check));
        live.open[c].append(run_open_loop(fds[c], every, kOpenLoopRate, open_s, check));
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<std::uint8_t> req, payload;
  serve::encode_metrics(req);
  live.metrics_ok =
      request(fds[0], req, serve::Op::kMetricsResp, payload) &&
      serve::decode_metrics_resp(payload.data(), payload.size(), &live.metrics);
  for (const int fd : fds) ::close(fd);
  return live;
}

struct ReplayTotals {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::uint64_t found = 0;
  std::uint64_t keys = 0;
};

/// In-process replay of `ids` through the client codec, the handler and the
/// store, alternating untraced and traced rounds.
ReplayTotals replay(serve::ReputationStore& store,
                    const std::vector<std::uint64_t>& ids, Tracer& tracer,
                    Report& report) {
  gt::telemetry::MetricsRegistry registry(1);
  serve::ServeMetrics metrics = serve::ServeMetrics::register_on(registry);
  serve::ConnectionHandler handler(store, metrics);
  Tracer off(false);
  std::vector<double> untraced, traced;
  std::vector<std::uint8_t> tx, out;
  serve::FrameParser parser;
  ReplayTotals totals;
  std::uint64_t trace_id = 0;

  for (std::size_t round = 0; round < 2 * kReplayRounds; ++round) {
    Tracer& t = round % 2 == 1 ? tracer : off;
    const std::int64_t t0 = now_ns();
    for (std::size_t k = 0; k < kReplayFrames; ++k, ++trace_id) {
      Scope frame(t, "serve.frame", trace_id);
      const std::size_t at = (k * kBatch) % ids.size();
      {
        Scope s(t, "serve.protocol.encode", trace_id, frame.id());
        tx.clear();
        serve::encode_batch_lookup(tx, ids.data() + at, kBatch);
      }
      {
        Scope s(t, "serve.handler.on_bytes", trace_id, frame.id());
        out.clear();
        if (!handler.on_bytes(tx.data(), tx.size(), out)) {
          report.check(false, "lookup.replay_handler", "handler rejected a frame");
          return totals;
        }
      }
      Scope s(t, "serve.client.decode", trace_id, frame.id());
      serve::FrameParser::Frame f;
      std::uint32_t count = 0;
      const std::uint8_t* e = nullptr;
      if (parser.feed(out.data(), out.size()) && parser.next(&f))
        e = serve::decode_batch_resp(f.payload, f.header.payload_len, &count);
      if (e == nullptr || count != kBatch) {
        report.check(false, "lookup.replay_decode", "malformed batch reply");
        return totals;
      }
    }
    (round % 2 == 1 ? traced : untraced)
        .push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // The store alone: one pin per frame, 64 lookups under it.
  for (std::size_t k = 0; k < kReplayFrames; ++k, ++trace_id) {
    const std::size_t at = (k * kBatch) % ids.size();
    std::optional<serve::ReputationStore::ReadGuard> guard;
    {
      Scope s(tracer, "serve.store.pin", trace_id);
      guard.emplace(store.reader());
      guard.reset();
    }
    guard.emplace(store.reader());
    Scope s(tracer, "serve.store.lookup", trace_id);
    for (std::size_t j = 0; j < kBatch; ++j)
      totals.found += store.lookup(*guard, ids[at + j]).found() ? 1 : 0;
    totals.keys += kBatch;
  }
  totals.untraced_s = median(untraced);
  totals.traced_s = median(traced);
  return totals;
}

}  // namespace

void run_serve_lookup(const Args& a, Report& report) {
  // --- inputs, all from the seed ---------------------------------------------
  gt::Rng rng(gt::mix64(a.seed, 1));
  std::vector<double> scores(kKeys);
  for (auto& s : scores) s = std::pow(rng.next_double(), 3.0) + 1e-9;
  // rank -> id: a uniformly random permutation, which scatters the hot set
  // alike for every seed. Under a linear map (rank * mul + add) mod 10^6,
  // how many hot ranks share a cache line depends on mul, and capacity
  // moves by a quarter from seed to seed.
  std::vector<std::uint32_t> rank_to_id(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) rank_to_id[i] = static_cast<std::uint32_t>(i);
  gt::Rng prng(gt::mix64(a.seed, 2));
  prng.shuffle(rank_to_id);
  const gt::ZipfSampler zipf(kKeys, kZipf);
  std::vector<std::vector<std::uint64_t>> streams;
  for (std::size_t c = 0; c < kConns; ++c)
    streams.push_back(make_id_stream(gt::mix64(a.seed, 10 + c), zipf, rank_to_id));

  // --- set-up, several times ---------------------------------------------------
  pin_this_thread(0);  // the server's loop thread inherits CPU 0
  std::vector<double> setup_s;
  std::unique_ptr<Serving> serving;
  for (std::size_t i = 0; i < kSetups; ++i) {
    serving.reset();
    std::string error;
    const std::int64_t t0 = now_ns();
    serving = start_serving(scores, &error);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!report.check(serving != nullptr, "lookup.server_start", error)) return;
  }
  std::fprintf(stderr, "perfbench: serve-lookup set-ups (s):");
  for (const double s : setup_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "; median %.4f\n", median(setup_s));
  const std::uint64_t epoch = serving->epoch;
  const KeyCheck check = [&scores, epoch](std::uint64_t id, std::uint64_t ep,
                                          double score) {
    return ep == epoch && id < scores.size() &&
           std::memcmp(&score, &scores[id], sizeof(double)) == 0;
  };

  // --- live phases ---------------------------------------------------------------
  LivePhases live = run_live(serving->server->port(), streams, a.seconds, check, report);
  std::vector<double> lat;
  std::vector<std::vector<double>> lat_streams;
  double keys_per_s = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t c = 0; c < kConns; ++c) {
    const ClosedLoopResult& cl = live.closed[c];
    const OpenLoopResult& ol = live.open[c];
    keys_per_s += median(cl.window_keys_per_s);
    lat.insert(lat.end(), ol.latency_us.begin(), ol.latency_us.end());
    lat_streams.push_back(ol.latency_us);
    attempted += cl.frames + ol.frames;
    failed += (ol.frames - ol.answered) + cl.bad_frames + ol.bad_frames;
    report.check(cl.bad_keys == 0 && ol.bad_keys == 0, "lookup.keys_found_bit_exact",
                 std::to_string(cl.bad_keys + ol.bad_keys) +
                     " keys missing or differing from the published scores");
    report.check(!cl.io_error && !ol.io_error && ol.answered == ol.frames,
                 "lookup.replies_complete",
                 "connection " + std::to_string(c) + ": " +
                     std::to_string(ol.frames - ol.answered) + " frames unanswered");
  }
  report.count(attempted, failed);
  const auto per_window = static_cast<std::size_t>(kOpenLoopRate * kLatencyWindowS);
  const double p50_us = windowed_percentile(lat_streams, per_window, 50.0);
  const double p90_us = windowed_percentile(lat_streams, per_window, 90.0);
  const double p99_us = windowed_percentile(lat_streams, per_window, 99.0);
  if (p99_us > 1000.0)
    std::fprintf(stderr, "perfbench: serve-lookup p99 %.1f us exceeds the 1 ms limit\n",
                 p99_us);
  double late_p99 = 0.0, late_max = 0.0;
  for (const OpenLoopResult& ol : live.open) {
    late_p99 = std::max(late_p99, ol.lateness.p99_us());
    late_max = std::max(late_max, ol.lateness.max_us());
  }
  std::fprintf(stderr,
               "perfbench: serve-lookup capacity %.3e keys/s; open loop %zu frames, "
               "windowed p50 %.1f us p90 %.1f us p99 %.1f us, pooled p50 %.1f us p99 %.1f us "
               "p99.9 %.1f us; generator late p99 %.1f us max %.1f us\n",
               keys_per_s, lat.size(), p50_us, p90_us, p99_us, percentile(lat, 50.0),
               percentile(lat, 99.0), percentile(lat, 99.9), late_p99, late_max);

  if (!a.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
    report.metric("latency_p50_ms", p50_us * 1e-3, "ms");
    report.metric("latency_p90_ms", p90_us * 1e-3, "ms");
    return;
  }

  // --- traced pass: in-process replay ------------------------------------------
  Tracer tracer(true);
  const ReplayTotals rt = replay(*serving->store, streams[0], tracer, report);
  const auto tot = tracer.totals();
  auto total_ns = [&tot](const char* name) {
    const auto it = tot.find(name);
    return it == tot.end() ? 0.0 : it->second.total_ns;
  };
  const double frames = static_cast<double>(kReplayFrames * kReplayRounds);
  const double keys = frames * kBatch;
  const double handler_us_per_frame = total_ns("serve.handler.on_bytes") / frames * 1e-3;

  report.metric("serve.protocol.encode_ns_per_key",
                total_ns("serve.protocol.encode") / keys, "ns");
  report.metric("serve.handler.ns_per_key", total_ns("serve.handler.on_bytes") / keys, "ns");
  report.metric("serve.client.decode_ns_per_frame",
                total_ns("serve.client.decode") / frames, "ns");
  report.metric("serve.store.pin_ns",
                total_ns("serve.store.pin") / static_cast<double>(kReplayFrames), "ns");
  report.metric("serve.store.lookup_ns",
                total_ns("serve.store.lookup") / static_cast<double>(rt.keys), "ns");
  report.metric("serve.store.found_frac",
                rt.keys ? static_cast<double>(rt.found) / static_cast<double>(rt.keys) : 0.0,
                "ratio");
  report.metric("serve.lookup_keys_per_s", keys_per_s, "keys/s");
  report.metric("serve.lookup_p50_us", p50_us, "us");
  report.metric("serve.lookup_p99_us", p99_us, "us");
  report.metric("serve.net.self_us", p50_us - handler_us_per_frame, "us");
  report.metric("serve.gen.late_us_p99", late_p99, "us");
  report.metric("serve.server.bp_pauses",
                live.metrics_ok ? static_cast<double>(live.metrics.counter(
                                      serve::MetricsCounter::kBpPauses))
                                : 0.0,
                "count");
  report.check(live.metrics_ok, "lookup.metrics_opcode", "METRICS request failed");
  report.check(rt.found == rt.keys, "lookup.replay_found",
               "replay lookups missed keys");
  report.metric("trace.overhead_frac",
                rt.untraced_s > 0.0 ? rt.traced_s / rt.untraced_s - 1.0 : 0.0, "ratio");
  report.metric("fail_frac", report.fail_frac(), "ratio");
  report.check(tracer.write(span_path(a)), "trace.write", "cannot write " + span_path(a));
}

}  // namespace pb
