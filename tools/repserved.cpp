// repserved — the live reputation service daemon.
//
// Boots the full serving stack: seeds a paper-shaped feedback workload
// (power-law feedback counts, honest ratings), runs the GossipTrust engine
// to convergence, publishes the converged score vector as one snapshot in
// serve::ReputationStore, and serves LOOKUP/BATCH_LOOKUP/INGEST/STATS/
// METRICS/HEALTH over the epoll server. A fold loop then drains the ingest
// queue into the feedback ledger and re-aggregates every --refold feedbacks
// the ledger records (warm-started from the previous vector), republishing
// the fresh scores under a new epoch — the paper's "reputation updating"
// path, live.
//
// Lanes: the engine's gossip kernel runs one lane per CPU the process may
// use (its affinity mask, so `taskset -c 0,1` gives 2), at most one per
// column block; the startup line reports the count as `lanes=L`. The lanes'
// worker threads exist before the ready line, built by the startup
// aggregation. Results are bit-identical at any lane count. With more than
// one lane, each lane yields its CPU after every block step, so the event
// loop, if it shares a CPU with a lane, answers within one block step.
//
// Wake: the fold loop sleeps in ReputationStore::wait_feedback until the
// queue holds the INGESTs still missing from the next refold, or 50 ms
// pass. A refold therefore starts as soon as its batch is queued, and the
// queue is still drained at least every 50 ms (HEALTH's ingest_backlog,
// shutdown). A refold still needs --refold INGESTs the ledger records.
//
// Observability (PR 9): the JSONL EventLog opens at startup; every
// --metrics-interval seconds the fold loop appends a `serve_metrics`
// record (all serve_* counters + latency histogram buckets) and a
// `serve_health` record (published epoch, ingest backlog, staleness,
// convergence flags, mass gap). Handler frames slower than
// --slow-frame-us emit one `slow_frame` record each. The log's destructor
// writes the final `meta` record (records logged, lines dropped) on clean
// shutdown. `scripts/report.py --live` renders the whole stream.
//
//   repserved --port 7777 --n 512 --telemetry serve.jsonl
//
// Prints exactly one "repserved: listening on HOST:PORT ..." line to
// stdout once ready (scripts wait for it). SIGINT/SIGTERM shut down
// cleanly: the server stops, the final `serve` telemetry record (counters
// + latency histogram buckets) is flushed, and the exit code is 0.
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "serve/handler.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

struct Options {
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t n = 512;
  std::uint64_t seed = 42;
  std::size_t refold = 2000;
  std::string telemetry;
  bool use_poll = false;
  double max_seconds = 0.0;      ///< 0 = run until signalled
  double metrics_interval = 1.0; ///< seconds between serve_metrics/_health records
  double slow_frame_us = 1000.0; ///< slow-frame threshold; <= 0 disables
};

[[noreturn]] void usage(const char* argv0, const char* msg) {
  std::fprintf(stderr, "repserved: %s\n", msg);
  std::fprintf(stderr,
               "usage: %s [--bind A] [--port P] [--n N] [--seed S]\n"
               "          [--refold K] [--telemetry PATH] [--poll]\n"
               "          [--max-seconds T] [--metrics-interval T]\n"
               "          [--slow-frame-us U]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int i) {
    if (i + 1 >= argc) usage(argv[0], "missing argument value");
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--bind") o.bind = need(i++);
    else if (a == "--port") {
      // Parsed wide so 70000 is rejected instead of wrapping to 4464.
      const long long port = std::atoll(need(i++));
      if (port < 0 || port > 65535) usage(argv[0], "--port must be in [0, 65535]");
      o.port = static_cast<std::uint16_t>(port);
    }
    else if (a == "--n") {
      // Parsed wide so -5 is rejected instead of wrapping to 2^64 - 5.
      const long long n = std::atoll(need(i++));
      if (n < 2) usage(argv[0], "--n must be >= 2");
      o.n = static_cast<std::size_t>(n);
    }
    else if (a == "--seed") o.seed = static_cast<std::uint64_t>(std::atoll(need(i++)));
    else if (a == "--refold") {
      // 0 (or garbage, which reads as 0) would refold on every tick with
      // no new feedback and republish drifting scores.
      const long long refold = std::atoll(need(i++));
      if (refold < 1) usage(argv[0], "--refold must be >= 1");
      o.refold = static_cast<std::size_t>(refold);
    }
    else if (a == "--telemetry") o.telemetry = need(i++);
    else if (a == "--poll") o.use_poll = true;
    else if (a == "--max-seconds") o.max_seconds = std::atof(need(i++));
    else if (a == "--metrics-interval") o.metrics_interval = std::atof(need(i++));
    else if (a == "--slow-frame-us") o.slow_frame_us = std::atof(need(i++));
    else usage(argv[0], ("unknown flag: " + a).c_str());
  }
  return o;
}

double mass_gap_of(const std::vector<double>& scores) {
  double sum = 0.0;
  for (double s : scores) sum += s;
  return std::fabs(sum - 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  auto uptime_now = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // --- seed the reputation state (paper Table 2-shaped workload) -----------
  gt::Rng rng(opt.seed);
  gt::trust::FeedbackLedger ledger(opt.n);
  const std::vector<double> qualities =
      gt::trust::draw_service_qualities(opt.n, opt.n / 10, rng);
  gt::trust::FeedbackGenConfig gen;
  gen.n = opt.n;
  gt::trust::generate_honest_feedback(ledger, qualities, gen, rng);

  gt::core::GossipTrustConfig ecfg;
  ecfg.num_threads = 0;  // one lane per CPU in the affinity mask
  gt::core::GossipTrustEngine engine(opt.n, ecfg);
  gt::core::AggregationResult agg = engine.run(ledger.normalized_matrix(), rng);
  std::fprintf(stderr,
               "repserved: seeded n=%zu lanes=%zu, engine converged=%d in %zu cycles\n",
               opt.n, engine.gossip_lanes(), agg.converged ? 1 : 0,
               agg.num_cycles());

  // --- serving stack --------------------------------------------------------
  gt::serve::ReputationStore store;
  store.publish(agg.scores);

  // Observability plane: JSONL log (disabled when --telemetry is empty),
  // fold-loop health mailbox, slow-frame threshold. The log lives for the
  // whole process so its destructor's final `meta` record covers the run.
  gt::telemetry::EventLogConfig lcfg;
  lcfg.path = opt.telemetry;
  gt::telemetry::EventLog log(lcfg);
  log.set_context("tool", std::string("repserved"));
  log.set_context("n", static_cast<std::uint64_t>(opt.n));
  gt::serve::HealthState health;
  health.note_start();
  health.note_publish(/*folded_through=*/0, agg.converged,
                      agg.degraded_cycles() > 0, mass_gap_of(agg.scores),
                      0.0);

  gt::telemetry::MetricsRegistry registry(1);
  gt::serve::ServerConfig svcfg;
  svcfg.bind_address = opt.bind;
  svcfg.port = opt.port;
  svcfg.use_poll = opt.use_poll;
  svcfg.observability.log = &log;
  svcfg.observability.health = &health;
  svcfg.observability.slow_frame_seconds =
      opt.slow_frame_us > 0.0 ? opt.slow_frame_us * 1e-6 : 0.0;
  gt::serve::Server server(store, registry, svcfg);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "repserved: cannot start server: %s\n", error.c_str());
    return 1;
  }
  std::printf("repserved: listening on %s:%u (backend %s, n %zu)\n",
              opt.bind.c_str(), server.port(), server.backend(), opt.n);
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // --- fold loop: ingest -> ledger -> engine -> publish ---------------------
  std::vector<gt::serve::FeedbackUpdate> drained;
  std::size_t since_refold = 0;
  std::uint64_t refolds = 0;
  std::uint64_t folded = 0;  ///< feedback frames drained into the ledger
  std::vector<double> scores = agg.scores;
  double next_export = opt.metrics_interval;
  while (!g_stop.load(std::memory_order_acquire)) {
    // since_refold < --refold here; the pending count may include frames
    // the ledger will not record, which only wakes the loop early.
    store.wait_feedback(opt.refold - since_refold, std::chrono::milliseconds(50));
    if (opt.max_seconds > 0.0 && uptime_now() >= opt.max_seconds) break;
    store.drain_feedback(drained);
    for (const auto& f : drained) {
      // Out-of-range ids and self-ratings leave the ledger as it was, so
      // only the frames it records count toward the next refold.
      if (f.rater < opt.n && f.ratee < opt.n &&
          ledger.record(static_cast<gt::trust::NodeId>(f.rater),
                        static_cast<gt::trust::NodeId>(f.ratee), f.value))
        ++since_refold;
    }
    folded += drained.size();
    if (since_refold >= opt.refold) {
      since_refold = 0;
      // Every frame drained so far is in the ledger, so the scores this
      // fold publishes cover exactly `folded` frames.
      const std::uint64_t fold_covers = folded;
      const auto f0 = Clock::now();
      gt::core::AggregationResult next =
          engine.run(ledger.normalized_matrix(), rng, nullptr, scores);
      scores = next.scores;
      const std::uint64_t epoch = store.publish(scores);
      const double fold_seconds =
          std::chrono::duration<double>(Clock::now() - f0).count();
      health.note_publish(fold_covers, next.converged,
                          next.degraded_cycles() > 0, mass_gap_of(scores),
                          fold_seconds);
      ++refolds;
      std::fprintf(stderr,
                   "repserved: refold #%llu -> epoch %llu (%zu cycles)\n",
                   static_cast<unsigned long long>(refolds),
                   static_cast<unsigned long long>(epoch), next.num_cycles());
    }
    if (opt.metrics_interval > 0.0 && uptime_now() >= next_export) {
      next_export = uptime_now() + opt.metrics_interval;
      gt::serve::write_serve_metrics_record(log, registry, uptime_now());
      gt::serve::write_serve_health_record(
          log, gt::serve::collect_health(store, &health));
    }
  }

  server.stop();
  const double uptime = uptime_now();

  gt::serve::write_serve_record(log, registry, uptime);
  log.flush();

  const auto snap = registry.snapshot();
  const std::uint64_t* lookups = snap.counter("serve_lookups");
  const std::uint64_t* batch_keys = snap.counter("serve_batch_keys");
  const std::uint64_t* ingests = snap.counter("serve_ingests");
  const std::uint64_t* errors = snap.counter("serve_proto_errors");
  std::fprintf(stderr,
               "repserved: shutdown after %.1fs — lookups=%llu batch_keys=%llu "
               "ingests=%llu proto_errors=%llu refolds=%llu epoch=%llu\n",
               uptime, static_cast<unsigned long long>(lookups ? *lookups : 0),
               static_cast<unsigned long long>(batch_keys ? *batch_keys : 0),
               static_cast<unsigned long long>(ingests ? *ingests : 0),
               static_cast<unsigned long long>(errors ? *errors : 0),
               static_cast<unsigned long long>(refolds),
               static_cast<unsigned long long>(store.published_epoch()));
  return 0;
}
