// repload — load generator for the live reputation service.
//
// Replays a simulator-shaped workload against a serve::Server: Zipf-skewed
// BATCH_LOOKUPs over the fig3-style score distribution (popular nodes are
// queried most) with a configurable INGEST mix, through pipelined
// connections, and reports aggregate throughput plus exact p50/p99/p999
// client-side latency.
//
// Modes:
//   client (default)  connect to --host/--port (a running repserved) and
//                     drive it for --duration seconds; exit 3 when zero
//                     lookups succeeded (the CI smoke assertion).
//   --inproc          no sockets: drive a ConnectionHandler directly over
//                     an in-process store — the pure serve-path cost.
//   --bench           self-contained perf cases for BENCH_7.json: starts
//                     its own store + TCP server, runs the inproc (plain
//                     and observed, alternating best-of-3 to measure the
//                     observability overhead fraction), TCP lookup, and
//                     TCP mixed cases, and prints one JSON document
//                     {"cases": {...}} on stdout
//                     (scripts/bench_record.py --serve folds + gates it).
//   --watch           poll METRICS/HEALTH against a running repserved
//                     every --watch-interval seconds and print a live
//                     scoreboard: per-opcode request rates and interval
//                     p50/p99/p999 (from histogram bucket deltas), plus
//                     epoch/staleness/backpressure health.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/powerlaw.hpp"
#include "common/rng.hpp"
#include "serve/handler.hpp"
#include "serve/loopback.hpp"
#include "serve/observe.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t n = 100000;       ///< id space of the workload
  double zipf_s = 0.8;          ///< lookup skew (rank 0 = most popular)
  std::size_t batch = 64;       ///< keys per BATCH_LOOKUP
  std::size_t pipeline = 8;     ///< outstanding frames per connection
  std::size_t connections = 1;  ///< one worker thread per connection
  double duration = 3.0;
  double ingest_fraction = 0.0;
  std::uint64_t seed = 1;
  int connect_retries = 50;     ///< x 100ms — lets CI start server lazily
  bool inproc = false;
  bool bench = false;
  double bench_seconds = 1.0;
  bool json = false;
  bool use_poll = false;        ///< --bench: force the poll backend
  bool watch = false;           ///< live METRICS/HEALTH scoreboard
  double watch_interval = 1.0;  ///< seconds between scoreboard polls
};

[[noreturn]] void usage(const char* argv0, const std::string& msg) {
  std::fprintf(stderr, "repload: %s\n", msg.c_str());
  std::fprintf(
      stderr,
      "usage: %s [--host H] [--port P] [--n N] [--zipf S] [--batch B]\n"
      "          [--pipeline D] [--connections C] [--duration SEC]\n"
      "          [--ingest-fraction F] [--seed S] [--json]\n"
      "          [--inproc | --bench [--bench-seconds SEC] [--poll]\n"
      "           | --watch [--watch-interval SEC]]\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int i) {
    if (i + 1 >= argc) usage(argv[0], "missing argument value");
    return argv[i + 1];
  };
  // Sizes are parsed wide so a negative value is rejected instead of
  // wrapping to a huge size.
  auto positive = [&](int i, const std::string& flag) {
    const long long v = std::atoll(need(i));
    if (v <= 0) usage(argv[0], flag + " must be > 0");
    return static_cast<std::size_t>(v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--host") o.host = need(i++);
    else if (a == "--port") {
      // Parsed wide so 70000 is rejected instead of wrapping to 4464.
      const long long port = std::atoll(need(i++));
      if (port < 0 || port > 65535) usage(argv[0], "--port must be in [0, 65535]");
      o.port = static_cast<std::uint16_t>(port);
    }
    else if (a == "--n") o.n = positive(i++, a);
    else if (a == "--zipf") o.zipf_s = std::atof(need(i++));
    else if (a == "--batch") o.batch = positive(i++, a);
    else if (a == "--pipeline") o.pipeline = positive(i++, a);
    else if (a == "--connections") o.connections = positive(i++, a);
    else if (a == "--duration") o.duration = std::atof(need(i++));
    else if (a == "--ingest-fraction") o.ingest_fraction = std::atof(need(i++));
    else if (a == "--seed") o.seed = static_cast<std::uint64_t>(std::atoll(need(i++)));
    else if (a == "--connect-retries") o.connect_retries = std::atoi(need(i++));
    else if (a == "--inproc") o.inproc = true;
    else if (a == "--bench") o.bench = true;
    else if (a == "--bench-seconds") o.bench_seconds = std::atof(need(i++));
    else if (a == "--json") o.json = true;
    else if (a == "--poll") o.use_poll = true;
    else if (a == "--watch") o.watch = true;
    else if (a == "--watch-interval") o.watch_interval = std::atof(need(i++));
    else usage(argv[0], "unknown flag: " + a);
  }
  if (o.batch > gt::serve::kMaxBatch)
    usage(argv[0], "--batch exceeds protocol kMaxBatch (" +
                       std::to_string(gt::serve::kMaxBatch) + ")");
  if (o.bench && o.port != 0) usage(argv[0], "--bench runs its own server");
  if (o.watch && (o.bench || o.inproc))
    usage(argv[0], "--watch is a client mode (needs --port)");
  if (!o.bench && !o.inproc && o.port == 0)
    usage(argv[0], "client mode needs --port");
  if (o.watch && o.watch_interval <= 0.0)
    usage(argv[0], "--watch-interval must be > 0");
  return o;
}

struct WorkerStats {
  std::uint64_t frames = 0;       ///< responses received
  std::uint64_t lookup_keys = 0;  ///< keys answered via BATCH_LOOKUP
  std::uint64_t ingests = 0;
  std::uint64_t found = 0;        ///< keys answered with epoch != 0
  std::uint64_t errors = 0;
  double wall_seconds = 0.0;
  std::vector<double> latencies_us;  ///< per-frame round trip
};

/// Pre-draws Zipf-ranked node ids (rank == node id: the fig3 score
/// distribution ranks nodes by reputation, most reputable first).
std::vector<std::uint64_t> presample_ids(const Options& o, std::uint64_t seed,
                                         std::size_t count) {
  gt::Rng rng(seed);
  const gt::ZipfSampler zipf(o.n, o.zipf_s);
  std::vector<std::uint64_t> ids(count);
  for (auto& id : ids) id = zipf.sample(rng);
  return ids;
}

int connect_retry(const Options& o) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(o.port);
  if (::inet_pton(AF_INET, o.host.c_str(), &addr.sin_addr) != 1) return -1;
  for (int attempt = 0; attempt <= o.connect_retries; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      timeval tv{2, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return -1;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool read_exact(int fd, std::uint8_t* p, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, p + got, len - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Sends one empty-payload request and reads back exactly one frame,
/// checking the response opcode. Used by the --watch poller and the final
/// STATS round trip.
bool fetch_frame(int fd, gt::serve::Op req, gt::serve::Op resp,
                 std::vector<std::uint8_t>& payload) {
  std::uint8_t hdr[gt::serve::kHeaderSize];
  gt::serve::encode_header(hdr, req, 0);
  if (!write_all(fd, hdr, sizeof(hdr))) return false;
  if (!read_exact(fd, hdr, sizeof(hdr))) return false;
  gt::serve::FrameHeader h;
  if (!gt::serve::decode_header(hdr, &h)) return false;
  if (static_cast<gt::serve::Op>(h.opcode) != resp) return false;
  payload.resize(h.payload_len);
  return h.payload_len == 0 || read_exact(fd, payload.data(), h.payload_len);
}

/// Interval percentile from two cumulative snapshots of the same
/// histogram: subtract the bucket counts, keep the cumulative min/max as
/// the best available bounds.
gt::serve::MetricsHistogram hist_delta(const gt::serve::MetricsHistogram& cur,
                                       const gt::serve::MetricsHistogram& prev) {
  gt::serve::MetricsHistogram d = cur;
  if (prev.buckets.size() == cur.buckets.size()) {
    for (std::size_t i = 0; i < d.buckets.size(); ++i)
      d.buckets[i] -= prev.buckets[i];
    d.count -= prev.count;
    d.sum -= prev.sum;
  }
  return d;
}

/// Live scoreboard: polls METRICS + HEALTH every watch_interval and prints
/// per-opcode interval rates + p50/p99/p999 plus the health line.
int run_watch(const Options& o) {
  const int fd = connect_retry(o);
  if (fd < 0) {
    std::fprintf(stderr, "repload: --watch cannot connect to %s:%u\n",
                 o.host.c_str(), o.port);
    return 1;
  }
  using gt::serve::MetricsCounter;
  const auto t_start = Clock::now();
  gt::serve::MetricsPayload prev;
  bool have_prev = false;
  std::uint64_t polls = 0;
  std::vector<std::uint8_t> payload;
  while (o.duration <= 0.0 ||
         std::chrono::duration<double>(Clock::now() - t_start).count() <
             o.duration) {
    std::this_thread::sleep_for(
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(o.watch_interval)));
    gt::serve::MetricsPayload m;
    gt::serve::HealthPayload h;
    if (!fetch_frame(fd, gt::serve::Op::kMetrics, gt::serve::Op::kMetricsResp,
                     payload) ||
        !gt::serve::decode_metrics_resp(payload.data(), payload.size(), &m)) {
      std::fprintf(stderr, "repload: METRICS poll failed\n");
      break;
    }
    if (!fetch_frame(fd, gt::serve::Op::kHealth, gt::serve::Op::kHealthResp,
                     payload) ||
        !gt::serve::decode_health_resp(payload.data(), payload.size(), &h)) {
      std::fprintf(stderr, "repload: HEALTH poll failed\n");
      break;
    }
    const double t = std::chrono::duration<double>(Clock::now() - t_start).count();
    if (have_prev) {
      const double dt = o.watch_interval;
      auto rate = [&](MetricsCounter c) {
        return static_cast<double>(m.counter(c) - prev.counter(c)) / dt;
      };
      struct OpRow {
        const char* name;
        MetricsCounter reqs;
        std::size_t hist;
      };
      static constexpr OpRow kRows[] = {
          {"lookup", MetricsCounter::kLookups, 0},
          {"batch", MetricsCounter::kBatchLookups, 1},
          {"ingest", MetricsCounter::kIngests, 2},
      };
      for (const OpRow& row : kRows) {
        const double rps = rate(row.reqs);
        if (rps <= 0.0) continue;
        gt::serve::MetricsHistogram d =
            row.hist < m.hists.size() && row.hist < prev.hists.size()
                ? hist_delta(m.hists[row.hist], prev.hists[row.hist])
                : gt::serve::MetricsHistogram{};
        std::printf("[%7.1fs] %-6s %10.3e req/s", t, row.name, rps);
        if (row.hist == 1)
          std::printf("  %10.3e keys/s", rate(MetricsCounter::kBatchKeys));
        std::printf("  p50 %8.2fus  p99 %8.2fus  p999 %8.2fus\n",
                    d.percentile(50.0) * 1e6, d.percentile(99.0) * 1e6,
                    d.percentile(99.9) * 1e6);
      }
      std::printf(
          "[%7.1fs] health epoch %llu  backlog %llu  stale %llu frames / "
          "%.2fs  gap %.2e  conv %d degr %d  bp %llu/%llu  slow %llu  "
          "dropped %llu\n",
          t, static_cast<unsigned long long>(h.published_epoch),
          static_cast<unsigned long long>(h.ingest_backlog),
          static_cast<unsigned long long>(h.staleness_frames),
          h.staleness_seconds, h.mass_gap, h.converged() ? 1 : 0,
          h.degraded() ? 1 : 0,
          static_cast<unsigned long long>(m.counter(MetricsCounter::kBpPauses)),
          static_cast<unsigned long long>(m.counter(MetricsCounter::kBpResumes)),
          static_cast<unsigned long long>(m.counter(MetricsCounter::kSlowFrames)),
          static_cast<unsigned long long>(
              m.counter(MetricsCounter::kLogLinesDropped)));
      std::fflush(stdout);
    }
    prev = std::move(m);
    have_prev = true;
    ++polls;
  }
  ::close(fd);
  if (polls == 0) {
    std::fprintf(stderr, "repload: --watch got zero successful polls\n");
    return 1;
  }
  return 0;
}

/// One closed-loop pipelined TCP worker (one connection).
void run_tcp_worker(const Options& o, std::size_t tid, WorkerStats& st) {
  const int fd = connect_retry(o);
  if (fd < 0) {
    ++st.errors;
    return;
  }
  const std::vector<std::uint64_t> ids =
      presample_ids(o, o.seed + 7919 * (tid + 1), 1u << 16);
  gt::Rng mixrng(o.seed ^ (0x9e37u + tid));
  std::size_t id_cursor = 0;
  auto next_id = [&] {
    const std::uint64_t id = ids[id_cursor];
    id_cursor = (id_cursor + 1) & (ids.size() - 1);
    return id;
  };

  std::vector<std::uint64_t> batch_ids(o.batch);
  std::vector<std::uint8_t> tx;
  std::vector<Clock::time_point> send_times(o.pipeline);
  std::size_t ring_head = 0, ring_tail = 0, outstanding = 0;

  const auto t_start = Clock::now();
  const auto deadline = t_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(o.duration));
  bool dead = false;
  auto send_one = [&] {
    tx.clear();
    if (o.ingest_fraction > 0.0 &&
        mixrng.next_double() < o.ingest_fraction) {
      const std::uint64_t rater = mixrng.next_below(o.n);
      std::uint64_t ratee = mixrng.next_below(o.n);
      if (ratee == rater) ratee = (ratee + 1) % o.n;
      gt::serve::encode_ingest(tx, rater, ratee, 0.5 + 0.5 * mixrng.next_double());
    } else {
      for (auto& id : batch_ids) id = next_id();
      gt::serve::encode_batch_lookup(tx, batch_ids.data(), batch_ids.size());
    }
    send_times[ring_tail] = Clock::now();
    ring_tail = (ring_tail + 1) % o.pipeline;
    ++outstanding;
    if (!write_all(fd, tx.data(), tx.size())) {
      ++st.errors;
      dead = true;
    }
  };

  st.latencies_us.reserve(1u << 18);
  gt::serve::FrameParser parser;
  std::vector<std::uint8_t> rxbuf(64 * 1024);
  for (std::size_t i = 0; i < o.pipeline && !dead; ++i) send_one();
  while (outstanding > 0 && !dead) {
    const ssize_t n = ::read(fd, rxbuf.data(), rxbuf.size());
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ++st.errors;  // timeout, EOF, or error with frames still outstanding
      break;
    }
    if (!parser.feed(rxbuf.data(), static_cast<std::size_t>(n))) {
      ++st.errors;
      break;
    }
    gt::serve::FrameParser::Frame f;
    bool malformed = false;
    while (parser.next(&f)) {
      const auto t_now = Clock::now();
      st.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(t_now - send_times[ring_head])
              .count());
      ring_head = (ring_head + 1) % o.pipeline;
      --outstanding;
      ++st.frames;
      switch (static_cast<gt::serve::Op>(f.header.opcode)) {
        case gt::serve::Op::kBatchLookupResp: {
          std::uint32_t count = 0;
          const std::uint8_t* e = gt::serve::decode_batch_resp(
              f.payload, f.header.payload_len, &count);
          if (e == nullptr) {
            malformed = true;
            break;
          }
          st.lookup_keys += count;
          for (std::uint32_t k = 0; k < count; ++k)
            if (gt::serve::get_u64(e + 16 * k) != 0) ++st.found;
          break;
        }
        case gt::serve::Op::kIngestResp:
          ++st.ingests;
          break;
        default:
          malformed = true;
          break;
      }
      if (malformed) break;
      if (t_now < deadline && !dead) send_one();
    }
    if (malformed || parser.error()) {
      ++st.errors;
      break;
    }
  }
  st.wall_seconds = std::chrono::duration<double>(Clock::now() - t_start).count();
  ::close(fd);
}

/// No-socket worker: full protocol path against an in-process store. `obs`
/// (optional) threads the observability context through, matching what a
/// repserved deployment records per frame.
void run_inproc(const Options& o, gt::serve::ReputationStore& store,
                gt::serve::ServeMetrics& metrics, WorkerStats& st,
                const gt::serve::ServeObservability* obs = nullptr) {
  gt::serve::ConnectionHandler handler(store, metrics, /*lane=*/0, obs);
  const std::vector<std::uint64_t> ids = presample_ids(o, o.seed, 1u << 16);
  std::size_t id_cursor = 0;
  std::vector<std::uint64_t> batch_ids(o.batch);
  std::vector<std::uint8_t> tx, rx;
  st.latencies_us.reserve(1u << 18);
  const auto t_start = Clock::now();
  const auto deadline = t_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(o.duration));
  for (;;) {
    const auto t0 = Clock::now();
    if (t0 >= deadline) break;
    for (auto& id : batch_ids) {
      id = ids[id_cursor];
      id_cursor = (id_cursor + 1) & (ids.size() - 1);
    }
    tx.clear();
    rx.clear();
    gt::serve::encode_batch_lookup(tx, batch_ids.data(), batch_ids.size());
    if (!handler.on_bytes(tx.data(), tx.size(), rx)) {
      ++st.errors;
      break;
    }
    const auto t1 = Clock::now();
    st.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++st.frames;
    st.lookup_keys += o.batch;
  }
  st.wall_seconds = std::chrono::duration<double>(Clock::now() - t_start).count();
  // found-count via one verification batch (keeps the hot loop pure).
  gt::serve::LoopbackClient probe(store, metrics);
  for (const auto r : probe.batch_lookup(batch_ids))
    if (r.epoch != 0) ++st.found;
}

WorkerStats merge(std::vector<WorkerStats>& parts) {
  WorkerStats total;
  for (auto& p : parts) {
    total.frames += p.frames;
    total.lookup_keys += p.lookup_keys;
    total.ingests += p.ingests;
    total.found += p.found;
    total.errors += p.errors;
    total.wall_seconds = std::max(total.wall_seconds, p.wall_seconds);
    total.latencies_us.insert(total.latencies_us.end(), p.latencies_us.begin(),
                              p.latencies_us.end());
  }
  return total;
}

double percentile(std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double idx = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct CaseResult {
  std::string name;
  WorkerStats stats;
  double p50 = 0, p99 = 0, p999 = 0;
  double lookups_per_sec = 0, ops_per_sec = 0, ns_per_op = 0;
  double floor_lookups_per_sec = 0;  ///< acceptance floor recorded for gates
  double overhead_frac = -1.0;  ///< observed-vs-plain throughput cost (>= 0)
};

CaseResult summarize(const std::string& name, WorkerStats stats) {
  CaseResult r;
  r.name = name;
  std::sort(stats.latencies_us.begin(), stats.latencies_us.end());
  r.p50 = percentile(stats.latencies_us, 50.0);
  r.p99 = percentile(stats.latencies_us, 99.0);
  r.p999 = percentile(stats.latencies_us, 99.9);
  const double wall = stats.wall_seconds > 0 ? stats.wall_seconds : 1e-9;
  const double ops = static_cast<double>(stats.lookup_keys + stats.ingests);
  r.lookups_per_sec = static_cast<double>(stats.lookup_keys) / wall;
  r.ops_per_sec = ops / wall;
  r.ns_per_op = ops > 0 ? 1e9 * wall / ops : 0.0;
  r.stats = std::move(stats);
  return r;
}

void print_human(const CaseResult& r) {
  std::fprintf(stderr,
               "%-22s %12.3e lookups/s %10.1f ns/op  p50 %8.1f us  p99 %8.1f "
               "us  p999 %8.1f us  (%llu frames, %llu ingests, %llu found, "
               "%llu errors, %.2fs)\n",
               r.name.c_str(), r.lookups_per_sec, r.ns_per_op, r.p50, r.p99,
               r.p999, static_cast<unsigned long long>(r.stats.frames),
               static_cast<unsigned long long>(r.stats.ingests),
               static_cast<unsigned long long>(r.stats.found),
               static_cast<unsigned long long>(r.stats.errors),
               r.stats.wall_seconds);
}

void print_json(const std::vector<CaseResult>& cases) {
  std::printf("{\n  \"bench\": \"repload\",\n  \"cases\": {\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& r = cases[i];
    std::printf("    \"%s\": {\n", r.name.c_str());
    std::printf("      \"lookups_per_sec\": %.6e,\n", r.lookups_per_sec);
    std::printf("      \"ops_per_sec\": %.6e,\n", r.ops_per_sec);
    std::printf("      \"ns_per_op\": %.6f,\n", r.ns_per_op);
    std::printf("      \"p50_us\": %.3f,\n", r.p50);
    std::printf("      \"p99_us\": %.3f,\n", r.p99);
    std::printf("      \"p999_us\": %.3f,\n", r.p999);
    std::printf("      \"frames\": %llu,\n",
                static_cast<unsigned long long>(r.stats.frames));
    std::printf("      \"ingests\": %llu,\n",
                static_cast<unsigned long long>(r.stats.ingests));
    std::printf("      \"errors\": %llu,\n",
                static_cast<unsigned long long>(r.stats.errors));
    if (r.floor_lookups_per_sec > 0)
      std::printf("      \"floor_lookups_per_sec\": %.6e,\n",
                  r.floor_lookups_per_sec);
    if (r.overhead_frac >= 0)
      std::printf("      \"overhead_frac\": %.6f,\n", r.overhead_frac);
    std::printf("      \"wall_seconds\": %.3f\n    }%s\n", r.stats.wall_seconds,
                i + 1 < cases.size() ? "," : "");
  }
  std::printf("  }\n}\n");
}

/// fig3-shaped synthetic reputation: power-law scores, rank == id,
/// normalized to sum 1 like a converged global reputation vector.
std::vector<double> synthetic_scores(std::size_t n) {
  std::vector<double> scores(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = 1.0 / std::pow(static_cast<double>(i + 1), 0.8);
    sum += scores[i];
  }
  for (auto& s : scores) s /= sum;
  return scores;
}

int run_bench(Options o) {
  std::vector<CaseResult> cases;

  // Cases 1+2: in-process serve path (parser + store lookup + encoder),
  // the mutex-free read path the >= 1M lookups/s acceptance floor gates —
  // run plain and with the full observability context (EventLog +
  // slow-frame threshold) in alternation, best of 3 each, so thermal /
  // scheduler drift hits both sides equally. The observed case reports
  // overhead_frac = 1 - best_observed / best_plain, gated <= 2% by
  // scripts/bench_record.py.
  {
    gt::serve::ReputationStore store;
    store.publish(synthetic_scores(o.n));
    gt::telemetry::MetricsRegistry registry(1);
    gt::serve::ServeMetrics metrics =
        gt::serve::ServeMetrics::register_on(registry);
    gt::telemetry::EventLogConfig lcfg;
    lcfg.path = "/dev/null";
    gt::telemetry::EventLog log(lcfg);
    gt::serve::HealthState health;
    health.note_start();
    gt::serve::ServeObservability obs;
    obs.log = &log;
    obs.health = &health;
    obs.slow_frame_seconds = 1e-3;
    Options io = o;
    io.duration = o.bench_seconds;
    CaseResult best_plain, best_obs;
    for (int round = 0; round < 3; ++round) {
      WorkerStats plain_st, obs_st;
      run_inproc(io, store, metrics, plain_st);
      run_inproc(io, store, metrics, obs_st, &obs);
      CaseResult p = summarize("serve_lookup_inproc", std::move(plain_st));
      CaseResult ob =
          summarize("serve_lookup_inproc_observed", std::move(obs_st));
      if (p.lookups_per_sec > best_plain.lookups_per_sec)
        best_plain = std::move(p);
      if (ob.lookups_per_sec > best_obs.lookups_per_sec)
        best_obs = std::move(ob);
    }
    best_plain.floor_lookups_per_sec = 1e6;
    best_obs.floor_lookups_per_sec = 1e6;
    best_obs.overhead_frac = std::max(
        0.0, 1.0 - best_obs.lookups_per_sec /
                       std::max(best_plain.lookups_per_sec, 1e-9));
    print_human(best_plain);
    print_human(best_obs);
    std::fprintf(stderr, "observability overhead: %.2f%%\n",
                 100.0 * best_obs.overhead_frac);
    cases.push_back(std::move(best_plain));
    cases.push_back(std::move(best_obs));
  }

  // Cases 2+3: the full TCP stack on a loopback socket.
  {
    gt::serve::ReputationStore store;
    store.publish(synthetic_scores(o.n));
    gt::telemetry::MetricsRegistry registry(1);
    gt::serve::ServerConfig scfg;
    scfg.use_poll = o.use_poll;
    gt::serve::Server server(store, registry, scfg);
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "repload: cannot start bench server: %s\n",
                   error.c_str());
      return 1;
    }
    Options to = o;
    to.port = server.port();
    to.duration = o.bench_seconds;
    for (const auto& [name, ingest_frac] :
         {std::pair<const char*, double>{"serve_lookup_tcp", 0.0},
          std::pair<const char*, double>{"serve_mixed_tcp", 0.10}}) {
      Options co = to;
      co.ingest_fraction = ingest_frac;
      std::vector<WorkerStats> parts(co.connections);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < co.connections; ++t)
        threads.emplace_back(run_tcp_worker, std::cref(co), t,
                             std::ref(parts[t]));
      for (auto& th : threads) th.join();
      WorkerStats total = merge(parts);
      CaseResult r = summarize(name, std::move(total));
      print_human(r);
      cases.push_back(std::move(r));
    }
    server.stop();
  }

  print_json(cases);
  bool failed = false;
  for (const auto& r : cases)
    if (r.stats.errors != 0 || r.stats.frames == 0) failed = true;
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);
  if (o.bench) return run_bench(o);
  if (o.watch) return run_watch(o);

  if (o.inproc) {
    gt::serve::ReputationStore store;
    store.publish(synthetic_scores(o.n));
    gt::telemetry::MetricsRegistry registry(1);
    gt::serve::ServeMetrics metrics =
        gt::serve::ServeMetrics::register_on(registry);
    WorkerStats st;
    run_inproc(o, store, metrics, st);
    CaseResult r = summarize("serve_lookup_inproc", std::move(st));
    print_human(r);
    if (o.json) print_json({r});
    return r.stats.lookup_keys > 0 ? 0 : 3;
  }

  // Client mode against a live server.
  std::vector<WorkerStats> parts(o.connections);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < o.connections; ++t)
    threads.emplace_back(run_tcp_worker, std::cref(o), t, std::ref(parts[t]));
  for (auto& th : threads) th.join();
  WorkerStats total = merge(parts);
  CaseResult r = summarize("serve_client", std::move(total));
  print_human(r);

  // Final STATS round trip: surfaces the server-side view of the burst.
  if (const int fd = connect_retry(o); fd >= 0) {
    std::vector<std::uint8_t> tx;
    gt::serve::encode_stats(tx);
    if (write_all(fd, tx.data(), tx.size())) {
      std::uint8_t buf[gt::serve::kHeaderSize + gt::serve::kStatsPayloadSize];
      std::size_t got = 0;
      while (got < sizeof(buf)) {
        const ssize_t n = ::read(fd, buf + got, sizeof(buf) - got);
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      gt::serve::StatsPayload s;
      if (got == sizeof(buf) &&
          gt::serve::decode_stats_resp(buf + gt::serve::kHeaderSize,
                                       gt::serve::kStatsPayloadSize, &s)) {
        std::fprintf(stderr,
                     "server stats: batch_keys=%llu ingests=%llu "
                     "proto_errors=%llu epoch=%llu pending=%llu\n",
                     static_cast<unsigned long long>(s.batch_keys),
                     static_cast<unsigned long long>(s.ingests),
                     static_cast<unsigned long long>(s.protocol_errors),
                     static_cast<unsigned long long>(s.published_epoch),
                     static_cast<unsigned long long>(s.ingest_pending));
      }
    }
    ::close(fd);
  }
  if (o.json) print_json({r});
  if (r.stats.lookup_keys == 0) {
    std::fprintf(stderr, "repload: FAILED — zero successful lookups\n");
    return 3;
  }
  return r.stats.errors != 0 ? 1 : 0;
}
