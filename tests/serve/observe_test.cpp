// Observability plane: METRICS/HEALTH round trips over the loopback
// transport, byte-stability of the snapshot codecs, truncation/garbage
// rejection (terminal parser), histogram lane merging under concurrent
// loops, slow-frame emission, and the fold-loop staleness contract.
#include "serve/observe.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/handler.hpp"
#include "serve/loopback.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace gt::serve {
namespace {

std::vector<double> scores3() { return {0.5, 0.3, 0.2}; }

class ObserveTest : public ::testing::Test {
 protected:
  ObserveTest() : registry(2), metrics(ServeMetrics::register_on(registry)) {
    store.publish(scores3());
  }
  ReputationStore store;
  telemetry::MetricsRegistry registry;
  ServeMetrics metrics;
};

// --- METRICS round trip -----------------------------------------------------

TEST_F(ObserveTest, MetricsRoundTripCountsTraffic) {
  LoopbackClient c(store, metrics);
  (void)c.lookup(0);
  (void)c.lookup(1);
  (void)c.batch_lookup({0, 1, 2});
  (void)c.ingest(1, 2, 0.75);

  const MetricsPayload m = c.metrics();
  EXPECT_EQ(m.version, kMetricsVersion);
  ASSERT_EQ(m.counters.size(), kMetricsCounterCount);
  ASSERT_EQ(m.hists.size(), kMetricsHistogramCount);

  EXPECT_EQ(m.counter(MetricsCounter::kLookups), 2u);
  EXPECT_EQ(m.counter(MetricsCounter::kBatchLookups), 1u);
  EXPECT_EQ(m.counter(MetricsCounter::kBatchKeys), 3u);
  EXPECT_EQ(m.counter(MetricsCounter::kIngests), 1u);
  // Self-inclusive: the METRICS request that produced this snapshot is
  // itself counted, so a poller never reads a zero for its own opcode.
  EXPECT_EQ(m.counter(MetricsCounter::kMetricsRequests), 1u);
  // frames ticks once a frame *completes*, so the in-flight METRICS frame
  // itself is not yet in its own snapshot.
  EXPECT_EQ(m.counter(MetricsCounter::kFrames), 4u);
  EXPECT_EQ(m.counter(MetricsCounter::kProtoErrors), 0u);
  EXPECT_EQ(m.counter(MetricsCounter::kPublishedEpoch), 1u);
  EXPECT_EQ(m.counter(MetricsCounter::kIngestEnqueued), 1u);
  EXPECT_EQ(m.counter(MetricsCounter::kIngestPending), 1u);
  EXPECT_GT(m.counter(MetricsCounter::kBytesIn), 0u);
  EXPECT_GT(m.counter(MetricsCounter::kLookupBytes), 0u);

  // The per-opcode latency histograms saw exactly the timed frames.
  EXPECT_EQ(m.hists[0].count, 2u);  // lookup_seconds
  EXPECT_EQ(m.hists[1].count, 1u);  // batch_seconds
  EXPECT_EQ(m.hists[2].count, 1u);  // ingest_seconds
  for (const MetricsHistogram& h : m.hists) {
    EXPECT_GT(h.growth, 1.0);
    EXPECT_GT(h.bucket_min, 0.0);
    ASSERT_FALSE(h.buckets.empty());
    std::uint64_t total = 0;
    for (std::uint64_t b : h.buckets) total += b;
    EXPECT_EQ(total, h.count);
  }
  const double p99 = m.hists[0].percentile(99.0);
  EXPECT_GT(p99, 0.0);
  EXPECT_GE(m.hists[0].max, m.hists[0].min);
}

TEST_F(ObserveTest, MetricsCounterNamesCoverTheWireOrder) {
  for (std::size_t i = 0; i < kMetricsCounterCount; ++i)
    EXPECT_NE(metrics_counter_name(i), nullptr) << "counter " << i;
  EXPECT_EQ(metrics_counter_name(kMetricsCounterCount), nullptr);
  for (std::size_t i = 0; i < kMetricsHistogramCount; ++i)
    EXPECT_NE(metrics_histogram_name(i), nullptr) << "histogram " << i;
  EXPECT_EQ(metrics_histogram_name(kMetricsHistogramCount), nullptr);
}

// --- byte stability ---------------------------------------------------------

TEST_F(ObserveTest, MetricsSnapshotIsByteStable) {
  LoopbackClient c(store, metrics);
  (void)c.lookup(0);
  (void)c.ingest(0, 1, 0.5);

  // First wire image straight from the handler.
  std::vector<std::uint8_t> first;
  encode_metrics_resp(first, collect_metrics(metrics, store, nullptr));

  // decode(encode(p)) == p, and re-encoding reproduces the exact bytes.
  MetricsPayload decoded;
  ASSERT_TRUE(decode_metrics_resp(first.data() + kHeaderSize,
                                  first.size() - kHeaderSize, &decoded));
  std::vector<std::uint8_t> second;
  encode_metrics_resp(second, decoded);
  EXPECT_EQ(first, second);
}

TEST_F(ObserveTest, HealthSnapshotIsByteStable) {
  HealthState health;
  health.note_start();
  health.note_publish(0, /*converged=*/true, /*degraded=*/false, 1e-15, 0.25);
  store.enqueue_feedback({0, 1, 0.5});

  std::vector<std::uint8_t> first;
  encode_health_resp(first, collect_health(store, &health));
  ASSERT_EQ(first.size(), kHeaderSize + kHealthPayloadSize);

  HealthPayload decoded;
  ASSERT_TRUE(decode_health_resp(first.data() + kHeaderSize,
                                 first.size() - kHeaderSize, &decoded));
  std::vector<std::uint8_t> second;
  encode_health_resp(second, decoded);
  EXPECT_EQ(first, second);

  EXPECT_TRUE(decoded.fold_loop());
  EXPECT_TRUE(decoded.converged());
  EXPECT_FALSE(decoded.degraded());
  EXPECT_EQ(decoded.refolds, 1u);
  EXPECT_DOUBLE_EQ(decoded.last_fold_seconds, 0.25);
}

// --- malformed input --------------------------------------------------------

TEST_F(ObserveTest, MetricsRespDecodeRejectsTruncationAndGarbage) {
  std::vector<std::uint8_t> buf;
  encode_metrics_resp(buf, collect_metrics(metrics, store, nullptr));
  const std::uint8_t* payload = buf.data() + kHeaderSize;
  const std::size_t len = buf.size() - kHeaderSize;
  MetricsPayload m;
  ASSERT_TRUE(decode_metrics_resp(payload, len, &m));

  // Every truncation of the head and a sweep of body truncations fail.
  for (std::size_t cut = 0; cut < 16; ++cut)
    EXPECT_FALSE(decode_metrics_resp(payload, cut, &m)) << "cut " << cut;
  for (std::size_t cut = 16; cut < len; cut += 7)
    EXPECT_FALSE(decode_metrics_resp(payload, cut, &m)) << "cut " << cut;

  std::vector<std::uint8_t> bad(payload, payload + len);
  bad.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_metrics_resp(bad.data(), bad.size(), &m));

  bad.assign(payload, payload + len);
  put_u32(bad.data(), kMetricsVersion + 1);  // unknown snapshot version
  EXPECT_FALSE(decode_metrics_resp(bad.data(), bad.size(), &m));

  bad.assign(payload, payload + len);
  put_u32(bad.data() + 12, 0xdeadbeef);  // nonzero reserved word
  EXPECT_FALSE(decode_metrics_resp(bad.data(), bad.size(), &m));
}

TEST_F(ObserveTest, HealthRespDecodeRejectsTruncationAndGarbage) {
  std::vector<std::uint8_t> buf;
  encode_health_resp(buf, collect_health(store, nullptr));
  const std::uint8_t* payload = buf.data() + kHeaderSize;
  HealthPayload h;
  ASSERT_TRUE(decode_health_resp(payload, kHealthPayloadSize, &h));
  for (std::size_t cut = 0; cut < kHealthPayloadSize; ++cut)
    EXPECT_FALSE(decode_health_resp(payload, cut, &h)) << "cut " << cut;
  EXPECT_FALSE(decode_health_resp(payload, kHealthPayloadSize + 1, &h));

  std::vector<std::uint8_t> bad(payload, payload + kHealthPayloadSize);
  put_u32(bad.data(), kHealthVersion + 1);
  EXPECT_FALSE(decode_health_resp(bad.data(), bad.size(), &h));
}

TEST_F(ObserveTest, IntrospectionRequestsWithPayloadAreTerminal) {
  // METRICS and HEALTH requests carry no payload; a nonzero payload_len is
  // a protocol error and must kill the connection like any other garbage.
  for (const Op op : {Op::kMetrics, Op::kHealth}) {
    ConnectionHandler h(store, metrics);
    std::vector<std::uint8_t> frame(kHeaderSize + 4, 0);
    encode_header(frame.data(), op, 4);
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(h.on_bytes(frame.data(), frame.size(), out));
    EXPECT_TRUE(out.empty());

    // Terminal: even a well-formed follow-up frame is refused.
    std::vector<std::uint8_t> good;
    encode_metrics(good);
    EXPECT_FALSE(h.on_bytes(good.data(), good.size(), out));
  }
  EXPECT_EQ(registry.counter_value(metrics.proto_errors), 2u);
}

// --- histogram lane merge under concurrency ---------------------------------

TEST(ObserveConcurrency, HistogramSnapshotMergesLanesUnderLoad) {
  constexpr std::size_t kLanes = 4;
  constexpr std::uint64_t kPerLane = 20000;
  telemetry::MetricsRegistry registry(kLanes);
  const telemetry::Histogram h =
      registry.histogram("merge_test_seconds", {1e-8, 1.25, 96});

  // One thread per lane, as the server runs one handler lane per loop
  // thread; snapshots taken mid-flight must stay internally consistent.
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    threads.emplace_back([&, lane] {
      for (std::uint64_t i = 0; i < kPerLane; ++i)
        registry.observe(h, 1e-7 * static_cast<double>(lane + 1), lane);
    });
  }
  for (int probe = 0; probe < 50; ++probe) {
    const telemetry::HistogramSnapshot snap = registry.histogram_snapshot(h);
    std::uint64_t total = 0;
    for (std::uint64_t b : snap.counts) total += b;
    EXPECT_EQ(total, snap.count);  // buckets never disagree with the total
    EXPECT_LE(snap.count, kLanes * kPerLane);
  }
  for (std::thread& t : threads) t.join();

  const telemetry::HistogramSnapshot snap = registry.histogram_snapshot(h);
  EXPECT_EQ(snap.count, kLanes * kPerLane);
  EXPECT_DOUBLE_EQ(snap.min, 1e-7);
  EXPECT_DOUBLE_EQ(snap.max, 4e-7);
  std::uint64_t total = 0;
  for (std::uint64_t b : snap.counts) total += b;
  EXPECT_EQ(total, snap.count);
}

// --- staleness regression ---------------------------------------------------

TEST_F(ObserveTest, StalenessTracksIngestBurstAndRecovery) {
  HealthState health;
  health.note_start();
  health.note_publish(0, true, false, 0.0, 0.01);

  // Freshly folded: nothing stale.
  HealthPayload h0 = collect_health(store, &health);
  EXPECT_EQ(h0.staleness_frames, 0u);
  EXPECT_DOUBLE_EQ(h0.staleness_seconds, 0.0);
  EXPECT_TRUE(h0.fold_loop());

  // Ingest burst with the republish paused: the lag grows frame by frame.
  for (std::uint64_t i = 0; i < 100; ++i)
    store.enqueue_feedback({i % 3, (i + 1) % 3, 0.5});
  HealthPayload h1 = collect_health(store, &health);
  EXPECT_EQ(h1.staleness_frames, 100u);
  EXPECT_EQ(h1.ingest_backlog, 100u);
  EXPECT_GT(h1.staleness_seconds, 0.0);

  for (std::uint64_t i = 0; i < 50; ++i)
    store.enqueue_feedback({i % 3, (i + 2) % 3, 0.25});
  HealthPayload h2 = collect_health(store, &health);
  EXPECT_EQ(h2.staleness_frames, 150u);
  EXPECT_GE(h2.staleness_seconds, h1.staleness_seconds);

  // Fold loop catches up: drain, republish, note the fold — staleness
  // collapses to zero and the refold count ticks.
  std::vector<FeedbackUpdate> drained;
  EXPECT_EQ(store.drain_feedback(drained), 150u);
  store.publish(scores3());
  health.note_publish(store.feedback_enqueued(), true, false, 0.0, 0.02);
  HealthPayload h3 = collect_health(store, &health);
  EXPECT_EQ(h3.staleness_frames, 0u);
  EXPECT_DOUBLE_EQ(h3.staleness_seconds, 0.0);
  EXPECT_EQ(h3.ingest_backlog, 0u);
  EXPECT_EQ(h3.refolds, 2u);
  EXPECT_EQ(h3.published_epoch, 2u);

  // Partial fold: frames accepted after the fold's cutoff stay stale.
  store.enqueue_feedback({0, 1, 0.5});
  HealthPayload h4 = collect_health(store, &health);
  EXPECT_EQ(h4.staleness_frames, 1u);
  EXPECT_GT(h4.staleness_seconds, 0.0);
}

// A HEALTH reply carries one fold's fields, never a mix of two. The writer
// publishes fold k with folded_through = 1000 k and fold_seconds = k, so
// every reply must read folded_through == 1000 * refolds and
// last_fold_seconds == refolds.
TEST_F(ObserveTest, HealthNeverMixesTwoFolds) {
  constexpr std::uint64_t kFolds = 1000;
  constexpr std::uint64_t kStride = 1000;
  // HEALTH reports folded_through as enqueued - staleness_frames, which
  // needs at least kFolds * kStride frames enqueued.
  std::vector<FeedbackUpdate> drained;
  for (std::uint64_t i = 1; i <= kFolds * kStride; ++i) {
    store.enqueue_feedback({0, 1, 0.5});
    if (i % 4096 == 0) store.drain_feedback(drained);
  }
  const std::uint64_t enqueued = store.feedback_enqueued();

  HealthState health;
  health.note_start();
  std::atomic<bool> reading{false}, done{false};
  std::thread writer([&] {
    while (!reading.load()) std::this_thread::yield();
    for (std::uint64_t k = 1; k <= kFolds; ++k)
      health.note_publish(k * kStride, true, false, 0.0, static_cast<double>(k));
    done.store(true);
  });
  std::uint64_t replies = 0, mixed = 0;
  reading.store(true);
  while (!done.load()) {
    const HealthPayload h = collect_health(store, &health);
    const std::uint64_t folded_through = enqueued - h.staleness_frames;
    if (folded_through != kStride * h.refolds ||
        h.last_fold_seconds != static_cast<double>(h.refolds))
      ++mixed;
    ++replies;
  }
  writer.join();
  EXPECT_EQ(mixed, 0u) << "of " << replies << " replies";
  const HealthPayload last = collect_health(store, &health);
  EXPECT_EQ(last.refolds, kFolds);
  EXPECT_EQ(enqueued - last.staleness_frames, kFolds * kStride);
}

TEST_F(ObserveTest, HealthWithoutFoldLoopReportsStoreOnly) {
  store.enqueue_feedback({0, 1, 0.5});
  store.enqueue_feedback({1, 2, 0.25});
  const HealthPayload h = collect_health(store, nullptr);
  EXPECT_EQ(h.flags, 0u);
  EXPECT_FALSE(h.fold_loop());
  EXPECT_EQ(h.published_epoch, 1u);
  EXPECT_EQ(h.ingest_backlog, 2u);
  EXPECT_EQ(h.staleness_frames, 2u);  // the queue is the only known lag
  EXPECT_EQ(h.refolds, 0u);
}

TEST_F(ObserveTest, HealthRoundTripOverLoopback) {
  HealthState health;
  health.note_start();
  health.note_publish(0, true, false, 2e-16, 0.125);
  ServeObservability obs;
  obs.health = &health;
  LoopbackClient c(store, metrics, 0, 0, &obs);
  const HealthPayload h = c.health();
  EXPECT_EQ(h.version, kHealthVersion);
  EXPECT_TRUE(h.fold_loop());
  EXPECT_TRUE(h.converged());
  EXPECT_EQ(h.published_epoch, 1u);
  EXPECT_DOUBLE_EQ(h.mass_gap, 2e-16);
  EXPECT_GE(h.uptime_seconds, 0.0);
  EXPECT_EQ(registry.counter_value(metrics.health_requests), 1u);
}

// --- slow frames + log counters ---------------------------------------------

TEST_F(ObserveTest, SlowFramesAreCountedAndLogged) {
  const std::string path =
      ::testing::TempDir() + "observe_slow_frames.jsonl";
  {
    telemetry::EventLogConfig lcfg;
    lcfg.path = path;
    telemetry::EventLog log(lcfg);
    ServeObservability obs;
    obs.log = &log;
    obs.slow_frame_seconds = 1e-12;  // every frame is "slow"
    LoopbackClient c(store, metrics, 0, 0, &obs);
    (void)c.lookup(0);
    (void)c.ingest(0, 1, 0.5);
    EXPECT_EQ(registry.counter_value(metrics.slow_frames), 2u);

    // The handler's log counters surface in the METRICS snapshot. The
    // snapshot sees the two slow frames so far; the METRICS frame itself
    // then trips the threshold too, logging a third record afterwards.
    const MetricsPayload m = c.metrics();
    EXPECT_EQ(m.counter(MetricsCounter::kSlowFrames), 2u);
    EXPECT_EQ(m.counter(MetricsCounter::kLogRecords), 2u);
    EXPECT_EQ(m.counter(MetricsCounter::kLogLinesDropped), 0u);
    EXPECT_EQ(log.records_logged(), 3u);
    EXPECT_EQ(registry.counter_value(metrics.slow_frames), 3u);
  }
  std::FILE* fh = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fh, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), fh));
  std::fclose(fh);
  EXPECT_NE(text.find("\"event\":\"slow_frame\""), std::string::npos);
  EXPECT_NE(text.find("\"opcode\":"), std::string::npos);
  EXPECT_NE(text.find("\"conn\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObserveTest, SlowFrameCheckDisabledByDefault) {
  LoopbackClient c(store, metrics);
  (void)c.lookup(0);
  EXPECT_EQ(registry.counter_value(metrics.slow_frames), 0u);
}

// --- extended STATS (satellite a) -------------------------------------------

TEST_F(ObserveTest, StatsCarriesBackpressureAndReclamationFields) {
  LoopbackClient c(store, metrics);
  (void)c.lookup(0);

  const StatsPayload s0 = c.stats();
  // Old fields at their stable offsets.
  EXPECT_EQ(s0.lookups, 1u);
  EXPECT_EQ(s0.published_epoch, 1u);
  EXPECT_EQ(s0.protocol_errors, 0u);
  // Appended fields: no backpressure on a loopback, reclamation mirrors
  // the store.
  EXPECT_EQ(s0.bp_pauses, 0u);
  EXPECT_EQ(s0.bp_resumes, 0u);
  EXPECT_EQ(s0.snapshots_reclaimed, store.snapshots_reclaimed());
  EXPECT_EQ(s0.limbo_size, store.limbo_size());

  // Republishing retires snapshots; STATS sees the store-side motion.
  for (int i = 0; i < 4; ++i) store.publish(scores3());
  const StatsPayload s1 = c.stats();
  EXPECT_EQ(s1.published_epoch, 5u);
  EXPECT_GE(s1.snapshots_reclaimed + s1.limbo_size, 4u);

  // Wire size is pinned: 12 u64 fields, old offsets unchanged.
  std::vector<std::uint8_t> buf;
  encode_stats_resp(buf, s1);
  EXPECT_EQ(buf.size(), kHeaderSize + kStatsPayloadSize);
  EXPECT_EQ(kStatsPayloadSize, 96u);
}

}  // namespace
}  // namespace gt::serve
