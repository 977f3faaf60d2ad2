#include "serve/observe.hpp"

#include <chrono>

#include "serve/handler.hpp"
#include "serve/store.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace gt::serve {

std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void HealthState::note_start() {
  const std::lock_guard<std::mutex> lock(mu_);
  start_ns_ = monotonic_ns();
  fold_.flags |= kHealthFlagFoldLoop;
}

void HealthState::note_publish(std::uint64_t folded_through, bool converged,
                               bool degraded, double mass_gap,
                               double fold_seconds) {
  const std::uint64_t now = monotonic_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  fold_.folded_through = folded_through;
  ++fold_.refolds;
  fold_.flags = (fold_.flags & kHealthFlagFoldLoop) |
                (converged ? kHealthFlagConverged : 0u) |
                (degraded ? kHealthFlagDegraded : 0u);
  fold_.mass_gap = mass_gap;
  fold_.fold_seconds = fold_seconds;
  fold_.publish_ns = now;
}

std::uint64_t HealthState::start_ns() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return start_ns_;
}

HealthState::Fold HealthState::last_fold() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fold_;
}

namespace {

MetricsHistogram to_wire(const telemetry::HistogramSnapshot& hs) {
  MetricsHistogram h;
  h.bucket_min = hs.options.min;
  h.growth = hs.options.growth;
  h.count = hs.count;
  h.sum = hs.sum;
  h.min = hs.min;
  h.max = hs.max;
  h.buckets = hs.counts;
  return h;
}

}  // namespace

MetricsPayload collect_metrics(const ServeMetrics& m,
                               const ReputationStore& store,
                               const ServeObservability* obs) {
  const telemetry::MetricsRegistry& reg = *m.registry;
  MetricsPayload p;
  p.counters.assign(kMetricsCounterCount, 0);
  auto set = [&p](MetricsCounter c, std::uint64_t v) {
    p.counters[static_cast<std::size_t>(c)] = v;
  };
  set(MetricsCounter::kLookups, reg.counter_value(m.lookups));
  set(MetricsCounter::kBatchLookups, reg.counter_value(m.batch_lookups));
  set(MetricsCounter::kBatchKeys, reg.counter_value(m.batch_keys));
  set(MetricsCounter::kIngests, reg.counter_value(m.ingests));
  set(MetricsCounter::kStatsRequests, reg.counter_value(m.stats_requests));
  set(MetricsCounter::kMetricsRequests, reg.counter_value(m.metrics_requests));
  set(MetricsCounter::kHealthRequests, reg.counter_value(m.health_requests));
  set(MetricsCounter::kProtoErrors, reg.counter_value(m.proto_errors));
  set(MetricsCounter::kFrames, reg.counter_value(m.frames));
  set(MetricsCounter::kBytesIn, reg.counter_value(m.bytes_in));
  set(MetricsCounter::kBytesOut, reg.counter_value(m.bytes_out));
  set(MetricsCounter::kLookupBytes, reg.counter_value(m.lookup_bytes));
  set(MetricsCounter::kBatchBytes, reg.counter_value(m.batch_bytes));
  set(MetricsCounter::kIngestBytes, reg.counter_value(m.ingest_bytes));
  set(MetricsCounter::kConnsOpened, reg.counter_value(m.conns_opened));
  set(MetricsCounter::kConnsClosed, reg.counter_value(m.conns_closed));
  set(MetricsCounter::kBpPauses, reg.counter_value(m.bp_pauses));
  set(MetricsCounter::kBpResumes, reg.counter_value(m.bp_resumes));
  set(MetricsCounter::kSlowFrames, reg.counter_value(m.slow_frames));
  set(MetricsCounter::kPublishedEpoch, store.published_epoch());
  set(MetricsCounter::kIngestPending, store.feedback_pending());
  set(MetricsCounter::kIngestEnqueued, store.feedback_enqueued());
  set(MetricsCounter::kSnapshotsLive, store.snapshots_live());
  set(MetricsCounter::kSnapshotsReclaimed, store.snapshots_reclaimed());
  set(MetricsCounter::kLimboSize, store.limbo_size());
  if (obs != nullptr && obs->log != nullptr) {
    set(MetricsCounter::kLogLinesDropped, obs->log->lines_dropped());
    set(MetricsCounter::kLogRecords, obs->log->records_logged());
  }
  p.hists.reserve(kMetricsHistogramCount);
  p.hists.push_back(to_wire(reg.histogram_snapshot(m.lookup_seconds)));
  p.hists.push_back(to_wire(reg.histogram_snapshot(m.batch_seconds)));
  p.hists.push_back(to_wire(reg.histogram_snapshot(m.ingest_seconds)));
  return p;
}

HealthPayload collect_health(const ReputationStore& store,
                             const HealthState* health) {
  HealthPayload h;
  h.published_epoch = store.published_epoch();
  h.ingest_backlog = store.feedback_pending();
  h.ingest_enqueued = store.feedback_enqueued();
  if (health == nullptr) {
    // No fold loop: the only staleness the store itself can attest to is
    // the undrained ingest queue.
    h.staleness_frames = h.ingest_backlog;
    return h;
  }
  const HealthState::Fold fold = health->last_fold();
  h.flags = fold.flags;
  h.staleness_frames = h.ingest_enqueued > fold.folded_through
                           ? h.ingest_enqueued - fold.folded_through
                           : 0;
  const std::uint64_t now = monotonic_ns();
  const std::uint64_t last_pub = fold.publish_ns;
  const std::uint64_t start = health->start_ns();
  const std::uint64_t since = start != 0 ? start : now;
  if (h.staleness_frames > 0) {
    // Lag clock starts at the last publish (or process start before the
    // first publish ever lands).
    const std::uint64_t base = last_pub != 0 ? last_pub : since;
    h.staleness_seconds =
        now > base ? static_cast<double>(now - base) * 1e-9 : 0.0;
  }
  h.refolds = fold.refolds;
  h.mass_gap = fold.mass_gap;
  h.last_fold_seconds = fold.fold_seconds;
  h.uptime_seconds =
      now > since ? static_cast<double>(now - since) * 1e-9 : 0.0;
  return h;
}

void write_serve_metrics_record(telemetry::EventLog& log,
                                const telemetry::MetricsRegistry& registry,
                                double uptime_seconds) {
  write_serve_record(log, registry, uptime_seconds, "serve_metrics");
}

void write_serve_health_record(telemetry::EventLog& log,
                               const HealthPayload& h) {
  if (!log.enabled()) return;
  auto rec = log.record("serve_health");
  rec.field("fold_loop", static_cast<std::uint64_t>(h.fold_loop() ? 1 : 0));
  rec.field("converged", static_cast<std::uint64_t>(h.converged() ? 1 : 0));
  rec.field("degraded", static_cast<std::uint64_t>(h.degraded() ? 1 : 0));
  rec.field("published_epoch", h.published_epoch);
  rec.field("ingest_backlog", h.ingest_backlog);
  rec.field("ingest_enqueued", h.ingest_enqueued);
  rec.field("staleness_frames", h.staleness_frames);
  rec.field("staleness_seconds", h.staleness_seconds);
  rec.field("refolds", h.refolds);
  rec.field("mass_gap", h.mass_gap);
  rec.field("last_fold_seconds", h.last_fold_seconds);
  rec.field("uptime_seconds", h.uptime_seconds);
}

}  // namespace gt::serve
