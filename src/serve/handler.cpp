#include "serve/handler.hpp"

#include <chrono>
#include <cmath>

namespace gt::serve {

ServeMetrics ServeMetrics::register_on(telemetry::MetricsRegistry& registry) {
  // Latency buckets: 10 ns lower edge, 25% geometric growth, 96 buckets
  // (~10 ns .. ~20 s) — fine enough that a log-bucket p99/p999 readback is
  // within one bucket (25%) of the true quantile.
  const telemetry::HistogramOptions lat{1e-8, 1.25, 96};
  ServeMetrics m;
  m.registry = &registry;
  m.lookups = registry.counter("serve_lookups");
  m.batch_lookups = registry.counter("serve_batch_lookups");
  m.batch_keys = registry.counter("serve_batch_keys");
  m.ingests = registry.counter("serve_ingests");
  m.stats_requests = registry.counter("serve_stats");
  m.metrics_requests = registry.counter("serve_metrics_requests");
  m.health_requests = registry.counter("serve_health_requests");
  m.proto_errors = registry.counter("serve_proto_errors");
  m.frames = registry.counter("serve_frames");
  m.bytes_in = registry.counter("serve_bytes_in");
  m.bytes_out = registry.counter("serve_bytes_out");
  m.lookup_bytes = registry.counter("serve_lookup_bytes");
  m.batch_bytes = registry.counter("serve_batch_bytes");
  m.ingest_bytes = registry.counter("serve_ingest_bytes");
  m.conns_opened = registry.counter("serve_conns_opened");
  m.conns_closed = registry.counter("serve_conns_closed");
  m.bp_pauses = registry.counter("serve_bp_pauses");
  m.bp_resumes = registry.counter("serve_bp_resumes");
  m.slow_frames = registry.counter("serve_slow_frames");
  m.loop_polled = registry.counter("serve_loop_polled");
  m.loop_woken = registry.counter("serve_loop_woken");
  m.lookup_seconds = registry.histogram("serve_lookup_seconds", lat);
  m.batch_seconds = registry.histogram("serve_batch_seconds", lat);
  m.ingest_seconds = registry.histogram("serve_ingest_seconds", lat);
  return m;
}

void write_serve_record(telemetry::EventLog& log,
                        const telemetry::MetricsRegistry& registry,
                        double uptime_seconds, const char* event) {
  if (!log.enabled()) return;
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  auto rec = log.record(event);
  rec.field("uptime_seconds", uptime_seconds);
  for (const auto& [name, v] : snap.counters) {
    if (name.rfind("serve_", 0) == 0) rec.field(name, v);
  }
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("serve_", 0) == 0) rec.histogram_detail(name, h);
  }
}

ConnectionHandler::ConnectionHandler(ReputationStore& store,
                                     ServeMetrics& metrics, std::size_t lane,
                                     const ServeObservability* obs,
                                     std::uint64_t conn_id)
    : store_(store), m_(metrics), lane_(lane), obs_(obs), conn_id_(conn_id) {
  m_.registry->add(m_.conns_opened, 1, lane_);
}

bool ConnectionHandler::protocol_error() {
  m_.registry->add(m_.proto_errors, 1, lane_);
  m_.registry->add(m_.conns_closed, 1, lane_);
  dead_ = true;
  return false;
}

bool ConnectionHandler::on_bytes(const std::uint8_t* data, std::size_t len,
                                 std::vector<std::uint8_t>& out) {
  if (dead_) return false;
  m_.registry->add(m_.bytes_in, len, lane_);
  if (!parser_.feed(data, len)) return protocol_error();
  FrameParser::Frame frame;
  const std::size_t out_before = out.size();
  // One epoch pin covers every frame completed by this read.
  const ReputationStore::ReadGuard guard = store_.reader();
  while (parser_.next(&frame)) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!handle_frame(frame, guard, out)) return protocol_error();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    record_frame(frame, dt);
    ++frames_;
    m_.registry->add(m_.frames, 1, lane_);
  }
  if (parser_.error()) return protocol_error();
  m_.registry->add(m_.bytes_out, out.size() - out_before, lane_);
  return true;
}

bool ConnectionHandler::handle_frame(const FrameParser::Frame& frame,
                                     const ReputationStore::ReadGuard& guard,
                                     std::vector<std::uint8_t>& out) {
  const std::uint8_t* p = frame.payload;
  const std::size_t len = frame.header.payload_len;
  switch (static_cast<Op>(frame.header.opcode)) {
    case Op::kLookup: {
      if (len != 8) return false;
      const LookupResult r = store_.lookup(guard, get_u64(p));
      encode_lookup_resp(out, r.epoch, r.score);
      m_.registry->add(m_.lookups, 1, lane_);
      return true;
    }
    case Op::kBatchLookup: {
      if (len < 8) return false;
      const std::uint32_t count = get_u32(p);
      if (get_u32(p + 4) != 0) return false;
      if (count > kMaxBatch) return false;
      if (len != 8 + 8 * static_cast<std::size_t>(count)) return false;
      encode_batch_resp_header(out, count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const LookupResult r = store_.lookup(guard, get_u64(p + 8 + 8 * i));
        append_batch_entry(out, r.epoch, r.score);
      }
      m_.registry->add(m_.batch_lookups, 1, lane_);
      m_.registry->add(m_.batch_keys, count, lane_);
      return true;
    }
    case Op::kIngest: {
      if (len != 24) return false;
      FeedbackUpdate f;
      f.rater = get_u64(p);
      f.ratee = get_u64(p + 8);
      f.value = get_f64(p + 16);
      // Non-finite ratings are malformed: a NaN would erase the (rater,
      // ratee) trust edge in the ledger for good.
      if (!std::isfinite(f.value)) return false;
      store_.enqueue_feedback(f);
      encode_ingest_resp(out, store_.feedback_enqueued());
      m_.registry->add(m_.ingests, 1, lane_);
      return true;
    }
    case Op::kStats: {
      if (len != 0) return false;
      StatsPayload s;
      s.lookups = m_.registry->counter_value(m_.lookups);
      s.batch_lookups = m_.registry->counter_value(m_.batch_lookups);
      s.batch_keys = m_.registry->counter_value(m_.batch_keys);
      s.ingests = m_.registry->counter_value(m_.ingests);
      s.stats_requests = m_.registry->counter_value(m_.stats_requests) + 1;
      s.protocol_errors = m_.registry->counter_value(m_.proto_errors);
      s.published_epoch = store_.published_epoch();
      s.ingest_pending = store_.feedback_pending();
      s.bp_pauses = m_.registry->counter_value(m_.bp_pauses);
      s.bp_resumes = m_.registry->counter_value(m_.bp_resumes);
      s.snapshots_reclaimed = store_.snapshots_reclaimed();
      s.limbo_size = store_.limbo_size();
      encode_stats_resp(out, s);
      m_.registry->add(m_.stats_requests, 1, lane_);
      return true;
    }
    case Op::kMetrics: {
      if (len != 0) return false;
      // Self-inclusive like STATS: count the request before collecting so
      // the snapshot reflects it.
      m_.registry->add(m_.metrics_requests, 1, lane_);
      encode_metrics_resp(out, collect_metrics(m_, store_, obs_));
      return true;
    }
    case Op::kHealth: {
      if (len != 0) return false;
      m_.registry->add(m_.health_requests, 1, lane_);
      encode_health_resp(
          out, collect_health(store_, obs_ != nullptr ? obs_->health : nullptr));
      return true;
    }
    default:
      return false;  // unknown opcode (including response opcodes)
  }
}

void ConnectionHandler::record_frame(const FrameParser::Frame& frame,
                                     double seconds) {
  const auto bytes =
      static_cast<std::uint64_t>(kHeaderSize + frame.header.payload_len);
  switch (static_cast<Op>(frame.header.opcode)) {
    case Op::kLookup:
      m_.registry->observe(m_.lookup_seconds, seconds, lane_);
      m_.registry->add(m_.lookup_bytes, bytes, lane_);
      break;
    case Op::kBatchLookup:
      m_.registry->observe(m_.batch_seconds, seconds, lane_);
      m_.registry->add(m_.batch_bytes, bytes, lane_);
      break;
    case Op::kIngest:
      m_.registry->observe(m_.ingest_seconds, seconds, lane_);
      m_.registry->add(m_.ingest_bytes, bytes, lane_);
      break;
    default:
      break;  // introspection opcodes are not latency-tracked
  }
  if (obs_ != nullptr && obs_->slow_frame_seconds > 0.0 &&
      seconds >= obs_->slow_frame_seconds) {
    m_.registry->add(m_.slow_frames, 1, lane_);
    if (obs_->log != nullptr && obs_->log->enabled()) {
      auto rec = obs_->log->record("slow_frame");
      rec.field("opcode", static_cast<std::uint64_t>(frame.header.opcode));
      rec.field("bytes", bytes);
      rec.field("conn", conn_id_);
      rec.field("seconds", seconds);
    }
  }
}

}  // namespace gt::serve
