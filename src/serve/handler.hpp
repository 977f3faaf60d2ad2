// ConnectionHandler: the per-connection protocol state machine, factored
// out of the socket loop so the exact same request handling runs under
// three transports:
//   * serve::Server      — epoll/poll sockets (production path),
//   * LoopbackConnection — in-process byte shuttle (deterministic tests),
//   * tools/repload      — driven directly for the no-socket micro bench.
//
// The handler owns a FrameParser and turns complete frames into response
// bytes appended to the caller's tx buffer. Lookups run under one epoch
// pin per on_bytes() call (acquired on entry, released on exit), so a
// burst of pipelined requests costs two seq_cst operations total, not two
// per request. Any malformed frame is terminal: on_bytes() returns false,
// the metrics error counter ticks, and the caller must close the
// connection — the parser never resynchronizes on garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/observe.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace gt::serve {

/// Handles to every serve metric, registered once per registry. Counter
/// names are the `serve_*` family summarized by scripts/report.py --serve.
struct ServeMetrics {
  telemetry::MetricsRegistry* registry = nullptr;
  telemetry::Counter lookups;        ///< serve_lookups (single LOOKUP frames)
  telemetry::Counter batch_lookups;  ///< serve_batch_lookups (BATCH frames)
  telemetry::Counter batch_keys;     ///< serve_batch_keys (keys inside them)
  telemetry::Counter ingests;        ///< serve_ingests
  telemetry::Counter stats_requests; ///< serve_stats
  telemetry::Counter metrics_requests; ///< serve_metrics_requests (METRICS)
  telemetry::Counter health_requests;  ///< serve_health_requests (HEALTH)
  telemetry::Counter proto_errors;   ///< serve_proto_errors
  telemetry::Counter frames;         ///< serve_frames (all accepted frames)
  telemetry::Counter bytes_in;       ///< serve_bytes_in
  telemetry::Counter bytes_out;      ///< serve_bytes_out
  telemetry::Counter lookup_bytes;   ///< serve_lookup_bytes (LOOKUP rx frames)
  telemetry::Counter batch_bytes;    ///< serve_batch_bytes (BATCH rx frames)
  telemetry::Counter ingest_bytes;   ///< serve_ingest_bytes (INGEST rx frames)
  telemetry::Counter conns_opened;   ///< serve_conns_opened
  telemetry::Counter conns_closed;   ///< serve_conns_closed
  telemetry::Counter bp_pauses;      ///< serve_bp_pauses (reads suspended)
  telemetry::Counter bp_resumes;     ///< serve_bp_resumes (reads resumed)
  telemetry::Counter slow_frames;    ///< serve_slow_frames (over threshold)
  // Where the event loop picked up each batch of ready events:
  telemetry::Counter loop_polled;    ///< serve_loop_polled (a poll found it)
  telemetry::Counter loop_woken;     ///< serve_loop_woken (a blocking wait)
  telemetry::Histogram lookup_seconds;  ///< serve_lookup_seconds
  telemetry::Histogram batch_seconds;   ///< serve_batch_seconds
  telemetry::Histogram ingest_seconds;  ///< serve_ingest_seconds

  /// Registers (or re-resolves) the serve metric family on `registry`.
  static ServeMetrics register_on(telemetry::MetricsRegistry& registry);
};

/// Writes a serve telemetry record: every serve_* counter as a flat field
/// plus bucket-level latency histograms, so report.py --serve/--live can
/// compute ops/s and p50/p99/p999 from the JSONL alone. The final record
/// uses the default "serve" event; the periodic exporter emits the same
/// shape as "serve_metrics" (see observe.hpp).
void write_serve_record(telemetry::EventLog& log,
                        const telemetry::MetricsRegistry& registry,
                        double uptime_seconds, const char* event = "serve");

class ConnectionHandler {
 public:
  /// `lane` selects the metrics lane; each server loop thread uses its own.
  /// `obs` (optional, must outlive the handler) enables slow-frame records
  /// and feeds METRICS/HEALTH the EventLog + fold-loop state; `conn_id`
  /// tags this connection's slow_frame records.
  ConnectionHandler(ReputationStore& store, ServeMetrics& metrics,
                    std::size_t lane = 0,
                    const ServeObservability* obs = nullptr,
                    std::uint64_t conn_id = 0);

  /// Feeds received bytes; complete frames are handled immediately and
  /// their responses appended to `out`. Returns false on a protocol error
  /// (malformed frame): the connection must be closed, no further bytes
  /// accepted. `out` is never cleared — the caller owns tx buffering.
  bool on_bytes(const std::uint8_t* data, std::size_t len,
                std::vector<std::uint8_t>& out);

  std::uint64_t frames_handled() const noexcept { return frames_; }

 private:
  bool handle_frame(const FrameParser::Frame& frame,
                    const ReputationStore::ReadGuard& guard,
                    std::vector<std::uint8_t>& out);
  /// Post-frame accounting: per-opcode latency histogram + request-byte
  /// counter, and the slow-frame check (counter + JSONL record).
  void record_frame(const FrameParser::Frame& frame, double seconds);
  bool protocol_error();

  ReputationStore& store_;
  ServeMetrics& m_;
  std::size_t lane_;
  const ServeObservability* obs_;
  std::uint64_t conn_id_;
  FrameParser parser_;
  std::uint64_t frames_ = 0;
  bool dead_ = false;
};

}  // namespace gt::serve
