// Serve observability plane: the shared context that turns the hot-path
// metric lanes into something an operator can read at runtime.
//
// Three pieces live here:
//   * HealthState — a mailbox the repserved fold loop writes after every
//     republish (folded-through frame count, convergence flags, mass-ledger
//     gap, fold cost) and the METRICS/HEALTH opcodes read from any server
//     loop thread. A fold's fields are written and read as one unit under
//     a mutex, so one HEALTH reply never mixes two folds; HEALTH is not a
//     hot path.
//   * ServeObservability — the per-process bundle handed to every
//     ConnectionHandler: the JSONL EventLog (slow-frame records), the
//     slow-frame threshold, and the HealthState. All pointers optional;
//     a default bundle (or none at all) keeps the hot path on the plain
//     counter/histogram lanes only.
//   * collect_metrics / collect_health — assemble the wire payloads for
//     the METRICS (0x05) and HEALTH (0x06) opcodes from the metric lanes,
//     the store's epoch/reclamation counters, and the health mailbox.
//
// Staleness semantics: the fold loop records `folded_through` = the
// store's feedback_enqueued() value captured *before* the re-aggregation
// that produced the currently published epoch. HEALTH then reports
//   staleness_frames  = feedback_enqueued() - folded_through
//   staleness_seconds = now - last_publish   (0 when fully folded)
// i.e. how many accepted feedback frames the published scores do not yet
// reflect, and for how long. Without a fold loop (bare Server, bench
// paths) HEALTH still answers with store-derived fields and the
// kHealthFlagFoldLoop bit clear.
#pragma once

#include <cstdint>
#include <mutex>

#include "serve/protocol.hpp"

namespace gt::telemetry {
class EventLog;
class MetricsRegistry;
}  // namespace gt::telemetry

namespace gt::serve {

class ReputationStore;
struct ServeMetrics;

/// Monotonic nanoseconds (steady clock) — the time base for staleness and
/// uptime arithmetic in the health plane.
std::uint64_t monotonic_ns() noexcept;

/// Fold-loop → serve-loop mailbox. Single conceptual writer (the fold
/// loop); any number of readers (server loops answering HEALTH, the
/// periodic exporter).
class HealthState {
 public:
  /// What the latest republish recorded, as one unit.
  struct Fold {
    std::uint64_t folded_through = 0;
    std::uint64_t refolds = 0;
    std::uint32_t flags = 0;
    double mass_gap = 0.0;
    double fold_seconds = 0.0;
    std::uint64_t publish_ns = 0;  ///< monotonic_ns() at the publish; 0 = none
  };

  /// Stamps the process start time (uptime epoch) and marks the fold loop
  /// live. Call once before serving.
  void note_start();

  /// Records one republish: `folded_through` is the feedback_enqueued()
  /// value captured before the re-aggregation ran, so every frame at or
  /// below it is reflected in the now-published scores.
  void note_publish(std::uint64_t folded_through, bool converged,
                    bool degraded, double mass_gap, double fold_seconds);

  std::uint64_t start_ns() const;
  Fold last_fold() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t start_ns_ = 0;
  Fold fold_;
};

/// Optional observability context threaded into ConnectionHandler (and
/// through ServerConfig into every connection). Everything is optional:
/// null log disables slow-frame records, slow_frame_seconds <= 0 disables
/// the slow-frame check entirely, null health leaves HEALTH store-only.
struct ServeObservability {
  telemetry::EventLog* log = nullptr;   ///< slow_frame JSONL sink
  double slow_frame_seconds = 0.0;      ///< handler-time threshold; <=0 = off
  const HealthState* health = nullptr;  ///< fold-loop mailbox for HEALTH
};

/// Assembles the METRICS (0x05) response payload: every MetricsCounter in
/// wire order from the metric lanes + store + (optional) EventLog, and the
/// three serve latency histograms merged across lanes.
MetricsPayload collect_metrics(const ServeMetrics& m,
                               const ReputationStore& store,
                               const ServeObservability* obs);

/// Assembles the HEALTH (0x06) response payload from the store and the
/// (optional) fold-loop mailbox.
HealthPayload collect_health(const ReputationStore& store,
                             const HealthState* health);

/// Appends one `serve_metrics` JSONL record (same shape as the final
/// `serve` record: every serve_* counter flat + bucket-level histograms) —
/// the periodic exporter's heartbeat, rendered by report.py --live.
void write_serve_metrics_record(telemetry::EventLog& log,
                                const telemetry::MetricsRegistry& registry,
                                double uptime_seconds);

/// Appends one `serve_health` JSONL record mirroring a HealthPayload.
void write_serve_health_record(telemetry::EventLog& log,
                               const HealthPayload& h);

}  // namespace gt::serve
