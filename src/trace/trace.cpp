#include "trace/trace.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/logging.hpp"

namespace gt::trace {

const char* kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kCycle: return "cycle";
    case SpanKind::kGossipStep: return "gossip_step";
    case SpanKind::kPhase: return "phase";
    case SpanKind::kMsgSend: return "msg_send";
    case SpanKind::kMsgDeliver: return "msg_deliver";
    case SpanKind::kMsgDrop: return "msg_drop";
    case SpanKind::kAckSend: return "ack_send";
    case SpanKind::kAckDeliver: return "ack_deliver";
    case SpanKind::kAckDrop: return "ack_drop";
    case SpanKind::kRetransmit: return "retransmit";
    case SpanKind::kReclaim: return "reclaim";
    case SpanKind::kSuspicion: return "suspicion";
    case SpanKind::kEpochRestart: return "epoch_restart";
    case SpanKind::kFault: return "fault";
    case SpanKind::kProbe: return "probe";
    case SpanKind::kAttack: return "attack";
  }
  return "unknown";
}

const char* probe_field_name(ProbeField field) noexcept {
  switch (field) {
    case ProbeField::kWeight: return "weight";
    case ProbeField::kMassResidual: return "mass_residual";
    case ProbeField::kDeltaV: return "delta_v";
    case ProbeField::kScore: return "score";
    case ProbeField::kXMassResidual: return "x_residual";
    case ProbeField::kRatingBias: return "rating_bias";
  }
  return "unknown";
}

std::uint32_t drop_reason_code(const char* reason) noexcept {
  if (reason == nullptr) return kDropUnknown;
  if (std::strcmp(reason, "sender_down") == 0) return kDropSenderDown;
  if (std::strcmp(reason, "receiver_down") == 0) return kDropReceiverDown;
  if (std::strcmp(reason, "link_failed") == 0) return kDropLinkFailed;
  if (std::strcmp(reason, "partitioned") == 0) return kDropPartitioned;
  if (std::strcmp(reason, "loss") == 0) return kDropLoss;
  if (std::strcmp(reason, "receiver_down_in_flight") == 0)
    return kDropReceiverDownInFlight;
  if (std::strcmp(reason, "partitioned_in_flight") == 0)
    return kDropPartitionedInFlight;
  if (std::strcmp(reason, "corrupted") == 0) return kDropCorrupted;
  return kDropUnknown;
}

const char* drop_reason_name(std::uint32_t code) noexcept {
  switch (code) {
    case kDropSenderDown: return "sender_down";
    case kDropReceiverDown: return "receiver_down";
    case kDropLinkFailed: return "link_failed";
    case kDropPartitioned: return "partitioned";
    case kDropLoss: return "loss";
    case kDropReceiverDownInFlight: return "receiver_down_in_flight";
    case kDropPartitionedInFlight: return "partitioned_in_flight";
    case kDropCorrupted: return "corrupted";
    default: return "unknown";
  }
}

TraceSink::TraceSink(TraceConfig config) : config_(std::move(config)) {
  if (config_.path.empty()) return;
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  ring_.reserve(config_.ring_capacity < (1u << 16) ? config_.ring_capacity
                                                   : (1u << 16));
  enabled_ = true;
}

TraceSink::~TraceSink() { finish(); }

void TraceSink::emit(const TraceRecord& rec) {
  if (!enabled_) return;
  if (rec.node != kGlobalNode && rec.node >= max_node_) max_node_ = rec.node + 1;
  // kProbe reuses `peer` for the sweep series index, not a node id.
  if (rec.kind != static_cast<std::uint32_t>(SpanKind::kProbe) &&
      rec.peer != kNoPeer && rec.peer >= max_node_)
    max_node_ = rec.peer + 1;
  ++emitted_;
  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(rec);
  } else {
    // Flight-recorder semantics: keep the most recent window, loudly
    // accounted in the header (records_emitted > record_count).
    ring_[head_] = rec;
    head_ = (head_ + 1) % ring_.size();
  }
  if (events_ != nullptr &&
      rec.kind != static_cast<std::uint32_t>(SpanKind::kProbe)) {
    // Mirror as a JSONL `trace` record. sim_time is the record's *end*
    // time: emissions happen when a span completes, so within one trace
    // id the mirrored sim_time stream is non-decreasing (a property
    // scripts/report.py --check enforces).
    const auto kind = static_cast<SpanKind>(rec.kind);
    auto r = events_->record("trace");
    r.field("sim_time", rec.t_end)
        .field("dur", rec.t_end - rec.t_start)
        .field("kind", kind_name(kind))
        .field("trace_id", rec.trace_id)
        .field("span_id", rec.span_id)
        .field("parent_id", rec.parent_id)
        .field("node", rec.node)
        .field("peer", rec.peer)
        .field("flags", rec.flags)
        .field("value", rec.value);
    if (kind == SpanKind::kMsgDrop || kind == SpanKind::kAckDrop)
      r.field("reason", drop_reason_name(rec.flags));
  }
}

void TraceSink::probe(std::uint64_t sweep_trace, std::uint64_t series, double t,
                      std::uint32_t node, double weight, double mass_residual,
                      double delta_v, double score, double x_residual) {
  if (!enabled_) return;
  TraceRecord rec;
  rec.t_start = rec.t_end = t;
  rec.trace_id = sweep_trace;
  rec.parent_id = 0;
  rec.kind = static_cast<std::uint32_t>(SpanKind::kProbe);
  rec.node = node;
  rec.peer = static_cast<std::uint32_t>(series);

  rec.span_id = alloc_span();
  rec.flags = static_cast<std::uint32_t>(ProbeField::kWeight);
  rec.value = weight;
  emit(rec);
  rec.span_id = alloc_span();
  rec.flags = static_cast<std::uint32_t>(ProbeField::kMassResidual);
  rec.value = mass_residual;
  emit(rec);
  rec.span_id = alloc_span();
  rec.flags = static_cast<std::uint32_t>(ProbeField::kDeltaV);
  rec.value = delta_v;
  emit(rec);
  rec.span_id = alloc_span();
  rec.flags = static_cast<std::uint32_t>(ProbeField::kScore);
  rec.value = score;
  emit(rec);
  rec.span_id = alloc_span();
  rec.flags = static_cast<std::uint32_t>(ProbeField::kXMassResidual);
  rec.value = x_residual;
  emit(rec);

  if (events_ != nullptr) {
    // JSON has no NaN/Inf (JsonWriter would emit null); sanitize to 0.
    events_->record("probe")
        .field("sim_time", t)
        .field("trace_id", sweep_trace)
        .field("series", series)
        .field("node", node)
        .field("weight", weight)
        .field("mass_residual", mass_residual)
        .field("delta_v", delta_v)
        .field("score", std::isfinite(score) ? score : 0.0)
        .field("x_residual", std::isfinite(x_residual) ? x_residual : 0.0);
  }
}

void TraceSink::probe_field(std::uint64_t sweep_trace, std::uint64_t series,
                            double t, std::uint32_t node, ProbeField field,
                            double value) {
  if (!enabled_) return;
  TraceRecord rec;
  rec.t_start = rec.t_end = t;
  rec.trace_id = sweep_trace;
  rec.span_id = alloc_span();
  rec.parent_id = 0;
  rec.kind = static_cast<std::uint32_t>(SpanKind::kProbe);
  rec.flags = static_cast<std::uint32_t>(field);
  rec.node = node;
  rec.peer = static_cast<std::uint32_t>(series);
  rec.value = value;
  emit(rec);

  if (events_ != nullptr) {
    events_->record("probe_field")
        .field("sim_time", t)
        .field("trace_id", sweep_trace)
        .field("series", series)
        .field("node", node)
        .field("field", probe_field_name(field))
        .field("value", std::isfinite(value) ? value : 0.0);
  }
}

std::vector<TraceRecord> TraceSink::records() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  for (std::size_t k = 0; k < ring_.size(); ++k)
    out.push_back(ring_[(head_ + k) % ring_.size()]);
  return out;
}

bool TraceSink::finish() {
  if (finished_ || !enabled_) return true;
  finished_ = true;
  enabled_ = false;

  std::FILE* f = std::fopen(config_.path.c_str(), "wb");
  if (f == nullptr) {
    GT_WARN() << "TraceSink: cannot open " << config_.path;
    return false;
  }
  TraceFileHeader header;
  header.record_count = ring_.size();
  header.records_emitted = emitted_;
  header.span_high_water = next_span_;
  header.node_count = max_node_;
  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1;
  // Oldest-first: [head_, end) then [0, head_).
  if (ok && head_ < ring_.size())
    ok = std::fwrite(ring_.data() + head_, sizeof(TraceRecord),
                     ring_.size() - head_, f) == ring_.size() - head_;
  if (ok && head_ > 0)
    ok = std::fwrite(ring_.data(), sizeof(TraceRecord), head_, f) == head_;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    GT_WARN() << "TraceSink: short write to " << config_.path;
  }
  return ok;
}

bool read_trace_file(const std::string& path, TraceFileHeader& header,
                     std::vector<TraceRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot open %s\n", path.c_str());
    return false;
  }
  bool ok = std::fread(&header, sizeof(header), 1, f) == 1;
  if (ok && (std::memcmp(header.magic, "GTTRACE1", 8) != 0 ||
             header.version != 1 || header.record_size != sizeof(TraceRecord))) {
    std::fprintf(stderr, "trace: %s is not a GTTRACE1 v1 file\n", path.c_str());
    ok = false;
  }
  if (ok) {
    records.resize(header.record_count);
    ok = std::fread(records.data(), sizeof(TraceRecord), records.size(), f) ==
         records.size();
    if (!ok)
      std::fprintf(stderr, "trace: %s truncated (%llu records expected)\n",
                   path.c_str(),
                   static_cast<unsigned long long>(header.record_count));
  }
  std::fclose(f);
  return ok;
}

}  // namespace gt::trace
