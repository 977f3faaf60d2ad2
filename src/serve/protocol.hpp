// serve wire protocol: a compact length-prefixed binary format.
//
// Every frame is an 8-byte little-endian header followed by a payload:
//
//   offset 0  u32  payload_len   bytes after the header (<= kMaxPayload)
//   offset 4  u8   opcode
//   offset 5  u8   version       must be kProtocolVersion (1)
//   offset 6  u16  reserved      must be 0
//
// Request payloads:
//   LOOKUP        (0x01)  u64 node_id
//   BATCH_LOOKUP  (0x02)  u32 count; u32 pad(0); count x u64 node_id
//   INGEST        (0x03)  u64 rater; u64 ratee; f64 value (finite)
//   STATS         (0x04)  (empty)
//   METRICS       (0x05)  (empty)
//   HEALTH        (0x06)  (empty)
//
// Response opcode = request opcode | 0x80:
//   LOOKUP_R      (0x81)  u64 epoch; f64 score          (epoch 0 = miss)
//   BATCH_R       (0x82)  u32 count; u32 pad; count x {u64 epoch; f64 score}
//   INGEST_R      (0x83)  u64 total_ingested
//   STATS_R       (0x84)  12 x u64 (see StatsPayload)
//   METRICS_R     (0x85)  versioned self-describing snapshot (MetricsPayload):
//                         u32 version; u32 counter_count; u32 hist_count;
//                         u32 reserved(0); counter_count x u64 counters in the
//                         fixed metrics_counter_name() order; then hist_count
//                         histogram blocks in the metrics_histogram_name()
//                         order, each: f64 bucket_min; f64 growth; u64 count;
//                         f64 sum; f64 min; f64 max; u32 n_buckets;
//                         u32 reserved(0); n_buckets x u64 bucket counts
//                         (buckets[0] = underflow, buckets back = overflow).
//   HEALTH_R      (0x86)  fold-loop introspection (HealthPayload):
//                         u32 version; u32 flags; u64 published_epoch;
//                         u64 ingest_backlog; u64 ingest_enqueued;
//                         u64 staleness_frames; f64 staleness_seconds;
//                         u64 refolds; f64 mass_gap; f64 last_fold_seconds;
//                         f64 uptime_seconds
//
// METRICS and HEALTH carry their own version word (kMetricsVersion /
// kHealthVersion) independent of the frame-level kProtocolVersion, so the
// snapshot layout can evolve without a flag-day protocol bump: counts are
// explicit on the wire and a decoder accepts snapshots with *more* counters
// or histograms than it knows names for (trailing entries are preserved but
// unnamed).
//
// Malformed input — bad version, nonzero reserved bits, unknown opcode,
// oversized or inconsistent lengths, a non-finite INGEST value — is a
// protocol error: the peer closes the connection loudly (counted +
// logged), it never guesses. All multi-byte values are little-endian;
// encode/decode goes through memcpy so the parser is free of alignment/
// aliasing UB and never reads past the buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace gt::serve {

inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 8;
inline constexpr std::size_t kMaxPayload = 1u << 20;  ///< 1 MiB
/// Batch key cap. The *response* carries 16 bytes per key ({epoch, score})
/// against the request's 8, so it is the binding constraint: a larger count
/// would make the server emit a header that exceeds kMaxPayload and that a
/// compliant client must reject as malformed.
inline constexpr std::size_t kMaxBatch = (kMaxPayload - 8) / 16;
static_assert(8 + 8 * kMaxBatch <= kMaxPayload,
              "max batch request must fit in kMaxPayload");
static_assert(8 + 16 * kMaxBatch <= kMaxPayload,
              "max batch response must fit in kMaxPayload");

enum class Op : std::uint8_t {
  kLookup = 0x01,
  kBatchLookup = 0x02,
  kIngest = 0x03,
  kStats = 0x04,
  kMetrics = 0x05,
  kHealth = 0x06,
  kLookupResp = 0x81,
  kBatchLookupResp = 0x82,
  kIngestResp = 0x83,
  kStatsResp = 0x84,
  kMetricsResp = 0x85,
  kHealthResp = 0x86,
};

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t opcode = 0;
  std::uint8_t version = kProtocolVersion;
  std::uint16_t reserved = 0;
};

/// Fixed order of the STATS_R counters (12 x u64 on the wire). Fields 0-7
/// predate the observability plane and keep their original offsets; fields
/// 8-11 (backpressure + store reclamation) were appended in PR 9 — a client
/// reading only the first 64 bytes still decodes the original eight.
struct StatsPayload {
  std::uint64_t lookups = 0;
  std::uint64_t batch_lookups = 0;
  std::uint64_t batch_keys = 0;
  std::uint64_t ingests = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t published_epoch = 0;
  std::uint64_t ingest_pending = 0;
  std::uint64_t bp_pauses = 0;            ///< reads paused (tx over high water)
  std::uint64_t bp_resumes = 0;           ///< reads resumed (tx under low water)
  std::uint64_t snapshots_reclaimed = 0;  ///< retired store snapshots freed
  std::uint64_t limbo_size = 0;           ///< retired snapshots awaiting readers
};
inline constexpr std::size_t kStatsPayloadFields = 12;
inline constexpr std::size_t kStatsPayloadSize =
    kStatsPayloadFields * sizeof(std::uint64_t);

// --- METRICS (0x05) snapshot ------------------------------------------------

inline constexpr std::uint32_t kMetricsVersion = 1;

/// Fixed counter order of a version-1 METRICS snapshot. The wire carries the
/// values only; names live here so every consumer (handler, repload --watch,
/// tests, report.py docs) agrees on the indexing.
enum class MetricsCounter : std::size_t {
  kLookups = 0,
  kBatchLookups,
  kBatchKeys,
  kIngests,
  kStatsRequests,
  kMetricsRequests,
  kHealthRequests,
  kProtoErrors,
  kFrames,
  kBytesIn,
  kBytesOut,
  kLookupBytes,   ///< request frame bytes, LOOKUP only
  kBatchBytes,    ///< request frame bytes, BATCH_LOOKUP only
  kIngestBytes,   ///< request frame bytes, INGEST only
  kConnsOpened,
  kConnsClosed,
  kBpPauses,
  kBpResumes,
  kSlowFrames,
  kPublishedEpoch,
  kIngestPending,
  kIngestEnqueued,
  kSnapshotsLive,
  kSnapshotsReclaimed,
  kLimboSize,
  kLogLinesDropped,
  kLogRecords,
  kCount,  // sentinel
};
inline constexpr std::size_t kMetricsCounterCount =
    static_cast<std::size_t>(MetricsCounter::kCount);

/// Canonical name of a version-1 METRICS counter (nullptr past the end).
const char* metrics_counter_name(std::size_t index);

/// Fixed histogram order of a version-1 METRICS snapshot.
inline constexpr std::size_t kMetricsHistogramCount = 3;

/// Canonical name of a version-1 METRICS histogram (nullptr past the end):
/// 0 = lookup_seconds, 1 = batch_seconds, 2 = ingest_seconds.
const char* metrics_histogram_name(std::size_t index);

/// One latency histogram inside a METRICS snapshot. `buckets[0]` is the
/// underflow bin, `buckets.back()` the overflow bin; interior bucket i
/// covers [bucket_min * growth^(i-1), bucket_min * growth^i).
struct MetricsHistogram {
  double bucket_min = 0.0;
  double growth = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;

  /// Upper-edge percentile estimate from the log buckets (same math as
  /// scripts/report.py); exact max at the overflow bin, NaN when empty.
  double percentile(double pct) const noexcept;
};

/// Decoded METRICS_R snapshot. Encoding is exact: decode(encode(p)) == p
/// and re-encoding a decoded payload reproduces the input bytes, which the
/// byte-stability tests pin.
struct MetricsPayload {
  std::uint32_t version = kMetricsVersion;
  std::vector<std::uint64_t> counters;   ///< metrics_counter_name() order
  std::vector<MetricsHistogram> hists;   ///< metrics_histogram_name() order

  std::uint64_t counter(MetricsCounter c) const noexcept {
    const std::size_t i = static_cast<std::size_t>(c);
    return i < counters.size() ? counters[i] : 0;
  }
};

// --- HEALTH (0x06) fold-loop introspection ----------------------------------

inline constexpr std::uint32_t kHealthVersion = 1;

/// HealthPayload.flags bits.
inline constexpr std::uint32_t kHealthFlagConverged = 1u << 0;
inline constexpr std::uint32_t kHealthFlagDegraded = 1u << 1;
/// Set when a fold loop (tools/repserved) is actually feeding the health
/// state; a bare serve::Server answers HEALTH with this bit clear and only
/// the store-derived fields populated.
inline constexpr std::uint32_t kHealthFlagFoldLoop = 1u << 2;

struct HealthPayload {
  std::uint32_t version = kHealthVersion;
  std::uint32_t flags = 0;
  std::uint64_t published_epoch = 0;
  std::uint64_t ingest_backlog = 0;    ///< feedbacks queued, not yet drained
  std::uint64_t ingest_enqueued = 0;   ///< total feedbacks ever accepted
  std::uint64_t staleness_frames = 0;  ///< ingested but not yet republished
  double staleness_seconds = 0.0;      ///< wall time since the lag started
  std::uint64_t refolds = 0;           ///< re-aggregation count
  double mass_gap = 0.0;               ///< |sum(published scores) - 1|
  double last_fold_seconds = 0.0;      ///< wall cost of the last re-aggregation
  double uptime_seconds = 0.0;

  bool converged() const noexcept { return (flags & kHealthFlagConverged) != 0; }
  bool degraded() const noexcept { return (flags & kHealthFlagDegraded) != 0; }
  bool fold_loop() const noexcept { return (flags & kHealthFlagFoldLoop) != 0; }
};
inline constexpr std::size_t kHealthPayloadSize = 4 + 4 + 8 * 4 + 8 + 8 + 8 + 8 + 8;

// --- primitive little-endian codecs (memcpy: no alignment/aliasing UB) ------

inline void put_u16(std::uint8_t* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
inline void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
inline void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
inline void put_f64(std::uint8_t* p, double v) { std::memcpy(p, &v, 8); }
inline std::uint16_t get_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
inline double get_f64(const std::uint8_t* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Writes a frame header into `p` (which must hold kHeaderSize bytes).
void encode_header(std::uint8_t* p, Op op, std::uint32_t payload_len);

/// Parses a header. Returns false (protocol error) on bad version, nonzero
/// reserved bits, or payload_len > kMaxPayload.
bool decode_header(const std::uint8_t* p, FrameHeader* out);

// --- request encoders (append to `out`; used by clients and tests) ----------

void encode_lookup(std::vector<std::uint8_t>& out, std::uint64_t node);
void encode_batch_lookup(std::vector<std::uint8_t>& out,
                         const std::uint64_t* nodes, std::size_t count);
void encode_ingest(std::vector<std::uint8_t>& out, std::uint64_t rater,
                   std::uint64_t ratee, double value);
void encode_stats(std::vector<std::uint8_t>& out);
void encode_metrics(std::vector<std::uint8_t>& out);
void encode_health(std::vector<std::uint8_t>& out);

// --- response encoders (used by the server) ---------------------------------

void encode_lookup_resp(std::vector<std::uint8_t>& out, std::uint64_t epoch,
                        double score);
/// Begins a batch response; returns the offset where entries start. Append
/// `count` entries with append_batch_entry, in order.
std::size_t encode_batch_resp_header(std::vector<std::uint8_t>& out,
                                     std::uint32_t count);
void append_batch_entry(std::vector<std::uint8_t>& out, std::uint64_t epoch,
                        double score);
void encode_ingest_resp(std::vector<std::uint8_t>& out,
                        std::uint64_t total_ingested);
void encode_stats_resp(std::vector<std::uint8_t>& out, const StatsPayload& s);
void encode_metrics_resp(std::vector<std::uint8_t>& out,
                         const MetricsPayload& m);
void encode_health_resp(std::vector<std::uint8_t>& out, const HealthPayload& h);

// --- response decoders (client side; return false on malformed) -------------

struct LookupResp {
  std::uint64_t epoch = 0;
  double score = 0.0;
};
bool decode_lookup_resp(const std::uint8_t* payload, std::size_t len,
                        LookupResp* out);
/// Batch payload: writes entry count to *count and returns a pointer to the
/// first 16-byte {epoch, score} entry, or nullptr on malformed.
const std::uint8_t* decode_batch_resp(const std::uint8_t* payload,
                                      std::size_t len, std::uint32_t* count);
bool decode_ingest_resp(const std::uint8_t* payload, std::size_t len,
                        std::uint64_t* total);
bool decode_stats_resp(const std::uint8_t* payload, std::size_t len,
                       StatsPayload* out);
/// Strict structural decode: every length word must be consistent with
/// `len`, truncated or trailing bytes are malformed. Tolerates counter /
/// histogram counts beyond the version-1 named set (forward compatibility)
/// but enforces the version word.
bool decode_metrics_resp(const std::uint8_t* payload, std::size_t len,
                         MetricsPayload* out);
bool decode_health_resp(const std::uint8_t* payload, std::size_t len,
                        HealthPayload* out);

/// Incremental frame splitter: feed bytes, pull complete frames. Holds one
/// partial frame at most; the accumulation buffer is reused, so steady-state
/// parsing does not allocate.
class FrameParser {
 public:
  /// One complete frame, pointing into the parser's buffer (or the caller's
  /// input when a frame arrived whole). Valid until the next feed() call.
  struct Frame {
    FrameHeader header;
    const std::uint8_t* payload = nullptr;
  };

  /// Appends input bytes. Returns false on a malformed header (protocol
  /// error: the connection must be closed). Complete frames are delivered
  /// through next().
  bool feed(const std::uint8_t* data, std::size_t len);

  /// Pops the next complete frame; returns false when more bytes are
  /// needed — or on a malformed header, distinguishable via error().
  bool next(Frame* out);

  /// True once a malformed header was seen; the parser is then dead and
  /// the connection must be closed.
  bool error() const noexcept { return error_; }

  /// Bytes currently buffered (diagnostics).
  std::size_t buffered() const noexcept { return buf_.size() - consumed_; }

 private:
  bool header_ok(const std::uint8_t* p);

  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  ///< bytes of buf_ already delivered
  bool error_ = false;
};

}  // namespace gt::serve
