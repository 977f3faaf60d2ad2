// Wire protocol: codec round trips, resumable frame parsing, and the
// malformed-input tables — every bad frame must close the connection
// loudly (counted protocol error), never crash, hang, or over-read.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "serve/handler.hpp"
#include "serve/loopback.hpp"
#include "serve/store.hpp"
#include "telemetry/metrics.hpp"

namespace gt::serve {
namespace {

// --- pure codec tests -------------------------------------------------------

TEST(Protocol, HeaderRoundTrip) {
  std::uint8_t buf[kHeaderSize];
  encode_header(buf, Op::kBatchLookup, 1234);
  FrameHeader h;
  ASSERT_TRUE(decode_header(buf, &h));
  EXPECT_EQ(h.payload_len, 1234u);
  EXPECT_EQ(h.opcode, static_cast<std::uint8_t>(Op::kBatchLookup));
  EXPECT_EQ(h.version, kProtocolVersion);
  EXPECT_EQ(h.reserved, 0u);
}

TEST(Protocol, HeaderRejectsBadVersionReservedAndLength) {
  std::uint8_t buf[kHeaderSize];
  FrameHeader h;

  encode_header(buf, Op::kLookup, 8);
  buf[5] = kProtocolVersion + 1;  // wrong version
  EXPECT_FALSE(decode_header(buf, &h));

  encode_header(buf, Op::kLookup, 8);
  buf[6] = 0xff;  // nonzero reserved bits
  EXPECT_FALSE(decode_header(buf, &h));

  encode_header(buf, Op::kLookup, 8);
  put_u32(buf, static_cast<std::uint32_t>(kMaxPayload) + 1);  // oversized
  EXPECT_FALSE(decode_header(buf, &h));

  encode_header(buf, Op::kLookup, static_cast<std::uint32_t>(kMaxPayload));
  EXPECT_TRUE(decode_header(buf, &h));  // boundary: exactly kMaxPayload is ok
}

TEST(Protocol, ResponseCodecsRoundTrip) {
  std::vector<std::uint8_t> out;

  encode_lookup_resp(out, 42, 0.625);
  LookupResp lr;
  ASSERT_TRUE(decode_lookup_resp(out.data() + kHeaderSize,
                                 out.size() - kHeaderSize, &lr));
  EXPECT_EQ(lr.epoch, 42u);
  EXPECT_DOUBLE_EQ(lr.score, 0.625);

  out.clear();
  encode_batch_resp_header(out, 2);
  append_batch_entry(out, 7, 0.5);
  append_batch_entry(out, 0, 0.0);
  std::uint32_t count = 0;
  const std::uint8_t* entries = decode_batch_resp(
      out.data() + kHeaderSize, out.size() - kHeaderSize, &count);
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(count, 2u);
  EXPECT_EQ(get_u64(entries), 7u);
  EXPECT_DOUBLE_EQ(get_f64(entries + 8), 0.5);
  EXPECT_EQ(get_u64(entries + 16), 0u);

  out.clear();
  encode_ingest_resp(out, 99);
  std::uint64_t total = 0;
  ASSERT_TRUE(decode_ingest_resp(out.data() + kHeaderSize,
                                 out.size() - kHeaderSize, &total));
  EXPECT_EQ(total, 99u);

  out.clear();
  StatsPayload s;
  s.lookups = 1;
  s.batch_keys = 2;
  s.published_epoch = 3;
  s.ingest_pending = 4;
  encode_stats_resp(out, s);
  StatsPayload back;
  ASSERT_TRUE(decode_stats_resp(out.data() + kHeaderSize,
                                out.size() - kHeaderSize, &back));
  EXPECT_EQ(back.lookups, 1u);
  EXPECT_EQ(back.batch_keys, 2u);
  EXPECT_EQ(back.published_epoch, 3u);
  EXPECT_EQ(back.ingest_pending, 4u);
}

TEST(Protocol, FrameParserReassemblesByteAtATime) {
  std::vector<std::uint8_t> wire;
  encode_lookup(wire, 11);
  encode_ingest(wire, 1, 2, 0.75);
  encode_stats(wire);

  // Feed the pipelined stream one byte at a time: frames must pop out
  // exactly at their boundaries, in order, intact.
  FrameParser p;
  std::vector<FrameParser::Frame> frames;
  for (const std::uint8_t byte : wire) {
    ASSERT_TRUE(p.feed(&byte, 1));
    FrameParser::Frame f;
    while (p.next(&f)) frames.push_back(f);
    ASSERT_FALSE(p.error());
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[2].header.opcode, static_cast<std::uint8_t>(Op::kStats));
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(Protocol, FrameParserHandlesPipelinedBurst) {
  std::vector<std::uint8_t> wire;
  const int kFrames = 50;
  for (int i = 0; i < kFrames; ++i)
    encode_lookup(wire, static_cast<std::uint64_t>(i));
  FrameParser p;
  ASSERT_TRUE(p.feed(wire.data(), wire.size()));
  FrameParser::Frame f;
  int seen = 0;
  while (p.next(&f)) {
    EXPECT_EQ(get_u64(f.payload), static_cast<std::uint64_t>(seen));
    ++seen;
  }
  EXPECT_EQ(seen, kFrames);
  EXPECT_FALSE(p.error());
}

TEST(Protocol, FrameParserLatchesHeaderError) {
  std::uint8_t bad[kHeaderSize];
  encode_header(bad, Op::kLookup, 8);
  bad[5] = 0x7f;  // bad version
  FrameParser p;
  EXPECT_FALSE(p.feed(bad, sizeof(bad)));
  EXPECT_TRUE(p.error());
  FrameParser::Frame f;
  EXPECT_FALSE(p.next(&f));
  // The parser stays dead even for valid bytes afterwards.
  std::vector<std::uint8_t> good;
  encode_stats(good);
  EXPECT_FALSE(p.feed(good.data(), good.size()));
}

// --- handler behaviour through the loopback transport -----------------------

class HandlerTest : public ::testing::Test {
 protected:
  HandlerTest() : registry_(1), metrics_(ServeMetrics::register_on(registry_)) {
    store_.publish({0.5, 0.25, 0.125, 0.0625, 0.03125});
  }

  std::uint64_t errors() const {
    return registry_.counter_value(metrics_.proto_errors);
  }

  ReputationStore store_;
  telemetry::MetricsRegistry registry_;
  ServeMetrics metrics_;
};

TEST_F(HandlerTest, LookupHitAndMiss) {
  LoopbackClient c(store_, metrics_);
  const LookupResp hit = c.lookup(2);
  EXPECT_EQ(hit.epoch, 1u);
  EXPECT_DOUBLE_EQ(hit.score, 0.125);
  const LookupResp miss = c.lookup(999);
  EXPECT_EQ(miss.epoch, 0u);  // epoch 0 encodes not-found
  EXPECT_DOUBLE_EQ(miss.score, 0.0);
}

TEST_F(HandlerTest, BatchLookupPreservesOrder) {
  LoopbackClient c(store_, metrics_);
  const std::vector<std::uint64_t> ids{4, 0, 999, 1};
  const auto resp = c.batch_lookup(ids);
  ASSERT_EQ(resp.size(), 4u);
  EXPECT_DOUBLE_EQ(resp[0].score, 0.03125);
  EXPECT_DOUBLE_EQ(resp[1].score, 0.5);
  EXPECT_EQ(resp[2].epoch, 0u);
  EXPECT_DOUBLE_EQ(resp[3].score, 0.25);
  EXPECT_EQ(registry_.counter_value(metrics_.batch_keys), 4u);
}

TEST_F(HandlerTest, MaxBatchResponseFitsProtocolLimit) {
  // The largest accepted batch: the response carries 16 bytes per key, so
  // kMaxBatch must be low enough that the server's own reply still decodes
  // on a compliant client (payload_len <= kMaxPayload).
  LoopbackClient c(store_, metrics_);
  std::vector<std::uint64_t> ids(kMaxBatch);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const auto resp = c.batch_lookup(ids);
  ASSERT_EQ(resp.size(), kMaxBatch);
  EXPECT_DOUBLE_EQ(resp[2].score, 0.125);
  EXPECT_EQ(resp[kMaxBatch - 1].epoch, 0u);  // id past the published range
  EXPECT_FALSE(c.closed());
  EXPECT_EQ(errors(), 0u);
}

TEST_F(HandlerTest, IngestQueuesFeedback) {
  LoopbackClient c(store_, metrics_);
  EXPECT_EQ(c.ingest(1, 2, 0.9), 1u);
  EXPECT_EQ(c.ingest(3, 4, 0.1), 2u);
  std::vector<FeedbackUpdate> drained;
  ASSERT_EQ(store_.drain_feedback(drained), 2u);
  EXPECT_EQ(drained[0].rater, 1u);
  EXPECT_EQ(drained[0].ratee, 2u);
  EXPECT_DOUBLE_EQ(drained[0].value, 0.9);
}

TEST_F(HandlerTest, StatsReflectsTraffic) {
  LoopbackClient c(store_, metrics_);
  c.lookup(0);
  c.batch_lookup({1, 2});
  c.ingest(0, 1, 0.5);
  const StatsPayload s = c.stats();
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.batch_lookups, 1u);
  EXPECT_EQ(s.batch_keys, 2u);
  EXPECT_EQ(s.ingests, 1u);
  EXPECT_EQ(s.stats_requests, 1u);  // self-inclusive
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(s.published_epoch, 1u);
  EXPECT_EQ(s.ingest_pending, 1u);
}

TEST_F(HandlerTest, ChunkedDeliveryMatchesWholeFrames) {
  // chunk = 1 re-feeds every request byte-by-byte: identical responses.
  LoopbackClient whole(store_, metrics_);
  LoopbackClient chopped(store_, metrics_, /*lane=*/0, /*chunk=*/1);
  for (std::uint64_t id = 0; id < 8; ++id) {
    const LookupResp a = whole.lookup(id);
    const LookupResp b = chopped.lookup(id);
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_DOUBLE_EQ(a.score, b.score);
  }
  EXPECT_EQ(errors(), 0u);
}

TEST_F(HandlerTest, PipelinedRequestsSplitAcrossReads) {
  // Three pipelined requests, split at every possible byte boundary: the
  // handler must produce exactly the same three responses each time.
  std::vector<std::uint8_t> wire;
  const std::uint64_t batch_ids[] = {2, 3};
  encode_lookup(wire, 1);
  encode_batch_lookup(wire, batch_ids, 2);
  encode_ingest(wire, 0, 4, 0.5);

  for (std::size_t split = 1; split < wire.size(); ++split) {
    LoopbackClient c(store_, metrics_);
    ASSERT_TRUE(c.send_raw(wire.data(), split));
    ASSERT_TRUE(c.send_raw(wire.data() + split, wire.size() - split));
    // 3 responses: LOOKUP_R (8+16) + BATCH_R (8+8+32) + INGEST_R (8+8).
    EXPECT_EQ(c.received().size(), 24u + 48u + 16u) << "split " << split;
  }
  EXPECT_EQ(errors(), 0u);
}

// --- malformed-input tables: every row must close loudly, never crash ------

struct BadFrame {
  const char* name;
  std::vector<std::uint8_t> bytes;
};

std::vector<std::uint8_t> frame(Op op, std::uint32_t claimed_len,
                                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(kHeaderSize);
  encode_header(out.data(), op, claimed_len);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<BadFrame> malformed_table() {
  std::vector<BadFrame> rows;
  // Unknown opcode.
  rows.push_back({"unknown_opcode", frame(static_cast<Op>(0x5a), 0, {})});
  // A response opcode arriving as a request.
  rows.push_back({"response_as_request", frame(Op::kLookupResp, 0, {})});
  // LOOKUP with wrong payload sizes.
  rows.push_back({"lookup_short", frame(Op::kLookup, 4, {1, 2, 3, 4})});
  rows.push_back(
      {"lookup_long", frame(Op::kLookup, 12, std::vector<std::uint8_t>(12))});
  // STATS must be empty.
  rows.push_back({"stats_with_payload", frame(Op::kStats, 1, {0})});
  // INGEST truncated.
  rows.push_back(
      {"ingest_short", frame(Op::kIngest, 16, std::vector<std::uint8_t>(16))});
  // INGEST whose rating is not a finite number.
  {
    std::vector<std::uint8_t> payload(24);
    put_u64(payload.data(), 0);
    put_u64(payload.data() + 8, 1);
    put_f64(payload.data() + 16, std::numeric_limits<double>::quiet_NaN());
    rows.push_back({"ingest_nan_value", frame(Op::kIngest, 24, payload)});
  }
  // BATCH whose count disagrees with payload_len.
  {
    std::vector<std::uint8_t> payload(8 + 8);
    put_u32(payload.data(), 5);  // claims 5 ids, carries 1
    rows.push_back({"batch_count_mismatch", frame(Op::kBatchLookup, 16, payload)});
  }
  // BATCH with nonzero pad bits.
  {
    std::vector<std::uint8_t> payload(8 + 8);
    put_u32(payload.data(), 1);
    put_u32(payload.data() + 4, 0xdeadbeef);
    rows.push_back({"batch_nonzero_pad", frame(Op::kBatchLookup, 16, payload)});
  }
  // BATCH count over kMaxBatch (payload_len itself stays legal).
  {
    std::vector<std::uint8_t> payload(8);
    put_u32(payload.data(), static_cast<std::uint32_t>(kMaxBatch) + 1);
    rows.push_back({"batch_count_over_max", frame(Op::kBatchLookup, 8, payload)});
  }
  // Oversized payload_len in the header.
  {
    std::vector<std::uint8_t> out(kHeaderSize);
    encode_header(out.data(), Op::kLookup, 8);
    put_u32(out.data(), static_cast<std::uint32_t>(kMaxPayload) + 7);
    rows.push_back({"oversized_length", out});
  }
  // Bad version / reserved bits.
  {
    auto bytes = frame(Op::kLookup, 8, std::vector<std::uint8_t>(8));
    bytes[5] = 9;
    rows.push_back({"bad_version", bytes});
  }
  {
    auto bytes = frame(Op::kLookup, 8, std::vector<std::uint8_t>(8));
    bytes[7] = 1;
    rows.push_back({"reserved_bits", bytes});
  }
  // Plain garbage.
  rows.push_back({"garbage", {0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8,
                              0x42, 0x42, 0x42, 0x42}});
  return rows;
}

TEST_F(HandlerTest, MalformedFramesCloseLoudly) {
  const std::uint64_t errors_before = errors();
  std::uint64_t closed = 0;
  for (const BadFrame& row : malformed_table()) {
    LoopbackClient c(store_, metrics_);
    // A prefix of valid traffic must not mask the error that follows.
    c.lookup(0);
    EXPECT_FALSE(c.send_raw(row.bytes.data(), row.bytes.size()))
        << "handler accepted malformed frame: " << row.name;
    EXPECT_TRUE(c.closed()) << row.name;
    ++closed;
    // Once closed, even a perfectly valid frame is refused.
    std::vector<std::uint8_t> good;
    encode_stats(good);
    EXPECT_FALSE(c.send_raw(good.data(), good.size())) << row.name;
  }
  EXPECT_EQ(errors() - errors_before, closed);
  EXPECT_EQ(store_.feedback_pending(), 0u);  // no malformed INGEST got through
}

TEST_F(HandlerTest, MalformedFramesSplitByteWiseStillClose) {
  // Same table, delivered one byte at a time: header validation must fire
  // at exactly the same point regardless of read fragmentation.
  for (const BadFrame& row : malformed_table()) {
    LoopbackClient c(store_, metrics_, /*lane=*/0, /*chunk=*/1);
    bool alive = true;
    for (const std::uint8_t byte : row.bytes) {
      alive = c.send_raw(&byte, 1);
      if (!alive) break;
    }
    EXPECT_FALSE(alive) << "byte-wise delivery masked: " << row.name;
  }
}

TEST_F(HandlerTest, TruncatedFrameIsPendingNotError) {
  // An incomplete frame is not malformed — the handler waits for the rest.
  LoopbackClient c(store_, metrics_);
  std::vector<std::uint8_t> wire;
  encode_lookup(wire, 3);
  ASSERT_TRUE(c.send_raw(wire.data(), wire.size() - 3));
  EXPECT_TRUE(c.received().empty());
  ASSERT_TRUE(c.send_raw(wire.data() + wire.size() - 3, 3));
  EXPECT_EQ(c.received().size(), kHeaderSize + 16u);  // the LOOKUP_R arrived
  EXPECT_EQ(errors(), 0u);
}

TEST_F(HandlerTest, DeterministicGarbageNeverCrashes) {
  // 64 pseudo-random byte blobs (fixed xorshift seed — reproducible): the
  // handler may close or may wait for more bytes, but must never crash,
  // over-read, or emit a malformed response.
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint8_t> blob((round * 7) % 64 + 1);
    for (auto& b : blob) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<std::uint8_t>(x);
    }
    LoopbackClient c(store_, metrics_);
    (void)c.send_raw(blob.data(), blob.size());
    if (!c.received().empty()) {
      // Whatever came back must parse as well-formed response frames.
      FrameParser p;
      ASSERT_TRUE(p.feed(c.received().data(), c.received().size()));
      FrameParser::Frame f;
      while (p.next(&f)) {
        EXPECT_TRUE(f.header.opcode & 0x80);
      }
      EXPECT_FALSE(p.error());
    }
  }
}

}  // namespace
}  // namespace gt::serve
