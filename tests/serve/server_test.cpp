// serve::Server end to end: real sockets against both poller backends,
// malformed input over TCP, clean shutdown with connections open, the
// event loop's poll and blocking states, and the observational gate —
// serving must not perturb engine results.
#include "serve/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "serve/handler.hpp"
#include "serve/loopback.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"
#include "telemetry/metrics.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::serve {
namespace {

/// Minimal blocking test client (2s receive timeout so a broken server
/// fails the test instead of hanging ctest).
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  /// MSG_NOSIGNAL: a send to a connection the server closed fails with
  /// EPIPE instead of killing the test with SIGPIPE.
  bool send(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        note_close(n);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads exactly `len` bytes; false on EOF, timeout, or error.
  bool recv_exact(std::uint8_t* out, std::size_t len) {
    std::size_t got = 0;
    while (got < len) {
      const ssize_t n = ::read(fd_, out + got, len - got);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        note_close(n);
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Receives one whole response frame (header + payload).
  bool recv_frame(FrameHeader* h, std::vector<std::uint8_t>* payload) {
    std::uint8_t hdr[kHeaderSize];
    if (!recv_exact(hdr, sizeof(hdr))) return false;
    if (!decode_header(hdr, h)) return false;
    payload->resize(h->payload_len);
    return h->payload_len == 0 || recv_exact(payload->data(), h->payload_len);
  }

  /// True when the server has closed the connection (read returns EOF).
  bool eof() {
    std::uint8_t byte;
    const ssize_t n = ::read(fd_, &byte, 1);
    return n == 0;
  }

  /// True once a send or receive failed because the server closed the
  /// connection: EOF, or a reset when the close found a request unread.
  /// A receive timeout does not count.
  bool closed_by_server() const { return closed_by_server_; }

 private:
  void note_close(ssize_t n) {
    if (n == 0 || errno == ECONNRESET || errno == EPIPE)
      closed_by_server_ = true;
  }

  int fd_ = -1;
  bool closed_by_server_ = false;
};

class ServerTest : public ::testing::TestWithParam<bool> {
 protected:
  ServerTest()
      : registry_(2), metrics_(ServeMetrics::register_on(registry_)) {
    store_.publish({0.5, 0.3, 0.2});
  }

  void start() {
    ServerConfig cfg;
    cfg.use_poll = GetParam();
    server_ = std::make_unique<Server>(store_, registry_, cfg);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  ReputationStore store_;
  telemetry::MetricsRegistry registry_;
  ServeMetrics metrics_;
  std::unique_ptr<Server> server_;
};

TEST_P(ServerTest, LookupBatchIngestStatsOverTcp) {
  start();
  TestClient c(server_->port());
  ASSERT_TRUE(c.ok());

  std::vector<std::uint8_t> tx;
  encode_lookup(tx, 1);
  ASSERT_TRUE(c.send(tx));
  FrameHeader h;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(c.recv_frame(&h, &payload));
  EXPECT_EQ(h.opcode, static_cast<std::uint8_t>(Op::kLookupResp));
  LookupResp lr;
  ASSERT_TRUE(decode_lookup_resp(payload.data(), payload.size(), &lr));
  EXPECT_EQ(lr.epoch, 1u);
  EXPECT_DOUBLE_EQ(lr.score, 0.3);

  // Pipelined burst: batch + ingest + stats in one write.
  tx.clear();
  const std::uint64_t ids[] = {0, 2, 77};
  encode_batch_lookup(tx, ids, 3);
  encode_ingest(tx, 0, 1, 0.8);
  encode_stats(tx);
  ASSERT_TRUE(c.send(tx));

  ASSERT_TRUE(c.recv_frame(&h, &payload));
  EXPECT_EQ(h.opcode, static_cast<std::uint8_t>(Op::kBatchLookupResp));
  std::uint32_t count = 0;
  const std::uint8_t* entries =
      decode_batch_resp(payload.data(), payload.size(), &count);
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(count, 3u);
  EXPECT_DOUBLE_EQ(get_f64(entries + 8), 0.5);
  EXPECT_EQ(get_u64(entries + 32), 0u);  // id 77: miss

  ASSERT_TRUE(c.recv_frame(&h, &payload));
  EXPECT_EQ(h.opcode, static_cast<std::uint8_t>(Op::kIngestResp));

  ASSERT_TRUE(c.recv_frame(&h, &payload));
  StatsPayload s;
  ASSERT_TRUE(decode_stats_resp(payload.data(), payload.size(), &s));
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.batch_keys, 3u);
  EXPECT_EQ(s.ingests, 1u);
  EXPECT_EQ(s.ingest_pending, 1u);

  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST_P(ServerTest, MalformedInputClosesTheConnection) {
  start();
  TestClient c(server_->port());
  ASSERT_TRUE(c.ok());
  std::vector<std::uint8_t> junk(16, 0xee);
  ASSERT_TRUE(c.send(junk));
  EXPECT_TRUE(c.eof()) << "server kept a connection alive after garbage";
  EXPECT_GE(registry_.counter_value(metrics_.proto_errors), 1u);

  // The server itself must survive and serve new connections.
  TestClient c2(server_->port());
  ASSERT_TRUE(c2.ok());
  std::vector<std::uint8_t> tx;
  encode_lookup(tx, 0);
  ASSERT_TRUE(c2.send(tx));
  FrameHeader h;
  std::vector<std::uint8_t> payload;
  EXPECT_TRUE(c2.recv_frame(&h, &payload));
  server_->stop();
}

TEST_P(ServerTest, BackpressuredPipelineStillGetsEveryResponse) {
  // Tiny watermarks so a pipelined burst trips the read pause quickly: the
  // server must stop reading while the tx backlog is high, resume once it
  // drains, and deliver every response in order — never hang or drop.
  ServerConfig cfg;
  cfg.use_poll = GetParam();
  cfg.tx_high_watermark = 4096;
  cfg.tx_low_watermark = 512;
  server_ = std::make_unique<Server>(store_, registry_, cfg);
  std::string error;
  ASSERT_TRUE(server_->start(&error)) << error;

  TestClient c(server_->port());
  ASSERT_TRUE(c.ok());

  constexpr int kRequests = 256;
  constexpr std::size_t kKeys = 32;
  std::vector<std::uint64_t> ids(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) ids[i] = i % 3;
  std::vector<std::uint8_t> tx;
  for (int r = 0; r < kRequests; ++r)
    encode_batch_lookup(tx, ids.data(), ids.size());

  // Send from a helper thread: once the server pauses reading, the send
  // blocks until the main thread drains responses — exactly the flow the
  // watermarks are meant to create.
  std::thread sender([&] { c.send(tx); });
  FrameHeader h;
  std::vector<std::uint8_t> payload;
  for (int r = 0; r < kRequests; ++r) {
    ASSERT_TRUE(c.recv_frame(&h, &payload)) << "response " << r;
    EXPECT_EQ(h.opcode, static_cast<std::uint8_t>(Op::kBatchLookupResp));
    std::uint32_t count = 0;
    ASSERT_NE(decode_batch_resp(payload.data(), payload.size(), &count),
              nullptr);
    EXPECT_EQ(count, kKeys);
  }
  sender.join();
  EXPECT_EQ(registry_.counter_value(metrics_.proto_errors), 0u);
  server_->stop();
}

TEST_P(ServerTest, CleanStopWithOpenConnections) {
  start();
  TestClient c1(server_->port());
  TestClient c2(server_->port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  // Exercise one connection so accept definitely happened before stop.
  std::vector<std::uint8_t> tx;
  encode_stats(tx);
  ASSERT_TRUE(c1.send(tx));
  FrameHeader h;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(c1.recv_frame(&h, &payload));

  server_->stop();  // must join the loop and close both connections
  EXPECT_FALSE(server_->running());
  EXPECT_TRUE(c1.eof());
  EXPECT_TRUE(c2.eof());
  server_->stop();  // idempotent
}

// After a back-to-back burst the loop may be polling. 5 ms of silence (25
// poll windows) must put it back in the blocking wait, and the next request
// must be answered from there. Only serve_loop_woken is asserted: a slow
// (sanitizer) build may never poll, and a loop preempted inside its window
// can poll the late request up instead, so the late request gets retries.
TEST_P(ServerTest, RequestAfterAnIdleGapIsAnsweredByABlockingWait) {
  start();
  TestClient c(server_->port());
  ASSERT_TRUE(c.ok());
  std::vector<std::uint8_t> tx;
  encode_lookup(tx, 1);
  FrameHeader h;
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(c.send(tx));
    ASSERT_TRUE(c.recv_frame(&h, &payload)) << "burst request " << i;
  }
  bool woken = false;
  for (int attempt = 0; attempt < 10 && !woken; ++attempt) {
    const std::uint64_t before = registry_.counter_value(metrics_.loop_woken);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(c.send(tx));
    ASSERT_TRUE(c.recv_frame(&h, &payload)) << "request after the gap";
    EXPECT_EQ(h.opcode, static_cast<std::uint8_t>(Op::kLookupResp));
    woken = registry_.counter_value(metrics_.loop_woken) > before;
  }
  EXPECT_TRUE(woken) << "no request after a 5 ms gap reached a blocking wait";
  server_->stop();
}

// A client streaming requests back to back keeps a fast build's loop
// polling; stop() must still end the loop at once and close the client.
TEST_P(ServerTest, StopIsPromptWhileAClientStreams) {
  start();
  TestClient c(server_->port());
  ASSERT_TRUE(c.ok());
  std::atomic<int> answered{0};
  std::atomic<bool> client_done{false};
  std::thread client([&] {
    std::vector<std::uint8_t> tx;
    encode_lookup(tx, 2);
    FrameHeader h;
    std::vector<std::uint8_t> payload;
    while (c.send(tx) && c.recv_frame(&h, &payload))
      answered.fetch_add(1, std::memory_order_relaxed);
    client_done.store(true, std::memory_order_release);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (answered.load(std::memory_order_relaxed) < 200 &&
         !client_done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(answered.load(std::memory_order_relaxed), 200);

  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  client.join();
  EXPECT_FALSE(server_->running());
  EXPECT_LT(took, std::chrono::seconds(1));
  EXPECT_TRUE(c.closed_by_server()) << "client timed out instead of seeing EOF";
}

INSTANTIATE_TEST_SUITE_P(Backends, ServerTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& backend) {
                           return backend.param ? "poll" : "epoll";
                         });

// Serving is observational: folding converged scores into the store and
// serving traffic from it must not change what the engine computes. Two
// identical engine runs bracket a burst of store publishes + serve traffic;
// the score vectors must match bit for bit.
TEST(ServeObservational, EngineResultsAreBitIdenticalAcrossServing) {
  constexpr std::size_t kN = 64;
  const auto run_engine = [&] {
    gt::Rng rng(7);
    trust::FeedbackLedger ledger(kN);
    const std::vector<double> qualities =
        trust::draw_service_qualities(kN, kN / 10, rng);
    trust::FeedbackGenConfig gen;
    gen.n = kN;
    trust::generate_honest_feedback(ledger, qualities, gen, rng);
    core::GossipTrustConfig cfg;
    core::GossipTrustEngine engine(kN, cfg);
    return engine.run(ledger.normalized_matrix(), rng).scores;
  };

  const std::vector<double> before = run_engine();

  // Serve the scores hard between the two runs.
  ReputationStore store;
  store.publish(before);
  telemetry::MetricsRegistry registry(1);
  ServeMetrics metrics = ServeMetrics::register_on(registry);
  LoopbackClient client(store, metrics);
  for (std::uint64_t i = 0; i < 512; ++i) {
    client.lookup(i % kN);
    if (i % 3 == 0) client.ingest(i % kN, (i + 1) % kN, 0.5);
  }
  std::vector<double> republished = before;
  republished[0] = 0.999;
  store.publish(republished);

  const std::vector<double> after = run_engine();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "score " << i << " diverged";
  }
}

}  // namespace
}  // namespace gt::serve
