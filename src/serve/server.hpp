// serve::Server — the live reputation service's socket front end.
//
// A non-blocking TCP server on one event-loop thread. On Linux the loop is
// epoll-based (level-triggered); everywhere else — or when forced via
// ServerConfig::use_poll — it falls back to poll(2) with identical
// semantics. Each accepted connection owns a ConnectionHandler (fixed-size
// frame parsing, no per-request allocation once buffers are warm) and a tx
// buffer flushed opportunistically after handling and completed via
// EPOLLOUT/POLLOUT when the socket back-pressures. Connections whose unsent
// tx backlog crosses ServerConfig::tx_high_watermark stop being read until
// it drains below tx_low_watermark, so a client that pipelines requests
// without consuming responses cannot grow server memory without bound.
//
// The wait rule. Handling a request takes well under a microsecond, so a
// loop that blocks between requests spends most of each one's latency on
// its own sleep and wake-up. After a batch of events that came less than
// 200 µs after the previous batch, the loop polls — wait with a zero
// timeout — with one sched_yield() between empty polls, and keeps polling
// until 200 µs pass without an event. If one of those yields takes longer
// than 20 µs, another thread wanted the CPU (in repserved, the gossip lane
// that shares the event loop's CPU), and the loop goes back to the
// blocking wait at once. Both backends follow it.
//   * 200 µs is the window of Linux's guest halt-poll by default
//     (guest_halt_poll_ns). It is keyed on the gap between requests,
//     never on a workload: traffic with wider gaps never polls.
//   * 20 µs sits far from both sides: a bare sched_yield() on an idle CPU
//     takes under 1 µs (0.42 µs p50, 0.96 µs p99.9 on a 4-vCPU x86-64
//     VM), and a gossip block step at n = 512 runs about 55 µs.
// The price is CPU time while traffic is dense: the loop stays runnable
// instead of sleeping. serve_loop_polled and serve_loop_woken count the
// batches a poll found and those a blocking wait returned.
//
// Protocol errors close the connection immediately (the handler already
// counted them); EOF closes it quietly. stop() wakes the loop through a
// self-pipe, closes every connection, and joins the thread — safe to call
// multiple times and from any thread. The loop checks for stop before
// every wait, polls included.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "serve/handler.hpp"
#include "serve/store.hpp"
#include "telemetry/metrics.hpp"

namespace gt::serve {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see Server::port() after start
  /// Per-connection response backpressure: once the unsent tx backlog
  /// exceeds the high watermark the server stops reading that connection
  /// (bounding memory against clients that pipeline requests but never
  /// read responses) and resumes below the low watermark.
  std::size_t tx_high_watermark = 4u << 20;
  std::size_t tx_low_watermark = 256 * 1024;
  bool use_poll = false;  ///< force the poll(2) backend even on Linux
  /// Observability context threaded into every connection handler (slow
  /// frame log + fold-loop health; see observe.hpp). Copied at Server
  /// construction; the pointed-at log/health must outlive the server.
  ServeObservability observability{};
};

class Server {
 public:
  Server(ReputationStore& store, telemetry::MetricsRegistry& registry,
         ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the loop thread. Returns false (with a
  /// description in *error when given) on any socket failure.
  bool start(std::string* error = nullptr);

  /// Wakes the loop, closes every fd, joins. Idempotent.
  void stop();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (resolves port 0 after start()).
  std::uint16_t port() const noexcept { return port_; }

  /// "epoll" or "poll" — which backend the loop uses.
  const char* backend() const noexcept;

  std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  ServeMetrics& metrics() noexcept { return metrics_; }

 private:
  struct Connection;
  struct Impl;

  void run_loop();

  ReputationStore& store_;
  telemetry::MetricsRegistry& registry_;
  ServeMetrics metrics_;
  ServerConfig config_;

  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_{0};
};

}  // namespace gt::serve
