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
// Protocol errors close the connection immediately (the handler already
// counted them); EOF closes it quietly. stop() wakes the loop through a
// self-pipe, closes every connection, and joins the thread — safe to call
// multiple times and from any thread.
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
