#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <vector>

#if defined(__linux__)
#include <sys/epoll.h>
#define GT_SERVE_HAVE_EPOLL 1
#else
#define GT_SERVE_HAVE_EPOLL 0
#endif

namespace gt::serve {

namespace {

constexpr int kListenBacklog = 128;
constexpr std::size_t kMaxConnections = 256;  ///< accepts beyond this are refused
constexpr std::size_t kReadChunk = 64 * 1024;  ///< per-read buffer size
/// Metrics lane of the one loop thread's handlers and lifecycle counters.
constexpr std::size_t kMetricsLane = 0;
/// Poll window (see server.hpp): a batch this soon after the previous one
/// makes the loop poll, and it polls until this long passes without one.
constexpr auto kPollWindow = std::chrono::microseconds(200);
/// A sched_yield() between empty polls that takes longer than this means
/// another thread wanted the CPU: the loop goes back to the blocking wait.
constexpr auto kContendedYield = std::chrono::microseconds(20);

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Minimal readiness abstraction so the epoll and poll loops share every
// line of connection logic. While requests arrive densely the loop polls,
// wait(out, 0) back to back one sched_yield() apart, so wait() is on the
// hot path then: keep it one system call and one pass over its results.
struct Poller {
  struct Event {
    int fd;
    bool readable;
    bool writable;
    bool error;
  };
  virtual ~Poller() = default;
  virtual bool add(int fd) = 0;  ///< registers read-only interest
  virtual void modify(int fd, bool want_read, bool want_write) = 0;
  virtual void remove(int fd) = 0;
  virtual int wait(std::vector<Event>& out, int timeout_ms) = 0;
};

#if GT_SERVE_HAVE_EPOLL
struct EpollPoller final : Poller {
  int ep = -1;
  std::vector<epoll_event> buf;

  EpollPoller() : ep(::epoll_create1(EPOLL_CLOEXEC)), buf(64) {}
  ~EpollPoller() override {
    if (ep >= 0) ::close(ep);
  }
  bool ok() const { return ep >= 0; }

  static std::uint32_t mask(bool want_read, bool want_write) {
    return (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  }
  bool add(int fd) override {
    epoll_event ev{};
    ev.events = mask(true, false);
    ev.data.fd = fd;
    return ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev) == 0;
  }
  void modify(int fd, bool want_read, bool want_write) override {
    epoll_event ev{};
    ev.events = mask(want_read, want_write);
    ev.data.fd = fd;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, fd, &ev);
  }
  void remove(int fd) override { ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr); }
  int wait(std::vector<Event>& out, int timeout_ms) override {
    const int n = ::epoll_wait(ep, buf.data(), static_cast<int>(buf.size()),
                               timeout_ms);
    out.clear();
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = buf[static_cast<std::size_t>(i)];
      out.push_back({ev.data.fd, (ev.events & (EPOLLIN | EPOLLHUP)) != 0,
                     (ev.events & EPOLLOUT) != 0,
                     (ev.events & EPOLLERR) != 0});
    }
    if (n == static_cast<int>(buf.size())) buf.resize(buf.size() * 2);
    return n;
  }
};
#endif

struct PollPoller final : Poller {
  std::vector<pollfd> fds;
  std::unordered_map<int, std::size_t> index;

  static short mask(bool want_read, bool want_write) {
    return static_cast<short>((want_read ? POLLIN : 0) |
                              (want_write ? POLLOUT : 0));
  }
  bool add(int fd) override {
    index[fd] = fds.size();
    fds.push_back({fd, mask(true, false), 0});
    return true;
  }
  void modify(int fd, bool want_read, bool want_write) override {
    auto it = index.find(fd);
    if (it != index.end()) fds[it->second].events = mask(want_read, want_write);
  }
  void remove(int fd) override {
    auto it = index.find(fd);
    if (it == index.end()) return;
    const std::size_t i = it->second;
    index.erase(it);
    if (i + 1 != fds.size()) {
      fds[i] = fds.back();
      index[fds[i].fd] = i;
    }
    fds.pop_back();
  }
  int wait(std::vector<Event>& out, int timeout_ms) override {
    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                         timeout_ms);
    out.clear();
    if (n <= 0) return n;
    for (const pollfd& p : fds) {
      if (p.revents == 0) continue;
      out.push_back({p.fd, (p.revents & (POLLIN | POLLHUP)) != 0,
                     (p.revents & POLLOUT) != 0,
                     (p.revents & (POLLERR | POLLNVAL)) != 0});
    }
    return n;
  }
};

}  // namespace

struct Server::Connection {
  int fd = -1;
  ConnectionHandler handler;
  std::vector<std::uint8_t> tx;
  std::size_t tx_off = 0;
  bool want_read = true;
  bool want_write = false;
  bool paused = false;  ///< reads suspended: tx backlog over the high water

  Connection(int fd_, ReputationStore& store, ServeMetrics& metrics,
             const ServeObservability* obs, std::uint64_t conn_id)
      : fd(fd_), handler(store, metrics, kMetricsLane, obs, conn_id) {}
};

Server::Server(ReputationStore& store, telemetry::MetricsRegistry& registry,
               ServerConfig config)
    : store_(store),
      registry_(registry),
      metrics_(ServeMetrics::register_on(registry)),
      config_(std::move(config)) {}

Server::~Server() { stop(); }

const char* Server::backend() const noexcept {
#if GT_SERVE_HAVE_EPOLL
  return config_.use_poll ? "poll" : "epoll";
#else
  return "poll";
#endif
}

bool Server::start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) *error = errno_string(what);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_rd_ >= 0) ::close(wake_rd_);
    if (wake_wr_ >= 0) ::close(wake_wr_);
    listen_fd_ = wake_rd_ = wake_wr_ = -1;
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "already running";
    return false;
  }
  stop_requested_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (!set_nonblocking(listen_fd_)) return fail("fcntl(listen)");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1)
    return fail("inet_pton");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return fail("bind");
  if (::listen(listen_fd_, kListenBacklog) != 0) return fail("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return fail("getsockname");
  port_ = ntohs(addr.sin_port);

  int pipefd[2];
  if (::pipe(pipefd) != 0) return fail("pipe");
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] {
    ::pthread_setname_np(::pthread_self(), "gt-serve");
    run_loop();
  });
  return true;
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  if (wake_wr_ >= 0) {
    const char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
  }
  if (thread_.joinable()) thread_.join();
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
  running_.store(false, std::memory_order_release);
}

void Server::run_loop() {
  std::unique_ptr<Poller> poller;
#if GT_SERVE_HAVE_EPOLL
  if (!config_.use_poll) {
    auto ep = std::make_unique<EpollPoller>();
    if (ep->ok()) poller = std::move(ep);
  }
#endif
  if (poller == nullptr) poller = std::make_unique<PollPoller>();

  poller->add(listen_fd_);
  poller->add(wake_rd_);

  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  std::vector<std::uint8_t> read_buf(kReadChunk);
  std::vector<Poller::Event> events;

  // handler_error: the handler already counted the close; normal closes
  // (EOF, write failure, shutdown) are counted here.
  auto close_conn = [&](int fd, bool handler_error) {
    poller->remove(fd);
    ::close(fd);
    conns.erase(fd);
    active_.store(conns.size(), std::memory_order_relaxed);
    if (!handler_error) registry_.add(metrics_.conns_closed, 1, kMetricsLane);
  };

  // Returns false when the connection died on a write error. Leaves poller
  // interest to update_interest (call it after every flush on a live conn).
  auto flush_tx = [&](Connection& c) -> bool {
    while (c.tx_off < c.tx.size()) {
      const ssize_t n = ::write(c.fd, c.tx.data() + c.tx_off,
                                c.tx.size() - c.tx_off);
      if (n > 0) {
        c.tx_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer gone mid-write
    }
    c.tx.clear();
    c.tx_off = 0;
    return true;
  };

  // Backpressure: a client that pipelines requests without reading the
  // responses must not grow tx without bound. Past the high watermark stop
  // reading (drop read interest) so the request flow stalls; resume once
  // the backlog drains below the low watermark. Write interest simply
  // tracks whether anything is pending.
  auto update_interest = [&](Connection& c) {
    const std::size_t pending = c.tx.size() - c.tx_off;
    if (pending > config_.tx_high_watermark) {
      if (!c.paused) registry_.add(metrics_.bp_pauses, 1, kMetricsLane);
      c.paused = true;
    } else if (pending <= config_.tx_low_watermark) {
      if (c.paused) registry_.add(metrics_.bp_resumes, 1, kMetricsLane);
      c.paused = false;
    }
    const bool want_read = !c.paused;
    const bool want_write = pending > 0;
    if (want_read != c.want_read || want_write != c.want_write) {
      c.want_read = want_read;
      c.want_write = want_write;
      poller->modify(c.fd, want_read, want_write);
    }
  };

  auto accept_all = [&] {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        return;  // transient accept failure; the loop will retry
      }
      if (conns.size() >= kMaxConnections || !set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::uint64_t conn_id =
          accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
      conns.emplace(fd, std::make_unique<Connection>(
                            fd, store_, metrics_, &config_.observability,
                            conn_id));
      poller->add(fd);
      active_.store(conns.size(), std::memory_order_relaxed);
    }
  };

  // The wait rule (server.hpp): block while batches are sparse; poll, one
  // sched_yield() apart, while they come within kPollWindow of each other
  // and no other thread wants this CPU.
  using Clock = std::chrono::steady_clock;
  bool polling = false;
  Clock::time_point last_batch{};  // when a wait last returned events
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (polling) {
      if (poller->wait(events, 0) <= 0) {
        const Clock::time_point idle = Clock::now();
        if (idle - last_batch >= kPollWindow) {
          polling = false;
          continue;
        }
        ::sched_yield();
        if (Clock::now() - idle > kContendedYield) polling = false;
        continue;
      }
      registry_.add(metrics_.loop_polled, 1, kMetricsLane);
    } else {
      if (poller->wait(events, -1) <= 0) continue;  // EINTR
      registry_.add(metrics_.loop_woken, 1, kMetricsLane);
    }
    const Clock::time_point now = Clock::now();
    polling = now - last_batch < kPollWindow;
    last_batch = now;
    for (const Poller::Event& ev : events) {
      if (ev.fd == wake_rd_) {
        char drain[64];
        while (::read(wake_rd_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (ev.fd == listen_fd_) {
        accept_all();
        continue;
      }
      auto it = conns.find(ev.fd);
      if (it == conns.end()) continue;
      Connection& c = *it->second;
      if (ev.error) {
        close_conn(ev.fd, false);
        continue;
      }
      if (ev.writable) {
        if (!flush_tx(c)) {
          close_conn(ev.fd, false);
          continue;
        }
        update_interest(c);  // may resume reads after draining
      }
      if (!ev.readable || c.paused) continue;
      bool closed = false;
      for (;;) {
        const ssize_t n = ::read(c.fd, read_buf.data(), read_buf.size());
        if (n > 0) {
          if (!c.handler.on_bytes(read_buf.data(),
                                  static_cast<std::size_t>(n), c.tx)) {
            close_conn(ev.fd, true);  // protocol error: loud close
            closed = true;
            break;
          }
          // Stop consuming input once the response backlog crosses the
          // high watermark — a 64 KiB read of pipelined batch requests can
          // expand to many MiB of responses. The post-loop update_interest
          // pauses the connection; level-triggered polling re-raises
          // readability for the unread socket data once reads resume.
          if (c.tx.size() - c.tx_off > config_.tx_high_watermark) break;
          if (static_cast<std::size_t>(n) < read_buf.size()) break;
          continue;
        }
        if (n == 0) {  // EOF
          close_conn(ev.fd, false);
          closed = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        close_conn(ev.fd, false);
        closed = true;
        break;
      }
      if (closed) continue;
      if (!flush_tx(c)) {
        close_conn(ev.fd, false);
        continue;
      }
      update_interest(c);
    }
  }

  for (auto& [fd, conn] : conns) {
    ::close(fd);
    registry_.add(metrics_.conns_closed, 1, kMetricsLane);
  }
  conns.clear();
  active_.store(0, std::memory_order_relaxed);
  poller->remove(listen_fd_);
  ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace gt::serve
