#include "client.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

namespace pb {

namespace serve = gt::serve;

int connect_tcp(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{5, 0};  // a blocking read that waits this long is a failure
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

namespace {

bool read_exact(int fd, std::uint8_t* p, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

void encode_frame(const LookupStream& s, std::uint64_t k,
                  std::vector<std::uint64_t>& scratch,
                  std::vector<std::uint8_t>& out) {
  const std::vector<std::uint64_t>& ids = *s.ids;
  std::size_t at = static_cast<std::size_t>((k * s.batch) % ids.size());
  scratch.assign(ids.begin() + static_cast<std::ptrdiff_t>(at),
                 ids.begin() + static_cast<std::ptrdiff_t>(at + s.batch));
  serve::encode_batch_lookup(out, scratch.data(), scratch.size());
}

/// Checks reply frame `k`; returns the number of keys that failed (a
/// malformed or short reply fails every key of the frame).
std::uint64_t check_reply(const LookupStream& s, std::uint64_t k,
                          const serve::FrameParser::Frame& f,
                          const KeyCheck& check) {
  if (static_cast<serve::Op>(f.header.opcode) != serve::Op::kBatchLookupResp)
    return s.batch;
  std::uint32_t count = 0;
  const std::uint8_t* e =
      serve::decode_batch_resp(f.payload, f.header.payload_len, &count);
  if (e == nullptr || count != s.batch) return s.batch;
  const std::vector<std::uint64_t>& ids = *s.ids;
  const std::size_t at = static_cast<std::size_t>((k * s.batch) % ids.size());
  const bool full = s.check_every <= 1 || k % s.check_every == 0;
  std::uint64_t bad = 0;
  for (std::size_t j = 0; j < s.batch; ++j, e += 16) {
    const std::uint64_t epoch = serve::get_u64(e);
    if (epoch == 0) {
      ++bad;
    } else if (full && !check(ids[at + j], epoch, serve::get_f64(e + 8))) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

bool request(int fd, const std::vector<std::uint8_t>& req, serve::Op resp,
             std::vector<std::uint8_t>& payload) {
  if (!write_all(fd, req.data(), req.size())) return false;
  std::uint8_t hdr[serve::kHeaderSize];
  if (!read_exact(fd, hdr, sizeof(hdr))) return false;
  serve::FrameHeader h;
  if (!serve::decode_header(hdr, &h)) return false;
  if (static_cast<serve::Op>(h.opcode) != resp) return false;
  payload.resize(h.payload_len);
  return h.payload_len == 0 || read_exact(fd, payload.data(), h.payload_len);
}

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Restricts thread `tid` (0: the caller) to CPUs [first, first + count),
/// modulo the CPUs present.
void set_affinity(pid_t tid, int first, int count) {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  const int ncpu = online > 0 ? static_cast<int>(online) : 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < count; ++i) CPU_SET((first + i) % ncpu, &set);
  ::sched_setaffinity(tid, sizeof(set), &set);
}

}  // namespace

void pin_this_thread(int first, int count) { set_affinity(0, first, count); }

// --- repserved child ---------------------------------------------------------

bool Repserved::start(const std::string& path,
                      const std::vector<std::string>& args, int first_cpu,
                      int ncpus, double timeout_s, std::string* error) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    *error = "pipe: " + std::string(std::strerror(errno));
    return false;
  }
  std::vector<std::string> argv_s;
  argv_s.push_back(path);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const std::int64_t t0 = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork: " + std::string(std::strerror(errno));
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    pin_this_thread(first_cpu, ncpus);
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::execv(path.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  pid_ = pid;
  out_fd_ = pipefd[0];

  std::string line;
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(timeout_s * 1e9);
  while (line.find('\n') == std::string::npos) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) {
      *error = "not ready within timeout";
      return false;
    }
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "exited before ready";
      return false;
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  ready_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  // "repserved: listening on 127.0.0.1:PORT (backend ...)"
  const std::size_t at = line.find("listening on ");
  const std::size_t colon =
      at == std::string::npos ? std::string::npos : line.find(':', at + 13);
  if (colon == std::string::npos) {
    *error = "unexpected ready line: " + line;
    return false;
  }
  port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
  if (port_ == 0) {
    *error = "no port in ready line: " + line;
    return false;
  }
  // Left to the kernel, the fold loop (main thread) and the server's event
  // loop can share one of the child's CPUs for seconds at a time, which
  // slows folds and lookups in some runs and not others. Every thread exists
  // once the ready line is out: main on the first CPU, the rest on the others.
  if (ncpus > 1) {
    const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
    if (DIR* d = ::opendir(task_dir.c_str())) {
      while (const dirent* e = ::readdir(d)) {
        const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
        if (tid <= 0) continue;
        const bool main_thread = tid == pid;
        set_affinity(tid, main_thread ? first_cpu : first_cpu + 1,
                     main_thread ? 1 : ncpus - 1);
      }
      ::closedir(d);
    }
  }
  return true;
}

double Repserved::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      f >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void Repserved::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 2000 && !reaped; ++i) {  // 20 s: a fold may be running
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

// --- load shapes --------------------------------------------------------------

OpenLoopResult run_open_loop(int fd, const LookupStream& stream, double rate,
                             double seconds, const KeyCheck& check) {
  OpenLoopResult r;
  const std::uint64_t total =
      static_cast<std::uint64_t>(std::llround(rate * seconds));
  r.latency_us.reserve(total);
  ::prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us wakeup slack for this thread
  set_nonblocking(fd, true);

  serve::FrameParser parser;
  std::vector<std::uint8_t> tx, rx(64 * 1024);
  std::vector<std::uint64_t> scratch;
  std::size_t tx_off = 0;
  const OpenLoopSchedule sched(now_ns() + 1000000, rate);  // first due in 1 ms
  const std::int64_t give_up =
      sched.due_ns(total) + 2'000'000'000LL;  // replies owed after the last due

  while (r.answered < total && !r.io_error) {
    std::int64_t now = now_ns();
    if (now > give_up) break;
    bool progressed = false;
    while (r.frames < total && sched.due_ns(r.frames) <= now) {
      encode_frame(stream, r.frames, scratch, tx);
      r.lateness.record(sched.due_ns(r.frames), now);
      ++r.frames;
      progressed = true;
    }
    if (tx_off < tx.size()) {
      const ssize_t n =
          ::send(fd, tx.data() + tx_off, tx.size() - tx_off, MSG_NOSIGNAL);
      if (n > 0) {
        tx_off += static_cast<std::size_t>(n);
        progressed = true;
        if (tx_off == tx.size()) {
          tx.clear();
          tx_off = 0;
        }
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        r.io_error = true;
      }
    }
    for (;;) {
      const ssize_t n = ::recv(fd, rx.data(), rx.size(), 0);
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EINTR)) r.io_error = true;
        break;
      }
      progressed = true;
      if (!parser.feed(rx.data(), static_cast<std::size_t>(n))) {
        r.io_error = true;
        break;
      }
      const std::int64_t t_rx = now_ns();
      serve::FrameParser::Frame f;
      while (parser.next(&f)) {
        const std::uint64_t bad = check_reply(stream, r.answered, f, check);
        r.bad_keys += bad;
        r.bad_frames += bad ? 1 : 0;
        r.latency_us.push_back(sched.latency_us(r.answered, t_rx));
        r.keys += stream.batch;
        ++r.answered;
      }
    }
    if (progressed) continue;
    // Idle: spin while frames are still due (a sleeping thread's CPU halts,
    // and waking a halted virtual CPU costs more than the frame), block in
    // the kernel once only replies are owed.
    if (r.frames >= total) {
      pollfd p{fd, static_cast<short>(POLLIN | (tx.empty() ? 0 : POLLOUT)), 0};
      const timespec ts{0, 1'000'000};
      ::ppoll(&p, 1, &ts, nullptr);
    }
  }
  set_nonblocking(fd, false);
  return r;
}

ClosedLoopResult run_closed_loop(int fd, const LookupStream& stream,
                                 std::size_t pipeline, double seconds,
                                 const KeyCheck& check) {
  ClosedLoopResult r;
  serve::FrameParser parser;
  std::vector<std::uint8_t> tx, rx(64 * 1024);
  std::vector<std::uint64_t> scratch;
  std::uint64_t sent = 0;
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t window_ns = static_cast<std::int64_t>(kCapacityWindowS * 1e9);
  std::int64_t window_start = t0;
  std::uint64_t window_keys = 0;
  auto send_one = [&] {
    tx.clear();
    encode_frame(stream, sent++, scratch, tx);
    if (!write_all(fd, tx.data(), tx.size())) r.io_error = true;
  };
  for (std::size_t i = 0; i < pipeline && !r.io_error; ++i) send_one();
  // Spin on a non-blocking socket, as the open loop does: the client's CPU
  // never halts, so capacity is not a measure of virtual-CPU wake-ups.
  set_nonblocking(fd, true);
  std::int64_t last_rx = now_ns();
  while (r.frames < sent && !r.io_error) {
    const ssize_t n = ::recv(fd, rx.data(), rx.size(), MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
        if (now_ns() - last_rx > 5'000'000'000LL) r.io_error = true;  // stalled
        continue;
      }
      r.io_error = true;  // EOF or error
      break;
    }
    last_rx = now_ns();
    if (!parser.feed(rx.data(), static_cast<std::size_t>(n))) {
      r.io_error = true;
      break;
    }
    serve::FrameParser::Frame f;
    std::size_t replies = 0;
    while (parser.next(&f)) {
      const std::uint64_t bad = check_reply(stream, r.frames, f, check);
      r.bad_keys += bad;
      r.bad_frames += bad ? 1 : 0;
      r.keys += stream.batch;
      ++r.frames;
      ++replies;
    }
    const std::int64_t now = now_ns();
    if (now - window_start >= window_ns) {
      r.window_keys_per_s.push_back(static_cast<double>(r.keys - window_keys) * 1e9 /
                                    static_cast<double>(now - window_start));
      window_start = now;
      window_keys = r.keys;
    }
    if (now < end)
      for (std::size_t i = 0; i < replies && !r.io_error; ++i) send_one();
  }
  set_nonblocking(fd, false);
  const std::int64_t t_end = now_ns();
  if (r.window_keys_per_s.empty() && t_end > window_start)  // phase under one window
    r.window_keys_per_s.push_back(static_cast<double>(r.keys - window_keys) * 1e9 /
                                  static_cast<double>(t_end - window_start));
  r.seconds = static_cast<double>(t_end - t0) * 1e-9;
  return r;
}

}  // namespace pb
