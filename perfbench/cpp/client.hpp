// Client side of the serve workloads: loopback TCP helpers, the repserved
// child process, and the two BATCH_LOOKUP load shapes —
//   * open loop: frames sent on a fixed-rate schedule whether or not
//     earlier ones were answered, each timed from its due time;
//   * closed loop: a fixed number of frames kept in flight per connection,
//     the next sent only when one is answered (capacity).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "measure.hpp"
#include "serve/protocol.hpp"

namespace pb {

/// Blocking loopback connection with TCP_NODELAY; -1 on failure.
int connect_tcp(std::uint16_t port);

bool write_all(int fd, const std::uint8_t* data, std::size_t len);

/// Sends `req` and reads one reply frame into `payload`; false on an I/O
/// error, a malformed header, or a reply opcode other than `resp`.
bool request(int fd, const std::vector<std::uint8_t>& req, gt::serve::Op resp,
             std::vector<std::uint8_t>& payload);

/// Peak resident set of this process, MiB.
double self_peak_rss_mb();

/// Restricts the calling thread to CPUs [first, first + count) (modulo
/// the CPUs present); threads it creates afterwards inherit the mask.
/// Every thread of a serve workload is placed this way, so run-to-run
/// spread does not depend on where the scheduler happened to put them.
void pin_this_thread(int first, int count = 1);

/// repserved as a child process: started, waited on until it prints its
/// "listening on HOST:PORT" line, stopped with SIGTERM and reaped.
class Repserved {
 public:
  Repserved() = default;
  ~Repserved() { stop(); }
  Repserved(const Repserved&) = delete;
  Repserved& operator=(const Repserved&) = delete;

  /// Starts `path` restricted to CPUs [first_cpu, first_cpu + ncpus).
  /// Returns false (with a reason) when the binary cannot start or is not
  /// ready within `timeout_s`.
  bool start(const std::string& path, const std::vector<std::string>& args,
             int first_cpu, int ncpus, double timeout_s, std::string* error);

  std::uint16_t port() const { return port_; }
  /// Fork to ready line, seconds.
  double ready_seconds() const { return ready_s_; }
  /// VmHWM of the live child, MiB (0 when unavailable).
  double peak_rss_mb() const;
  /// SIGTERM, then SIGKILL after 20 s; always reaps. Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double ready_s_ = 0.0;
};

/// Verdict on one answered key: (node id, epoch, score) -> acceptable.
using KeyCheck = std::function<bool(std::uint64_t, std::uint64_t, double)>;

/// Frame k of a lookup stream carries ids[(k * batch + j) % ids.size()],
/// j < batch; ids.size() must be a multiple of batch.
struct LookupStream {
  const std::vector<std::uint64_t>* ids = nullptr;
  std::size_t batch = 64;
  /// Score bits are compared on every `check_every`-th frame; every frame
  /// is checked for found keys and the reply count.
  std::size_t check_every = 1;
};

struct OpenLoopResult {
  std::vector<double> latency_us;  ///< per answered frame, from its due time
  Lateness lateness;               ///< generator lateness per sent frame
  std::uint64_t frames = 0;        ///< frames sent
  std::uint64_t answered = 0;      ///< well-formed replies received
  std::uint64_t keys = 0;          ///< keys answered
  std::uint64_t bad_keys = 0;      ///< keys failing the check
  std::uint64_t bad_frames = 0;    ///< replies with any failing key
  bool io_error = false;

  void append(const OpenLoopResult& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
    lateness.append(o.lateness);
    frames += o.frames;
    answered += o.answered;
    keys += o.keys;
    bad_keys += o.bad_keys;
    bad_frames += o.bad_frames;
    io_error = io_error || o.io_error;
  }
};

/// Sends round(rate * seconds) frames on a fixed schedule over `fd` and
/// collects every reply (waiting up to 2 s past the last due time).
OpenLoopResult run_open_loop(int fd, const LookupStream& stream, double rate,
                             double seconds, const KeyCheck& check);

struct ClosedLoopResult {
  std::uint64_t frames = 0;  ///< frames answered
  std::uint64_t keys = 0;
  std::uint64_t bad_keys = 0;
  std::uint64_t bad_frames = 0;
  double seconds = 0.0;      ///< first send to last reply
  std::vector<double> window_keys_per_s;  ///< per kCapacityWindowS window
  bool io_error = false;

  void append(const ClosedLoopResult& o) {
    frames += o.frames;
    keys += o.keys;
    bad_keys += o.bad_keys;
    bad_frames += o.bad_frames;
    seconds += o.seconds;
    window_keys_per_s.insert(window_keys_per_s.end(), o.window_keys_per_s.begin(),
                             o.window_keys_per_s.end());
    io_error = io_error || o.io_error;
  }
};

inline constexpr double kCapacityWindowS = 0.25;

/// Keeps `pipeline` frames in flight over `fd` for `seconds`.
ClosedLoopResult run_closed_loop(int fd, const LookupStream& stream,
                                 std::size_t pipeline, double seconds,
                                 const KeyCheck& check);

}  // namespace pb
