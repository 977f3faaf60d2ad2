// Measurement helpers shared by every perfbench workload: the clock,
// order statistics, the open-loop send schedule with its lateness account,
// the HEALTH folded-through matcher and fold rate, and the result report.
// Header-only and free of repository dependencies so tests/helpers_test.cpp
// can pin each piece on synthetic inputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- order statistics --------------------------------------------------------

/// Nearest-rank percentile (pct in (0, 100]) of `v`; sorts `v` in place.
/// The value returned is always one of the samples. NaN when empty.
inline double percentile(std::vector<double>& v, double pct) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(v, 50.0); }

/// Robust tail of a long open-loop run: cut each stream into consecutive
/// windows of `per_window` samples (sample i falls in window i / per_window;
/// window w pools that slice of every stream), take `pct` within each full
/// window, and return the median over windows. A stall that spoils one
/// window moves the result by at most one rank. NaN when no window is full.
inline double windowed_percentile(const std::vector<std::vector<double>>& streams,
                                  std::size_t per_window, double pct) {
  std::size_t windows = SIZE_MAX;
  for (const auto& s : streams) windows = std::min(windows, s.size() / per_window);
  if (streams.empty() || windows == 0 || windows == SIZE_MAX) return std::nan("");
  std::vector<double> per, pooled;
  for (std::size_t w = 0; w < windows; ++w) {
    pooled.clear();
    for (const auto& s : streams)
      pooled.insert(pooled.end(), s.begin() + static_cast<std::ptrdiff_t>(w * per_window),
                    s.begin() + static_cast<std::ptrdiff_t>((w + 1) * per_window));
    per.push_back(percentile(pooled, pct));
  }
  return median(per);
}

struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};

/// Quartiles with the interpolation of Python's
/// statistics.quantiles(data, n=4) (method 'exclusive'), so a spread the
/// benchmark reports matches one recomputed from its samples in Python.
/// A single sample yields that sample three times; empty yields NaN.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {std::nan(""), std::nan(""), std::nan("")};
  std::sort(v.begin(), v.end());
  const long long ld = static_cast<long long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const long long n = 4, m = ld + 1;
  double out[3];
  for (long long i = 1; i < n; ++i) {
    long long j = i * m / n;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * n;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {out[0], out[1], out[2]};
}

// --- open-loop schedule -------------------------------------------------------

/// Fixed-rate send schedule: request k is due at start + k / rate. Due
/// times are computed from k, never accumulated, so a long run does not
/// drift, and a request is timed from its due time — a stall that delays
/// later sends is charged to them.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), interval_ns_(1e9 / rate_per_s) {}

  std::int64_t due_ns(std::uint64_t k) const {
    return start_ns_ + std::llround(static_cast<double>(k) * interval_ns_);
  }

  /// Latency, us, of request k's reply received at t_ns: charged from the
  /// due time, so a late send counts against the request it delayed.
  double latency_us(std::uint64_t k, std::int64_t t_ns) const {
    return static_cast<double>(t_ns - due_ns(k)) * 1e-3;
  }

 private:
  std::int64_t start_ns_;
  double interval_ns_;
};

/// How late the generator ran: per send, max(0, sent - due).
class Lateness {
 public:
  void record(std::int64_t due_ns, std::int64_t sent_ns) {
    const double late_us =
        sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) * 1e-3 : 0.0;
    late_us_.push_back(late_us);
  }
  void append(const Lateness& o) {
    late_us_.insert(late_us_.end(), o.late_us_.begin(), o.late_us_.end());
  }
  std::size_t count() const { return late_us_.size(); }
  double p99_us() const {
    std::vector<double> v = late_us_;
    return v.empty() ? 0.0 : percentile(v, 99.0);
  }
  double max_us() const {
    return late_us_.empty() ? 0.0
                            : *std::max_element(late_us_.begin(), late_us_.end());
  }

 private:
  std::vector<double> late_us_;
};

// --- HEALTH folded-through matcher -------------------------------------------

/// Tracks INGESTs awaiting visibility. Each INGEST reply carries the
/// server's running accepted count, which is that frame's 1-based position
/// in the ingest order. A HEALTH reply covers every position up to
///   folded_through = ingest_enqueued - staleness_frames,
/// so the matcher releases, oldest first, every pending INGEST at or below
/// it. A reply claiming more staleness than ingests covers nothing.
class FreshnessMatcher {
 public:
  struct Pending {
    std::uint64_t position = 0;  ///< INGEST_R total_ingested
    std::uint64_t ratee = 0;
    std::int64_t due_ns = 0;
  };

  void add(const Pending& p) { pending_.push_back(p); }

  static std::uint64_t folded_through(std::uint64_t ingest_enqueued,
                                      std::uint64_t staleness_frames) {
    return staleness_frames > ingest_enqueued ? 0
                                              : ingest_enqueued - staleness_frames;
  }

  /// Moves every pending INGEST covered by the HEALTH reply into `out`
  /// (appended, oldest first); returns how many were released.
  std::size_t match(std::uint64_t ingest_enqueued,
                    std::uint64_t staleness_frames, std::vector<Pending>& out) {
    const std::uint64_t ft = folded_through(ingest_enqueued, staleness_frames);
    std::size_t released = 0;
    while (!pending_.empty() && pending_.front().position <= ft) {
      out.push_back(pending_.front());
      pending_.pop_front();
      ++released;
    }
    return released;
  }

  std::size_t pending() const { return pending_.size(); }

 private:
  std::deque<Pending> pending_;  // ascending position: one ordered stream
};

/// One refold of the live daemon, as HEALTH reported it.
struct LiveFold {
  std::uint64_t refold = 0;          ///< HEALTH refolds count after it
  std::uint64_t folded_through = 0;  ///< INGESTs its scores cover
  double seconds = 0.0;              ///< normalized_matrix() through publish()
  bool operator==(const LiveFold&) const = default;
};

/// INGESTs folded per second of fold time: the frames each refold took in
/// (its folded-through count less the previous refold's) over the refolds'
/// HEALTH wall time, counting refolds seen one after another. The highest
/// INGEST rate the fold loop could keep up with if it never sat idle.
inline double fold_ingests_per_s(const std::vector<LiveFold>& folds) {
  LiveFold prev{1, 0, 0.0};  // the startup publish: refold 1, covers nothing
  double frames = 0.0, seconds = 0.0;
  for (const LiveFold& f : folds) {
    if (f.refold == prev.refold + 1) {
      frames += static_cast<double>(f.folded_through - prev.folded_through);
      seconds += f.seconds;
    }
    prev = f;
  }
  return seconds > 0.0 ? frames / seconds : 0.0;
}

// --- result report ------------------------------------------------------------

/// Collects metrics and named correctness checks, then prints the single
/// JSON result line {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      check(false, "metric_finite", name + " is not a finite number");
      value = 0.0;
    }
    metrics_.push_back({name, {value, unit}});
  }

  /// Records a named check; a failure is printed to stderr at once.
  bool check(bool ok, const std::string& name, const std::string& detail) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "perfbench: CHECK FAILED [%s]: %s\n", name.c_str(),
                   detail.c_str());
    }
    return ok;
  }

  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double fail_frac() const {
    return attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                      : 0.0;
  }

  std::string json() const {
    std::string s = "{\"correct\": ";
    s += correct_ ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", metrics_[i].second.first);
      if (i) s += ", ";
      s += "\"" + metrics_[i].first + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    s += "}}";
    return s;
  }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

}  // namespace pb
