// In-memory span recorder for the traced pass.
//
// A span is (name, trace id, parent, start, end). Spans of one request —
// one frame, one fold, one push-sum run — share a trace id; a child names
// its parent span. Spans stay in memory while the workload runs and are
// written out once at the end, so recording costs two clock reads and a
// vector append. A disabled recorder does no clock reads at all: the
// untraced replay runs the same code, which is how the tracing overhead is
// measured.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace pb {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t trace_id;
    std::int64_t parent;  ///< index into spans(), -1 for a root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  /// Per-name aggregate: how many spans, their summed duration, and their
  /// summed self time (duration minus the part covered by child spans).
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index, or -1 when disabled.
  std::int64_t begin(const char* name, std::uint64_t trace_id,
                     std::int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, trace_id, parent, now_ns(), 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void end(std::int64_t idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  }

  /// Adds an already-timed span (for intervals measured elsewhere).
  std::int64_t add(const char* name, std::uint64_t trace_id, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return -1;
    spans_.push_back({name, trace_id, parent, start_ns, end_ns});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, Totals> totals() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent >= 0)
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      Totals& t = out[s.name];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - covered_ns(s, children[i]);
    }
    return out;
  }

  /// Writes one line per span: index parent trace_id name start_ns end_ns.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# index parent trace_id name start_ns end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu %lld %llu %s %lld %lld\n", i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.trace_id), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  /// Length of the union of the children's intervals, clipped to `s`.
  double covered_ns(const Span& s, const std::vector<std::size_t>& kids) const {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    iv.reserve(kids.size());
    for (const std::size_t k : kids) {
      const std::int64_t a = std::max(spans_[k].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans_[k].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    std::int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += static_cast<double>(cur_b - cur_a);
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += static_cast<double>(cur_b - cur_a);
    return covered;
  }

  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t trace_id,
        std::int64_t parent = -1)
      : t_(t), idx_(t.begin(name, trace_id, parent)) {}
  ~Scope() { t_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return idx_; }

 private:
  Tracer& t_;
  std::int64_t idx_;
};

}  // namespace pb
