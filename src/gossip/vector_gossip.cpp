#include "gossip/vector_gossip.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "telemetry/scoped_timer.hpp"

namespace gt::gossip {
namespace {

// Steps a block may run past the frontier in one round: the length of the
// schedule's sliding window. A cycle at n = 512 takes ~35 steps, so one
// round usually covers it.
constexpr std::size_t kWindow = 64;

// Row chunks of the consensus_means read-out: a fixed grid, so its merge
// order depends on (n, kReduceChunks) only.
constexpr std::size_t kReduceChunks = 32;

// A node's route on one step.
constexpr std::uint8_t kIdle = 0;       // no push: keeps everything
constexpr std::uint8_t kDelivered = 1;  // pushed half, delivered
constexpr std::uint8_t kLost = 2;       // pushed half, lost on the wire

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

// The drawn routes of the steps past the frontier, slot t % kWindow for
// step t, plus what the blocks report about each step until it is
// committed.
struct VectorGossip::Schedule {
  Schedule(std::size_t n, std::size_t nblocks)
      : code(kWindow * n),
        in_off(kWindow * (n + 1)),
        in_senders(kWindow * n),
        order(kWindow * n),
        detached(kWindow),
        sent(kWindow),
        lost(kWindow),
        draw_seconds(kWindow),
        unstable(std::make_unique<std::atomic<std::uint8_t>[]>(kWindow)),
        triplets(kWindow * nblocks),
        block_seconds(kWindow * nblocks),
        target(n),
        order_scratch(n),
        changed(n),
        reached(nblocks) {}

  std::vector<std::uint8_t> code;         // per node: kIdle/kDelivered/kLost
  std::vector<std::uint32_t> in_off;      // n + 1 offsets into in_senders
  std::vector<std::uint32_t> in_senders;  // delivered senders, ascending per receiver
  std::vector<std::uint32_t> order;       // in-place write order (inplace_order)
  std::vector<std::uint32_t> detached;    // how many detached nodes lead `order`
  std::vector<std::uint64_t> sent, lost;
  std::vector<double> draw_seconds;
  // Set by the first block that finds the step unstable (or at draw, for
  // the first step after initialize); later blocks skip their check.
  std::unique_ptr<std::atomic<std::uint8_t>[]> unstable;
  std::vector<std::uint64_t> triplets;    // per block
  std::vector<double> block_seconds;      // per block

  std::vector<std::uint32_t> target;  // draw scratch: delivered target or kNoTarget
  std::vector<std::uint32_t> order_scratch;  // draw scratch for inplace_order
  std::vector<NodeId> changed;  // commit scratch: rows whose support grew
  std::vector<std::size_t> reached;  // per block, this round
  // Held by the lane that draws: node_rng_, the draw scratch and the slots
  // past `drawn`. Lanes only try it, and spin on `drawn` while it is taken.
  std::mutex mu;
  std::atomic<std::size_t> drawn{0};  // steps drawn since initialize
};

std::size_t inplace_order(std::span<const std::uint32_t> target,
                          std::span<const std::uint32_t> in_off,
                          std::span<std::uint32_t> order,
                          std::span<std::uint32_t> scratch) {
  const std::size_t n = target.size();
  std::uint32_t* indeg = scratch.data();
  // Peel the nodes nobody pushed to, then the nodes whose pushers are all
  // peeled: each is written after its target, so the peel sequence,
  // reversed, fills the tail. order[tail, n) doubles as the peel queue.
  std::size_t tail = n;
  for (std::size_t v = 0; v < n; ++v) {
    indeg[v] = in_off[v + 1] - in_off[v];
    if (indeg[v] == 0) order[--tail] = static_cast<std::uint32_t>(v);
  }
  for (std::size_t q = n; q > tail;) {
    const std::uint32_t t = target[order[--q]];
    if (t != kNoTarget && --indeg[t] == 0) order[--tail] = t;
  }
  // What is left is the target map's cycles, each node pushed to by its
  // cycle predecessor only. The first node met on a cycle is detached and
  // goes to the front; the others, walked from it, fill [m, tail) from
  // the top down, so each comes after its target (the last one's target
  // is the detached node).
  std::size_t m = 0, top = tail;
  for (std::size_t u = 0; u < n; ++u) {
    if (indeg[u] == 0) continue;
    order[m++] = static_cast<std::uint32_t>(u);
    indeg[u] = 0;
    for (std::uint32_t v = target[u]; v != u; v = target[v]) {
      order[--top] = v;
      indeg[v] = 0;
    }
  }
  return m;
}

std::size_t VectorGossip::derived_block_width(std::size_t n) {
  static const std::size_t l2 = [] {
    long bytes = 0;
#ifdef _SC_LEVEL2_CACHE_SIZE
    bytes = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
    // Unreported: assume a 1 MiB L2.
    return bytes > 0 ? static_cast<std::size_t>(bytes) : std::size_t{1} << 20;
  }();
  // Two n x B arrays of doubles (X and W, updated in place) in half of L2,
  // but rows of at least 48 columns: narrower rows spend more on per-row
  // work than L2 saves (at n = 2048 on a 2 MiB L2, B = 48 ran a cycle
  // ~15% faster than B = 32).
  std::size_t b = (l2 / 2) / (2 * sizeof(double) * n);
  b -= b % 8;
  return std::min(std::max<std::size_t>(b, 48), n);
}

VectorGossip::VectorGossip(std::size_t n, PushSumConfig config,
                           std::size_t block_width)
    : n_(n), config_(config) {
  if (n == 0) throw std::invalid_argument("VectorGossip: n must be positive");
  bw_ = block_width != 0 ? std::min(block_width, n) : derived_block_width(n);
  nblocks_ = (n + bw_ - 1) / bw_;
  x_.assign(n * n, 0.0);
  w_.assign(n * n, 0.0);
  simd_level_ = simd::resolve_level(config_.simd_level);
  kn_ = &simd::kernels(simd_level_);
  simd::assert_aligned(x_.data(), simd::kAlignment, "VectorGossip::x_");
  simd::assert_aligned(w_.data(), simd::kAlignment, "VectorGossip::w_");
  // Lanes own whole blocks, so a lane past the block count would only idle.
  const std::size_t lanes = std::min(
      config_.num_threads != 0 ? config_.num_threads : available_cpus(), nblocks_);
  if (lanes > 1) pool_ = std::make_unique<ThreadPool>(lanes);
  lanes_.resize(lanes);
  for (Lane& lane : lanes_) {
    lane.senders.assign(2 * n, nullptr);
    lane.old_row.assign(2 * bw_, 0.0);
    // Every node in a 2-cycle detaches n / 2 rows; a step touches only the
    // rows it parks, so the reservation stays mostly non-resident.
    lane.parked = std::make_unique_for_overwrite<double[]>(n / 2 * 2 * bw_);
  }
  words_ = (n + 63) / 64;
  support_.assign(n * words_, 0);
  next_support_.assign(n * words_, 0);
  support_size_.assign(n, 0);
  sched_ = std::make_unique<Schedule>(n, nblocks_);
  set_participants({});

  // Phase timings land in log-bucket histograms spanning ~30ns .. ~30s.
  metrics_ = std::make_unique<telemetry::MetricsRegistry>(1);
  c_sent_ = metrics_->counter("gossip.messages_sent");
  c_lost_ = metrics_->counter("gossip.messages_lost");
  c_triplets_ = metrics_->counter("gossip.triplets_sent");
  c_skipped_ = metrics_->counter("gossip.zero_components_skipped");
  g_active_ = metrics_->gauge("gossip.active_triplets");
  telemetry::HistogramOptions phase_buckets{3e-8, 2.0, 30};
  h_send_ = metrics_->histogram("gossip.send_phase_seconds", phase_buckets);
  h_book_ = metrics_->histogram("gossip.bookkeeping_phase_seconds", phase_buckets);
}

VectorGossip::~VectorGossip() = default;

void VectorGossip::set_event_log(telemetry::EventLog* events,
                                 std::size_t sample_every) {
  events_ = events;
  step_sample_every_ = sample_every;
}

void VectorGossip::set_trace(trace::TraceSink* sink, double base_time,
                             std::uint64_t trace_id,
                             std::uint64_t parent_span) {
  trace_ = sink;
  trace_base_time_ = base_time;
  trace_trace_id_ = trace_id;
  trace_parent_span_ = parent_span;
}

template <class Fn>
void VectorGossip::for_chunks(std::size_t count, std::size_t num_chunks,
                              Fn&& fn) const {
  if (count == 0 || num_chunks == 0) return;
  if (num_chunks > count) num_chunks = count;
  // A reference fits std::function's inline buffer: no allocation per call.
  const ThreadPool::ChunkFn chunk_fn = std::ref(fn);
  if (pool_ != nullptr && num_chunks > 1) {
    pool_->parallel_for(0, count, num_chunks, chunk_fn);
  } else {
    ThreadPool::run_serial(0, count, num_chunks, chunk_fn);
  }
}

void VectorGossip::set_participants(std::vector<std::uint8_t> alive) {
  if (!alive.empty() && alive.size() != n_)
    throw std::invalid_argument("VectorGossip::set_participants: size mismatch");
  alive_ = std::move(alive);
  alive_list_.clear();
  if (!alive_.empty()) {
    for (NodeId v = 0; v < n_; ++v)
      if (alive_[v]) alive_list_.push_back(v);
    if (alive_list_.empty())
      throw std::invalid_argument("VectorGossip::set_participants: nobody alive");
  }
  block_live_cols_.assign(nblocks_, {});
  if (alive_.empty()) return;
  for (std::size_t b = 0; b < nblocks_; ++b)
    for (std::size_t jj = 0; jj < block_cols(b); ++jj)
      if (alive_[block_begin(b) + jj])
        block_live_cols_[b].push_back(static_cast<std::uint32_t>(jj));
}

void VectorGossip::set_adversary(std::span<const double> x_scale,
                                 std::span<const std::uint8_t> withhold) {
  if (!x_scale.empty() && x_scale.size() != n_)
    throw std::invalid_argument("VectorGossip::set_adversary: x_scale size");
  if (!withhold.empty() && withhold.size() != n_)
    throw std::invalid_argument("VectorGossip::set_adversary: withhold size");
  for (const double c : x_scale)
    if (!(std::isfinite(c) && c > 0.0))
      throw std::invalid_argument(
          "VectorGossip::set_adversary: x_scale values must be finite and > 0");
  adv_scale_.assign(x_scale.begin(), x_scale.end());
  adv_withhold_.assign(withhold.begin(), withhold.end());
}

void VectorGossip::initialize(const trust::SparseMatrix& s, std::span<const double> v) {
  if (s.size() != n_ || v.size() != n_)
    throw std::invalid_argument("VectorGossip::initialize: size mismatch");
  std::fill(support_.begin(), support_.end(), 0);
  std::fill(support_size_.begin(), support_size_.end(), 0);
  full_rows_ = 0;
  frontier_ = 0;  // the next step derives fresh per-node streams
  stable_steps_ = 0;
  sched_->drawn.store(0);

  for (NodeId i = 0; i < n_; ++i) {
    if (!is_alive(i)) continue;  // departed peers inject no reports
    std::uint64_t* bits = support_.data() + i * words_;
    const auto set_bit = [bits](NodeId j) { bits[j / 64] |= 1ULL << (j % 64); };
    const auto entries = s.row(i);
    if (entries.empty()) {
      // Dangling rater: its reputation mass spreads uniformly (below), so
      // the row starts (and stays) structurally dense.
      for (NodeId j = 0; j < n_; ++j) set_bit(j);
    } else {
      for (const auto& e : entries) set_bit(e.col);
      set_bit(i);
    }
    std::size_t size = 0;
    for (std::size_t k = 0; k < words_; ++k) size += std::popcount(bits[k]);
    support_size_[i] = static_cast<std::uint32_t>(size);
    if (size == n_) ++full_rows_;
  }

  // The lanes zero and seed the blocks on advance()'s chunk grid. The
  // caller, already running, usually claims the first chunk of both and a
  // woken worker the next, so with pinned lanes a block mostly starts its
  // first step in the cache of the lane that steps it.
  const double uniform = 1.0 / static_cast<double>(n_);
  for_chunks(nblocks_, lanes(), [&](std::size_t b0, std::size_t b1, std::size_t) {
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t c0 = block_begin(b);
      const std::size_t cols = block_cols(b);
      double* bx = x_.data() + c0 * n_;
      double* bw = w_.data() + c0 * n_;
      std::fill_n(bx, n_ * cols, 0.0);
      std::fill_n(bw, n_ * cols, 0.0);
      for (NodeId i = 0; i < n_; ++i) {
        if (!is_alive(i)) continue;
        const auto entries = s.row(i);
        if (entries.empty()) {
          // The rule SparseMatrix::transpose_multiply applies to a
          // dangling rater.
          std::fill_n(bx + i * cols, cols, v[i] * uniform);
        } else {
          for (const auto& e : entries)
            if (e.col - c0 < cols) bx[i * cols + (e.col - c0)] = e.value * v[i];
        }
        // Only node j holds the consensus factor for j.
        if (i - c0 < cols) bw[i * cols + (i - c0)] = 1.0;
      }
    }
  });
}

void VectorGossip::seed_streams(std::uint64_t base) {
  if (node_rng_.size() != n_) node_rng_.resize(n_);
  for (NodeId i = 0; i < n_; ++i) node_rng_[i].reseed(mix64(base, i));
}

void VectorGossip::ensure_drawn(std::size_t t, const graph::Graph* overlay) {
  Schedule& sc = *sched_;
  // A draw takes a few microseconds, less than a sleep and a wake-up, so
  // a lane that finds another one drawing spins (yielding, in case the
  // drawer shares its CPU) until the step it needs is out.
  while (sc.drawn.load() < t) {
    if (!sc.mu.try_lock()) {
      ::sched_yield();
      continue;
    }
    for (std::size_t d = sc.drawn.load(); d < t; ++d) {
      draw_step(d + 1, overlay);
      sc.drawn.store(d + 1);
    }
    sc.mu.unlock();
  }
}

void VectorGossip::draw_step(std::size_t t, const graph::Graph* overlay) {
  const auto t0 = Clock::now();
  Schedule& sc = *sched_;
  const std::size_t slot = t % kWindow;
  std::uint8_t* code = sc.code.data() + slot * n_;
  std::uint32_t* in_off = sc.in_off.data() + slot * (n_ + 1);
  std::uint32_t* in_senders = sc.in_senders.data() + slot * n_;
  const bool masked = !alive_.empty();
  std::uint64_t sent = 0, lost = 0;
  for (NodeId i = 0; i < n_; ++i) {
    code[i] = kIdle;
    sc.target[i] = kNoTarget;
    if (masked && !alive_[i]) continue;
    Rng& nr = node_rng_[i];

    NodeId target = i;
    bool have_target = true;
    if (config_.neighbors_only && overlay != nullptr) {
      const auto nbrs = overlay->neighbors(i);
      if (masked) {
        // Defensive: only push to live neighbors.
        NodeId pick = i;
        std::size_t seen = 0;
        for (const NodeId u : nbrs) {
          if (!alive_[u]) continue;
          ++seen;
          if (nr.next_below(seen) == 0) pick = u;  // reservoir-sample one
        }
        if (seen == 0) {
          have_target = false;
        } else {
          target = pick;
        }
      } else if (nbrs.empty()) {
        have_target = false;
      } else {
        target = nbrs[nr.next_below(nbrs.size())];
      }
    } else if (masked) {
      if (alive_list_.size() <= 1) {
        have_target = false;
      } else {
        do {
          target = alive_list_[nr.next_below(alive_list_.size())];
        } while (target == i);
      }
    } else if (n_ == 1) {
      // Single node: no other peer exists, keep both halves local (the
      // unguarded path would call next_below(0) and shift one past n).
      have_target = false;
    } else {
      target = nr.next_below(n_ - 1);
      if (target >= i) ++target;  // uniform over others
    }
    if (!have_target) continue;

    ++sent;
    if (config_.loss_probability > 0.0 &&
        nr.next_bool(config_.loss_probability)) {
      ++lost;
      code[i] = kLost;
    } else {
      code[i] = kDelivered;
      sc.target[i] = static_cast<std::uint32_t>(target);
    }
  }

  // Counting sort of delivered senders by target; iterating senders in
  // ascending order makes each receiver's bucket ascending too, which is
  // what pins the floating-point fold order in the gather.
  std::fill(in_off, in_off + n_ + 1, 0);
  for (NodeId i = 0; i < n_; ++i)
    if (code[i] == kDelivered) ++in_off[sc.target[i] + 1];
  for (std::size_t k = 1; k <= n_; ++k) in_off[k] += in_off[k - 1];
  for (NodeId i = 0; i < n_; ++i)
    if (code[i] == kDelivered)
      in_senders[in_off[sc.target[i]]++] = static_cast<std::uint32_t>(i);
  // The insert pass advanced each start cursor to its end offset; shift
  // right to recover [start, end) ranges.
  for (std::size_t k = n_; k >= 1; --k) in_off[k] = in_off[k - 1];
  in_off[0] = 0;
  sc.detached[slot] = static_cast<std::uint32_t>(
      inplace_order(sc.target, {in_off, n_ + 1},
                    {sc.order.data() + slot * n_, n_}, sc.order_scratch));

  sc.sent[slot] = sent;
  sc.lost[slot] = lost;
  // The first step after initialize() has no earlier step to be stable
  // against (its old rows are the seeded state, not a gossip result).
  sc.unstable[slot].store(t == 1 ? 1 : 0);
  std::fill_n(sc.triplets.begin() + slot * nblocks_, nblocks_, 0);
  std::fill_n(sc.block_seconds.begin() + slot * nblocks_, nblocks_, 0.0);
  sc.draw_seconds[slot] = seconds_since(t0);
}

bool VectorGossip::block_step(std::size_t b, std::size_t t, Lane& lane) {
  Schedule& sc = *sched_;
  const std::size_t slot = t % kWindow;
  const std::uint8_t* code = sc.code.data() + slot * n_;
  const std::uint32_t* in_off = sc.in_off.data() + slot * (n_ + 1);
  const std::uint32_t* in_senders = sc.in_senders.data() + slot * n_;
  const std::uint32_t* order = sc.order.data() + slot * n_;
  const std::size_t detached = sc.detached[slot];
  const std::size_t c0 = block_begin(b);
  const std::size_t cols = block_cols(b);
  const auto in_block = [c0, cols](NodeId j) { return j - c0 < cols; };
  double* bx = x_.data() + c0 * n_;
  double* bw = w_.data() + c0 * n_;
  const bool masked = !alive_.empty();
  const double floor = kWeightFloor;
  const double eps = config_.epsilon;
  const double** px = lane.senders.data();
  const double** pw = px + n_;
  double* old_x = lane.old_row.data();
  double* old_w = old_x + cols;

  // Another block may already have found this step unstable; then the
  // verdict is settled and this block skips its check.
  bool stable = sc.unstable[slot].load() == 0;
  // Where the kernel set has it, a row without fix-ups gets its verdict
  // from the gather itself (gather_row_stable), old row unread and uncopied.
  const bool fusable = kn_->gather_row_stable != nullptr && adv_scale_.empty() &&
                       (!masked || block_live_cols_[b].size() == cols);
  std::uint64_t triplets = 0;
  // Rows are written in the step's in-place order, so every row a gather
  // reads still holds its old value: a sender's row is overwritten only
  // after its receiver's. A detached row's new value waits in the lane's
  // parked rows until the step's other rows are written.
  for (std::size_t pos = 0; pos < n_; ++pos) {
    const NodeId r = order[pos];
    if (masked && !alive_[r]) continue;  // dead rows stay identically zero
    double* rx = bx + r * cols;
    double* rw = bw + r * cols;
    const double* xr = rx;  // the old row, read before it is overwritten
    const double* wr = rw;
    const std::uint8_t route = code[r];
    const double keep = route == kIdle ? 1.0 : 0.5;
    // A lost push still carried its un-halved payload onto the wire.
    const double h = route == kIdle ? 0.0 : (route == kLost ? 1.0 : 0.5);
    const std::size_t sb = in_off[r];
    const std::size_t se = in_off[r + 1];

    // A withholding receiver that pushed this step only parted with its
    // own component (the withheld halves stay whole), and a withholding
    // sender ships its own component only: the sweep treats the first as
    // keeping everything and skips the second, and those own columns are
    // folded again below, in sender order.
    const bool withholder = adv_withholds(r);
    const bool self_wh = withholder && route != kIdle;
    bool refold = self_wh;  // a fix-up below reads the old row
    std::size_t k = 0;
    for (std::size_t q = sb; q < se; ++q) {
      const NodeId s = in_senders[q];
      if (adv_withholds(s)) {
        refold = true;
        continue;
      }
      px[k] = bx + s * cols;
      pw[k] = bw + s * cols;
      ++k;
    }
    const bool fused = stable && fusable && !refold;
    if (pos < detached) {
      rx = lane.parked.get() + pos * 2 * cols;
      rw = rx + cols;
    } else if ((stable && !fused) || refold) {
      std::copy_n(xr, cols, old_x);
      std::copy_n(wr, cols, old_w);
      xr = old_x;
      wr = old_w;
    }
    // The payload count reads the old row: what this node pushes now.
    if (fused) {
      const simd::GatherVerdict g = kn_->gather_row_stable(
          rx, rw, xr, wr, keep, px, pw, k, withholder ? 0.0 : h, floor, eps, cols);
      triplets += g.payload;
      stable = g.stable;
      continue;
    }
    triplets += kn_->gather_row(rx, rw, xr, wr, self_wh ? 1.0 : keep, px, pw,
                                k, withholder ? 0.0 : h, cols);

    if (refold || !adv_scale_.empty()) {
      const auto fold_column = [&](NodeId j) {
        const std::size_t jj = j - c0;
        const double kj = self_wh && j != r ? 1.0 : keep;
        double vx = kj * xr[jj];
        double vw = kj * wr[jj];
        for (std::size_t q = sb; q < se; ++q) {
          const NodeId s = in_senders[q];
          if (adv_withholds(s) && s != j) continue;
          vx += 0.5 * bx[s * cols + jj];
          vw += 0.5 * bw[s * cols + jj];
        }
        rx[jj] = vx;
        rw[jj] = vw;
      };
      if (self_wh && in_block(r)) {
        const std::size_t jr = r - c0;
        triplets += (h * xr[jr] != 0.0 || h * wr[jr] != 0.0) ? 1 : 0;
        fold_column(r);
      }
      for (std::size_t q = sb; q < se; ++q) {
        const NodeId s = in_senders[q];
        if (adv_withholds(s) && in_block(s)) fold_column(s);
      }
      // Gossip-layer liars: scale the *received* own-component x share,
      // after the fold — it mints (c-1) * half-share of counterfeit x mass
      // per delivery.
      if (!adv_scale_.empty()) {
        for (std::size_t q = sb; q < se; ++q) {
          const NodeId s = in_senders[q];
          const double c = adv_scale_[s];
          if (c != 1.0 && in_block(s))
            rx[s - c0] += (c - 1.0) * 0.5 * bx[s * cols + (s - c0)];
        }
      }
    }

    // Algorithm 1 line 14 on this block's columns: every component owned
    // by a live peer is defined and moved by at most epsilon since the
    // last step (the old row holds exactly the ratios the last step left).
    // A component outside the support has w == 0 and fails the check.
    if (stable) {
      if (!masked || block_live_cols_[b].size() == cols) {
        stable = kn_->row_stable(rx, rw, xr, wr, floor, eps, cols);
      } else {
        for (const std::uint32_t jj : block_live_cols_[b]) {
          if (!simd::element_stable(rx[jj], rw[jj], xr[jj], wr[jj], floor, eps)) {
            stable = false;
            break;
          }
        }
      }
    }
  }
  for (std::size_t pos = 0; pos < detached; ++pos) {
    const double* parked = lane.parked.get() + pos * 2 * cols;
    std::copy_n(parked, cols, bx + order[pos] * cols);
    std::copy_n(parked + cols, cols, bw + order[pos] * cols);
  }
  sc.triplets[slot * nblocks_ + b] = triplets;
  if (!stable) sc.unstable[slot].store(1);
  return stable && sc.unstable[slot].load() == 0;
}

std::size_t VectorGossip::run_block(std::size_t b, std::size_t lane,
                                    std::size_t from, std::size_t to,
                                    bool until_stable,
                                    const graph::Graph* overlay) {
  Schedule& sc = *sched_;
  // Consecutive steps on which this block, and every block that ran the
  // step before it, was stable: never below the global count, so the
  // block's local stop never comes after the global stop.
  std::size_t local = stable_steps_;
  std::size_t t = from;
  while (t < to && (!until_stable || t == from || local < config_.stable_rounds)) {
    ensure_drawn(t + 1, overlay);
    const auto t0 = Clock::now();
    const bool stable = block_step(b, t + 1, lanes_[lane]);
    ++t;
    local = stable ? local + 1 : 0;
    sc.block_seconds[(t % kWindow) * nblocks_ + b] += seconds_since(t0);
    // A thread sharing this lane's CPU runs now, not after the slice.
    if (pool_ != nullptr) ::sched_yield();
  }
  return t;
}

std::size_t VectorGossip::advance(const graph::Graph* overlay,
                                  std::size_t horizon, bool until_stable) {
  Schedule& sc = *sched_;
  const std::size_t from = frontier_;
  const std::size_t to = from + std::min(horizon, kWindow);
  const std::size_t chunks = lanes();
  for_chunks(nblocks_, chunks, [&](std::size_t b0, std::size_t b1, std::size_t lane) {
    for (std::size_t b = b0; b < b1; ++b)
      sc.reached[b] = run_block(b, lane, from, to, until_stable, overlay);
  });
  // Every step a block ran comes at or before the global stop, so the
  // blocks that stopped early catch up to the latest one.
  const std::size_t reached = *std::max_element(sc.reached.begin(), sc.reached.end());
  if (std::any_of(sc.reached.begin(), sc.reached.end(),
                  [reached](std::size_t r) { return r < reached; })) {
    for_chunks(nblocks_, chunks, [&](std::size_t b0, std::size_t b1, std::size_t lane) {
      for (std::size_t b = b0; b < b1; ++b)
        if (sc.reached[b] < reached)
          run_block(b, lane, sc.reached[b], reached, false, overlay);
    });
  }
  frontier_ = reached;
  return reached;
}

void VectorGossip::commit_step(std::size_t t, VectorGossipResult& result) {
  Schedule& sc = *sched_;
  const std::size_t slot = t % kWindow;
  const std::uint8_t* code = sc.code.data() + slot * n_;
  std::uint64_t triplets = 0;
  double seconds = sc.draw_seconds[slot];
  for (std::size_t b = 0; b < nblocks_; ++b) {
    triplets += sc.triplets[slot * nblocks_ + b];
    seconds += sc.block_seconds[slot * nblocks_ + b];
  }
  // A pushing node leaves the components outside its support off the
  // wire; once every live row is full, none is left off.
  const std::size_t live = alive_.empty() ? n_ : alive_list_.size();
  std::uint64_t skipped = 0;
  if (full_rows_ < live)
    for (NodeId i = 0; i < n_; ++i)
      if (code[i] != kIdle) skipped += n_ - support_size_[i];
  metrics_->add(c_sent_, sc.sent[slot], 0);
  metrics_->add(c_lost_, sc.lost[slot], 0);
  metrics_->add(c_triplets_, triplets, 0);
  metrics_->add(c_skipped_, skipped, 0);
  metrics_->observe(h_send_, seconds, 0);
  result.send_phase_seconds += seconds;
  result.messages_sent += sc.sent[slot];
  result.messages_lost += sc.lost[slot];
  result.triplets_sent += triplets;
  result.zero_components_skipped += skipped;

  {
    telemetry::ScopedTimer timer(*metrics_, h_book_, 0,
                                 &result.bookkeeping_phase_seconds);
    // Supports grow by set union on receive (a withholding sender adds
    // only its own component). New rows are built from the old ones first
    // and written back after, so every union reads last step's supports.
    if (full_rows_ < live) {
      const std::uint32_t* in_off = sc.in_off.data() + slot * (n_ + 1);
      const std::uint32_t* in_senders = sc.in_senders.data() + slot * n_;
      std::size_t num_changed = 0;
      for (NodeId r = 0; r < n_; ++r) {
        if (in_off[r] == in_off[r + 1] || support_size_[r] == n_) continue;
        const std::uint64_t* old = support_.data() + r * words_;
        std::uint64_t* next = next_support_.data() + r * words_;
        std::copy_n(old, words_, next);
        for (std::size_t q = in_off[r]; q < in_off[r + 1]; ++q) {
          const NodeId s = in_senders[q];
          if (adv_withholds(s)) {
            next[s / 64] |= 1ULL << (s % 64);
          } else {
            const std::uint64_t* from = support_.data() + s * words_;
            for (std::size_t k = 0; k < words_; ++k) next[k] |= from[k];
          }
        }
        sc.changed[num_changed++] = r;
      }
      for (std::size_t c = 0; c < num_changed; ++c) {
        const NodeId r = sc.changed[c];
        std::uint64_t* row = support_.data() + r * words_;
        std::copy_n(next_support_.data() + r * words_, words_, row);
        std::size_t size = 0;
        for (std::size_t k = 0; k < words_; ++k) size += std::popcount(row[k]);
        support_size_[r] = static_cast<std::uint32_t>(size);
        if (size == n_) ++full_rows_;
      }
    }
    std::uint64_t active = static_cast<std::uint64_t>(live) * n_;
    if (full_rows_ < live) {
      active = 0;
      for (NodeId i = 0; i < n_; ++i) active += support_size_[i];
    }
    result.active_triplets = active;
    metrics_->set(g_active_, static_cast<double>(active));
  }
  stable_steps_ = sc.unstable[slot].load() ? 0 : stable_steps_ + 1;
}

void VectorGossip::step(Rng& rng, const graph::Graph* overlay,
                        VectorGossipResult& result) {
  if (frontier_ == 0) seed_streams(rng.next_u64());
  commit_step(advance(overlay, 1, /*until_stable=*/false), result);
}

VectorGossipResult VectorGossip::run(Rng& rng, const graph::Graph* overlay) {
  VectorGossipResult result;
  // Synchronous trace axis: step k of this run covers [base + k, base + k + 1).
  const bool traced = trace_ != nullptr;
  double trace_base = 0.0;
  std::uint64_t run_trace = 0;
  std::uint64_t prev_sent = 0, prev_lost = 0, prev_triplets = 0;
  if (traced) {
    trace_base =
        trace_base_time_ >= 0.0 ? trace_base_time_ : trace_->time_cursor();
    run_trace =
        trace_trace_id_ != 0 ? trace_trace_id_ : trace_->alloc_trace();
  }
  while (result.steps < config_.max_steps && !result.converged) {
    if (frontier_ == 0) seed_streams(rng.next_u64());
    const std::size_t from = frontier_;
    const std::size_t to =
        advance(overlay, config_.max_steps - result.steps, /*until_stable=*/true);
    // The stop can only fall on the round's last step (see advance()).
    for (std::size_t t = from + 1; t <= to; ++t) {
      commit_step(t, result);
      ++result.steps;
      if (traced) {
        const double t0 = trace_base + static_cast<double>(result.steps - 1);
        const std::uint64_t step_span = trace_->alloc_span();
        // Phase sub-spans are synthetic equal quarters of the step interval
        // (wall timings would break byte-identical same-seed traces); their
        // values are this step's deterministic counter deltas. Emitted
        // before the step span so the mirrored JSONL sim_time stream stays
        // non-decreasing within the run's trace id.
        const double sent = static_cast<double>(result.messages_sent - prev_sent);
        const double lost = static_cast<double>(result.messages_lost - prev_lost);
        const double phase_value[4] = {
            sent, sent - lost,
            static_cast<double>(result.triplets_sent - prev_triplets),
            static_cast<double>(result.active_triplets)};
        prev_sent = result.messages_sent;
        prev_lost = result.messages_lost;
        prev_triplets = result.triplets_sent;
        for (std::uint32_t k = 0; k < 4; ++k) {
          trace::TraceRecord rec;
          rec.t_start = t0 + 0.25 * k;
          rec.t_end = t0 + 0.25 * (k + 1);
          rec.trace_id = run_trace;
          rec.span_id = trace_->alloc_span();
          rec.parent_id = step_span;
          rec.kind = static_cast<std::uint32_t>(trace::SpanKind::kPhase);
          rec.flags = k;
          rec.value = phase_value[k];
          trace_->emit(rec);
        }
        trace::TraceRecord rec;
        rec.t_start = t0;
        rec.t_end = t0 + 1.0;
        rec.trace_id = run_trace;
        rec.span_id = step_span;
        rec.parent_id = trace_parent_span_;
        rec.kind = static_cast<std::uint32_t>(trace::SpanKind::kGossipStep);
        rec.flags = static_cast<std::uint32_t>(result.steps - 1);
        rec.value = static_cast<double>(result.active_triplets);
        trace_->emit(rec);
      }
      if (events_ != nullptr && step_sample_every_ > 0 &&
          result.steps % step_sample_every_ == 0) {
        events_->record("gossip_step")
            .field("step", result.steps)
            .field("messages_sent", result.messages_sent)
            .field("messages_dropped", result.messages_lost)
            .field("triplets_sent", result.triplets_sent)
            .field("active_triplets", result.active_triplets);
      }
      if (stable_steps_ >= config_.stable_rounds) {
        result.converged = true;
        break;
      }
    }
  }
  if (traced)
    trace_->bump_time_cursor(trace_base + static_cast<double>(result.steps));
  if (events_ != nullptr) {
    events_->record("gossip_run")
        .field("n", n_)
        .field("gossip_steps", result.steps)
        .field("converged", result.converged)
        .field("messages_sent", result.messages_sent)
        .field("messages_dropped", result.messages_lost)
        .field("triplets_sent", result.triplets_sent)
        .field("active_triplets", result.active_triplets)
        .field("zero_components_skipped", result.zero_components_skipped)
        .field("send_phase_seconds", result.send_phase_seconds)
        .field("bookkeeping_phase_seconds", result.bookkeeping_phase_seconds);
  }
  return result;
}

double VectorGossip::estimate(NodeId i, NodeId j) const {
  const double w = w_[at(i, j)];
  if (w <= kWeightFloor) return std::numeric_limits<double>::quiet_NaN();
  return x_[at(i, j)] / w;
}

std::vector<double> VectorGossip::node_view(NodeId i) const {
  std::vector<double> view(n_, 0.0);
  for (NodeId j = 0; j < n_; ++j) {
    const double e = estimate(i, j);
    if (!std::isnan(e)) view[j] = e;
  }
  return view;
}

std::vector<double> VectorGossip::consensus_means() {
  // Fixed chunk grid over rows: per column, the chunk sums merge in chunk
  // order and each chunk sums its rows in id order, so the read-out depends
  // on (n, kReduceChunks) only and is bit-identical for any thread count
  // and block width. Each lane reads out the blocks it owns.
  std::vector<double> mean(n_, 0.0);
  std::vector<std::uint32_t> total(n_, 0);
  const std::size_t chunks = std::min(n_, kReduceChunks);
  for_chunks(nblocks_, lanes(), [&](std::size_t b0, std::size_t b1, std::size_t lane) {
    double* acc = lanes_[lane].old_row.data();
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t c0 = block_begin(b);
      const std::size_t cols = block_cols(b);
      const double* bx = x_.data() + c0 * n_;
      const double* bw = w_.data() + c0 * n_;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [lo, hi] = ThreadPool::chunk_range(0, n_, chunks, c);
        std::fill_n(acc, cols, 0.0);
        for (NodeId i = lo; i < hi; ++i) {
          if (!is_alive(i)) continue;
          // Rows are exactly 0 outside their support, which the masked
          // kernel skips like any undefined weight.
          kn_->ratio_accumulate(acc, total.data() + c0, bx + i * cols,
                                bw + i * cols, kWeightFloor, cols);
        }
        kn_->add(mean.data() + c0, acc, cols);
      }
    }
  });
  for (NodeId j = 0; j < n_; ++j)
    mean[j] = total[j] ? mean[j] / static_cast<double>(total[j]) : 0.0;
  return mean;
}

double VectorGossip::column_x_mass(NodeId j) const {
  double s = 0.0;
  for (NodeId i = 0; i < n_; ++i) s += x_[at(i, j)];
  return s;
}

double VectorGossip::column_w_mass(NodeId j) const {
  double s = 0.0;
  for (NodeId i = 0; i < n_; ++i) s += w_[at(i, j)];
  return s;
}

double VectorGossip::max_view_disagreement(NodeId a, NodeId b) const {
  double worst = 0.0;
  for (NodeId j = 0; j < n_; ++j) {
    const double ea = estimate(a, j);
    const double eb = estimate(b, j);
    if (std::isnan(ea) || std::isnan(eb)) continue;
    worst = std::max(worst, std::abs(ea - eb));
  }
  return worst;
}

}  // namespace gt::gossip
