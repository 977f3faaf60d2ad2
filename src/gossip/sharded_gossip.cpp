#include "gossip/sharded_gossip.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gossip/pushsum.hpp"

namespace gt::gossip {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
/// Stream tag for the one-off de-phasing offset draw (never a push index).
constexpr std::uint64_t kOffsetTag = 0xa5a5a5a5a5a5a5a5ULL;

double u01(SplitMix64& g) noexcept {
  return static_cast<double>(g.next() >> 11) * 0x1.0p-53;
}

/// Lemire bounded sampling over a stateless stream (mirrors
/// Rng::next_below so target choice is debiased the same way).
std::uint64_t bounded(SplitMix64& g, std::uint64_t bound) noexcept {
  std::uint64_t x = g.next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = g.next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

struct ShardCounters {
  std::uint64_t pushes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t sends = 0;
  std::uint64_t pushes_skipped_down = 0;
  std::uint64_t drops_loss = 0;
  std::uint64_t drops_blocked = 0;
  std::uint64_t drops_blocked_in_flight = 0;
  std::uint64_t drops_receiver_down = 0;
  std::uint64_t triplets_unmatched = 0;
};

}  // namespace

/// One shard: its own event queue, its in-flight message slab (SoA, K
/// triplets per slot), one outbox row toward every shard, and shard-local
/// counters/ledgers so the hot path never touches shared mutable state.
struct ShardedGossip::Shard {
  sim::Scheduler sched;

  // In-flight slab. Slot s owns msg_comp/x/w[s*K .. s*K+K).
  std::vector<std::uint32_t> msg_from, msg_to;
  std::vector<std::uint8_t> msg_live;
  std::vector<std::uint32_t> msg_comp;
  std::vector<double> msg_x, msg_w;
  std::vector<std::uint32_t> free_msgs;

  /// Cross-shard handoff buffer (this shard -> shard d). Written only by
  /// the owning shard during the execute pass, read and cleared only by
  /// shard d during the next drain pass — the window barrier between the
  /// two passes is the only synchronization needed.
  struct Outbox {
    std::vector<double> time;
    std::vector<std::uint32_t> from, to;
    std::vector<std::uint32_t> comp;  // K entries per message
    std::vector<double> x, w;         // K entries per message
    std::size_t size() const noexcept { return time.size(); }
    void clear() noexcept {
      time.clear();
      from.clear();
      to.clear();
      comp.clear();
      x.clear();
      w.clear();
    }
  };
  std::vector<Outbox> out;

  ShardCounters ctr;
  std::size_t stable_nodes = 0;
  std::vector<double> destroyed_x, destroyed_w;  // per component id
};

double ShardedMassSummary::max_gap() const {
  double gap = 0.0;
  for (std::size_t c = 0; c < initial_x.size(); ++c) {
    gap = std::max(gap, std::abs(resident_x[c] + in_flight_x[c] +
                                 destroyed_x[c] - initial_x[c]));
    gap = std::max(gap, std::abs(resident_w[c] + in_flight_w[c] +
                                 destroyed_w[c] - initial_w[c]));
  }
  return gap;
}

ShardedGossip::ShardedGossip(const graph::CsrView& csr,
                             ShardedGossipConfig config)
    : csr_(csr), cfg_(config), n_(csr.num_nodes()), k_(config.components) {
  if (k_ == 0) throw std::invalid_argument("ShardedGossip: components == 0");
  if (!(cfg_.period > 0.0))
    throw std::invalid_argument("ShardedGossip: period must be positive");
  if (!(cfg_.base_latency > 0.0))
    throw std::invalid_argument(
        "ShardedGossip: base_latency must be positive — it is the "
        "conservative lookahead bound");
  simd_level_ = simd::resolve_level(cfg_.simd_level);
  kn_ = &simd::kernels(simd_level_);
  threads_ = cfg_.threads != 0 ? cfg_.threads : available_cpus();
  shards_count_ = cfg_.shards != 0 ? cfg_.shards : threads_;
  shards_.reserve(shards_count_);
  for (std::size_t s = 0; s < shards_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->out.resize(shards_count_);
  }
}

ShardedGossip::~ShardedGossip() = default;

std::size_t ShardedGossip::shard_of(std::size_t node) const noexcept {
  const std::size_t s = shards_count_;
  const std::size_t base = n_ / s;
  const std::size_t rem = n_ % s;
  const std::size_t big = base + 1;
  if (node < rem * big) return node / big;
  return rem + (node - rem * big) / std::max<std::size_t>(base, 1);
}

void ShardedGossip::initialize(std::span<const std::uint32_t> comp,
                               std::span<const double> x0,
                               std::span<const double> w0) {
  const std::size_t slots = n_ * k_;
  if (comp.size() != slots || x0.size() != slots || w0.size() != slots)
    throw std::invalid_argument("ShardedGossip::initialize: span sizes must "
                                "all be n * components");
  std::uint32_t max_comp = 0;
  for (const std::uint32_t c : comp) {
    if (c >= (1u << 31))
      throw std::invalid_argument("ShardedGossip: component id >= 2^31");
    max_comp = std::max(max_comp, c);
  }
  comp_.assign(comp.begin(), comp.end());
  x_.assign(x0.begin(), x0.end());
  w_.assign(w0.begin(), w0.end());
  prev_ratio_.assign(slots, kNaN);
  stable_count_.assign(n_, 0);
  push_count_.assign(n_, 0);
  // Pad the SoA tails to the kernel granularity (benign values, outside
  // every logical slot index) and assert the aligned allocator delivered.
  const std::size_t padded = simd::padded_size(slots);
  comp_.resize(padded, 0);
  x_.resize(padded, 0.0);
  w_.resize(padded, 0.0);
  prev_ratio_.resize(padded, kNaN);
  simd::assert_aligned(comp_.data(), simd::kAlignment, "ShardedGossip::comp_");
  simd::assert_aligned(x_.data(), simd::kAlignment, "ShardedGossip::x_");
  simd::assert_aligned(w_.data(), simd::kAlignment, "ShardedGossip::w_");
  simd::assert_aligned(prev_ratio_.data(), simd::kAlignment,
                       "ShardedGossip::prev_ratio_");

  const std::size_t num_comp = slots != 0 ? max_comp + 1u : 0;
  initial_x_.assign(num_comp, 0.0);
  initial_w_.assign(num_comp, 0.0);
  for (std::size_t s = 0; s < slots; ++s) {
    initial_x_[comp_[s]] += x_[s];
    initial_w_[comp_[s]] += w_[s];
  }
  truth_.assign(num_comp, kNaN);
  for (std::size_t c = 0; c < num_comp; ++c)
    if (initial_w_[c] > 0.0) truth_[c] = initial_x_[c] / initial_w_[c];
  for (auto& sh : shards_) {
    sh->destroyed_x.assign(num_comp, 0.0);
    sh->destroyed_w.assign(num_comp, 0.0);
  }
  initialized_ = true;
}

void ShardedGossip::initialize_fig3(std::uint64_t workload_seed) {
  std::vector<std::uint32_t> comp(n_ * k_);
  std::vector<double> x0(n_ * k_), w0(n_ * k_, 1.0);
  for (std::size_t i = 0; i < n_; ++i) {
    SplitMix64 g(mix64(workload_seed, i));
    for (std::size_t c = 0; c < k_; ++c) {
      comp[i * k_ + c] = static_cast<std::uint32_t>(c);
      // Local trust share in (0, 1]: heavy-ish tail via squaring so the
      // aggregate has the skew of real reputation mass.
      const double u = u01(g);
      x0[i * k_ + c] = std::max(u * u, 1e-9);
    }
  }
  initialize(comp, x0, w0);
}

void ShardedGossip::set_fault_plan(const fault::FaultPlan& plan) {
  if (ran_)
    throw std::logic_error("ShardedGossip: set_fault_plan after run()");
  timeline_ = fault::FaultTimeline(plan, n_);
}

std::uint32_t ShardedGossip::alloc_msg(Shard& sh) {
  if (!sh.free_msgs.empty()) {
    const std::uint32_t slot = sh.free_msgs.back();
    sh.free_msgs.pop_back();
    sh.msg_live[slot] = 1;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(sh.msg_from.size());
  sh.msg_from.push_back(0);
  sh.msg_to.push_back(0);
  sh.msg_live.push_back(1);
  sh.msg_comp.resize(sh.msg_comp.size() + k_);
  sh.msg_x.resize(sh.msg_x.size() + k_);
  sh.msg_w.resize(sh.msg_w.size() + k_);
  return slot;
}

void ShardedGossip::free_msg(Shard& sh, std::uint32_t slot) {
  sh.msg_live[slot] = 0;
  sh.free_msgs.push_back(slot);
}

void ShardedGossip::schedule_initial_pushes() {
  for (std::size_t i = 0; i < n_; ++i) {
    SplitMix64 g(mix64(mix64(cfg_.seed, i), kOffsetTag));
    const double offset = cfg_.period * u01(g);
    const auto node = static_cast<std::uint32_t>(i);
    shards_[shard_of(i)]->sched.schedule_at(
        offset, [this, node] { push_event(node, *shards_[shard_of(node)]); });
  }
}

void ShardedGossip::push_event(std::uint32_t node, Shard& sh) {
  const double t = sh.sched.now();
  ++sh.ctr.pushes;
  sh.sched.schedule_at(t + cfg_.period, [this, node] {
    push_event(node, *shards_[shard_of(node)]);
  });
  const std::uint64_t k = push_count_[node]++;

  if (timeline_.any() && !timeline_.node_up(node, t)) {
    ++sh.ctr.pushes_skipped_down;
    return;
  }

  const auto nbrs = csr_.neighbors(node);
  if (!nbrs.empty()) {
    // Every draw of this push comes from its private stateless stream, so
    // no other event — on any shard, in any interleaving — can perturb it.
    SplitMix64 g(mix64(mix64(cfg_.seed, node), k));
    const std::uint32_t to = nbrs[bounded(g, nbrs.size())];
    double latency = cfg_.base_latency;
    if (cfg_.jitter > 0.0) latency += cfg_.jitter * u01(g);
    bool lost = false;
    if (timeline_.any()) {
      const double rate = timeline_.loss_rate(t);
      if (rate > 0.0 && u01(g) < rate) lost = true;
    }

    // Halve the resident state; the other halves are the wire shares.
    const std::size_t base = static_cast<std::size_t>(node) * k_;
    kn_->halve(x_.data() + base, k_);
    kn_->halve(w_.data() + base, k_);
    ++sh.ctr.sends;

    if (timeline_.any() && timeline_.path_blocked(node, to, t)) {
      ++sh.ctr.drops_blocked;
      destroy_payload(sh, comp_.data() + base, x_.data() + base,
                      w_.data() + base);
    } else if (lost) {
      ++sh.ctr.drops_loss;
      destroy_payload(sh, comp_.data() + base, x_.data() + base,
                      w_.data() + base);
    } else {
      const double arrival = t + latency;
      const std::size_t dst = shard_of(to);
      if (dst == shard_of(node)) {
        Shard& own = sh;
        const std::uint32_t slot = alloc_msg(own);
        own.msg_from[slot] = node;
        own.msg_to[slot] = to;
        std::copy_n(comp_.data() + base, k_, own.msg_comp.data() + slot * k_);
        std::copy_n(x_.data() + base, k_, own.msg_x.data() + slot * k_);
        std::copy_n(w_.data() + base, k_, own.msg_w.data() + slot * k_);
        const auto s32 = static_cast<std::uint32_t>(dst);
        own.sched.schedule_at(
            arrival, [this, s32, slot] { deliver_event(s32, slot); });
      } else {
        auto& ob = sh.out[dst];
        ob.time.push_back(arrival);
        ob.from.push_back(node);
        ob.to.push_back(to);
        ob.comp.insert(ob.comp.end(), comp_.begin() + base,
                       comp_.begin() + base + k_);
        ob.x.insert(ob.x.end(), x_.begin() + base, x_.begin() + base + k_);
        ob.w.insert(ob.w.end(), w_.begin() + base, w_.begin() + base + k_);
      }
    }
  }
  update_stability(node, sh);
}

void ShardedGossip::deliver_event(std::uint32_t shard, std::uint32_t slot) {
  Shard& sh = *shards_[shard];
  ++sh.ctr.deliveries;
  const std::uint32_t to = sh.msg_to[slot];
  const std::uint32_t from = sh.msg_from[slot];
  const double t = sh.sched.now();
  const std::uint32_t* comp = sh.msg_comp.data() + std::size_t{slot} * k_;
  const double* px = sh.msg_x.data() + std::size_t{slot} * k_;
  const double* pw = sh.msg_w.data() + std::size_t{slot} * k_;
  if (timeline_.any() && !timeline_.node_up(to, t)) {
    ++sh.ctr.drops_receiver_down;
    destroy_payload(sh, comp, px, pw);
  } else if (timeline_.any() && timeline_.path_blocked(from, to, t)) {
    ++sh.ctr.drops_blocked_in_flight;
    destroy_payload(sh, comp, px, pw);
  } else {
    apply_payload(sh, to, comp, px, pw);
  }
  free_msg(sh, slot);
}

void ShardedGossip::apply_payload(Shard& sh, std::uint32_t to,
                                  const std::uint32_t* comp, const double* x,
                                  const double* w) {
  const std::size_t base = static_cast<std::size_t>(to) * k_;
  // Fast path: homogeneous layouts (the fig3 workload) keep component c in
  // slot c on every node — the whole payload applies as two elementwise
  // vector adds when the id blocks match byte-for-byte.
  if (std::memcmp(comp, comp_.data() + base, k_ * sizeof(std::uint32_t)) ==
      0) {
    kn_->add(x_.data() + base, x, k_);
    kn_->add(w_.data() + base, w, k_);
    return;
  }
  for (std::size_t c = 0; c < k_; ++c) {
    const std::uint32_t id = comp[c];
    // Heterogeneous fallback: slot-aligned probe first, K-wide scan after.
    std::size_t slot = k_;
    if (c < k_ && comp_[base + c] == id) {
      slot = c;
    } else {
      for (std::size_t j = 0; j < k_; ++j)
        if (comp_[base + j] == id) {
          slot = j;
          break;
        }
    }
    if (slot == k_) {
      ++sh.ctr.triplets_unmatched;
      sh.destroyed_x[id] += x[c];
      sh.destroyed_w[id] += w[c];
      continue;
    }
    x_[base + slot] += x[c];
    w_[base + slot] += w[c];
  }
}

void ShardedGossip::destroy_payload(Shard& sh, const std::uint32_t* comp,
                                    const double* x, const double* w) {
  for (std::size_t c = 0; c < k_; ++c) {
    sh.destroyed_x[comp[c]] += x[c];
    sh.destroyed_w[comp[c]] += w[c];
  }
}

void ShardedGossip::update_stability(std::uint32_t node, Shard& sh) {
  const std::size_t base = static_cast<std::size_t>(node) * k_;
  // Vectorized K-wide sweep; simd::Kernels::residual_keep documents the
  // exact per-element branch semantics this replaced (undefined weights
  // leave prev untouched, NaN-safe epsilon compare).
  const bool stable =
      kn_->residual_keep(x_.data() + base, w_.data() + base,
                         prev_ratio_.data() + base, kWeightFloor,
                         cfg_.epsilon, k_);
  const bool was = stable_count_[node] >= cfg_.stable_rounds;
  if (stable) {
    if (stable_count_[node] < std::numeric_limits<std::uint16_t>::max())
      ++stable_count_[node];
  } else {
    stable_count_[node] = 0;
  }
  const bool now = stable_count_[node] >= cfg_.stable_rounds;
  if (now && !was) ++sh.stable_nodes;
  if (was && !now) --sh.stable_nodes;
}

void ShardedGossip::drain_inboxes(std::uint32_t shard) {
  Shard& sh = *shards_[shard];
  for (std::size_t src = 0; src < shards_count_; ++src) {
    auto& ob = shards_[src]->out[shard];
    const std::size_t count = ob.size();
    for (std::size_t m = 0; m < count; ++m) {
      const std::uint32_t slot = alloc_msg(sh);
      sh.msg_from[slot] = ob.from[m];
      sh.msg_to[slot] = ob.to[m];
      std::copy_n(ob.comp.data() + m * k_, k_, sh.msg_comp.data() + slot * k_);
      std::copy_n(ob.x.data() + m * k_, k_, sh.msg_x.data() + slot * k_);
      std::copy_n(ob.w.data() + m * k_, k_, sh.msg_w.data() + slot * k_);
      sh.sched.schedule_at(ob.time[m], [this, shard, slot] {
        deliver_event(shard, slot);
      });
    }
    ob.clear();
  }
}

void ShardedGossip::sample_error(double now) {
  double sum = 0.0;
  std::size_t defined = 0;
  const std::size_t slots = n_ * k_;
  for (std::size_t s = 0; s < slots; ++s) {
    if (!(w_[s] > kWeightFloor)) continue;
    sum += std::abs(x_[s] / w_[s] - truth_[comp_[s]]);
    ++defined;
  }
  // (Guarded against an all-undefined scan; the curve then records 0.)
  error_curve_scratch_.emplace_back(now,
                                    defined != 0 ? sum / static_cast<double>(defined) : 0.0);
}

ShardedGossipResult ShardedGossip::run() {
  if (!initialized_)
    throw std::logic_error("ShardedGossip::run before initialize");
  if (ran_) throw std::logic_error("ShardedGossip: one run per instance");
  ran_ = true;

  ShardedGossipResult res;
  if (n_ == 0) return res;

  schedule_initial_pushes();
  ThreadPool pool(threads_);
  const double lookahead = cfg_.base_latency;
  const std::size_t s_count = shards_count_;
  double window_start = 0.0;

  for (;;) {
    const double window_end = window_start + lookahead;
    if (s_count > 1) {
      // Drain pass: every shard adopts the messages other shards routed to
      // it last window. Reader-only on foreign outboxes; the barrier below
      // separates it from the writers of the execute pass.
      pool.parallel_for(0, s_count, s_count,
                        [this](std::size_t lo, std::size_t hi, std::size_t) {
                          for (std::size_t s = lo; s < hi; ++s)
                            drain_inboxes(static_cast<std::uint32_t>(s));
                        });
    }
    pool.parallel_for(0, s_count, s_count,
                      [this, window_end](std::size_t lo, std::size_t hi,
                                         std::size_t) {
                        for (std::size_t s = lo; s < hi; ++s)
                          shards_[s]->sched.run_before(window_end);
                      });
    ++res.windows;
    window_start = window_end;

    if (cfg_.sample_every != 0 && res.windows % cfg_.sample_every == 0)
      sample_error(window_start);

    std::size_t stable = 0;
    for (const auto& sh : shards_) stable += sh->stable_nodes;
    if (stable == n_) {
      res.converged = true;
      break;
    }
    if (window_start >= cfg_.horizon) break;
  }

  res.sim_time = window_start;
  for (const auto& sh : shards_) {
    res.events += sh->sched.executed();
    res.pushes += sh->ctr.pushes;
    res.deliveries += sh->ctr.deliveries;
    res.sends += sh->ctr.sends;
    res.pushes_skipped_down += sh->ctr.pushes_skipped_down;
    res.drops_loss += sh->ctr.drops_loss;
    res.drops_blocked += sh->ctr.drops_blocked;
    res.drops_blocked_in_flight += sh->ctr.drops_blocked_in_flight;
    res.drops_receiver_down += sh->ctr.drops_receiver_down;
    res.triplets_unmatched += sh->ctr.triplets_unmatched;
  }
  res.triplets_sent = res.sends * k_;
  res.wire_bytes = res.triplets_sent * 24;
  res.error_curve = std::move(error_curve_scratch_);
  return res;
}

double ShardedGossip::estimate(std::size_t i, std::size_t c) const {
  const double w = w_[i * k_ + c];
  if (!(w > kWeightFloor)) return kNaN;
  return x_[i * k_ + c] / w;
}

double ShardedGossip::truth(std::uint32_t component) const {
  return component < truth_.size() ? truth_[component] : kNaN;
}

ShardedMassSummary ShardedGossip::mass_summary() const {
  ShardedMassSummary ms;
  const std::size_t num_comp = initial_x_.size();
  ms.initial_x = initial_x_;
  ms.initial_w = initial_w_;
  ms.resident_x.assign(num_comp, 0.0);
  ms.resident_w.assign(num_comp, 0.0);
  ms.in_flight_x.assign(num_comp, 0.0);
  ms.in_flight_w.assign(num_comp, 0.0);
  ms.destroyed_x.assign(num_comp, 0.0);
  ms.destroyed_w.assign(num_comp, 0.0);
  const std::size_t slots = n_ * k_;
  for (std::size_t s = 0; s < slots; ++s) {
    ms.resident_x[comp_[s]] += x_[s];
    ms.resident_w[comp_[s]] += w_[s];
  }
  for (const auto& sh : shards_) {
    for (std::size_t m = 0; m < sh->msg_live.size(); ++m) {
      if (sh->msg_live[m] == 0) continue;
      for (std::size_t c = 0; c < k_; ++c) {
        ms.in_flight_x[sh->msg_comp[m * k_ + c]] += sh->msg_x[m * k_ + c];
        ms.in_flight_w[sh->msg_comp[m * k_ + c]] += sh->msg_w[m * k_ + c];
      }
    }
    for (const auto& ob : sh->out) {
      for (std::size_t e = 0; e < ob.comp.size(); ++e) {
        ms.in_flight_x[ob.comp[e]] += ob.x[e];
        ms.in_flight_w[ob.comp[e]] += ob.w[e];
      }
    }
    for (std::size_t c = 0; c < num_comp; ++c) {
      ms.destroyed_x[c] += sh->destroyed_x[c];
      ms.destroyed_w[c] += sh->destroyed_w[c];
    }
  }
  return ms;
}

std::size_t ShardedGossip::state_bytes() const noexcept {
  return comp_.size() * sizeof(std::uint32_t) + x_.size() * sizeof(double) +
         w_.size() * sizeof(double) + prev_ratio_.size() * sizeof(double) +
         stable_count_.size() * sizeof(std::uint16_t) +
         push_count_.size() * sizeof(std::uint32_t);
}

}  // namespace gt::gossip
