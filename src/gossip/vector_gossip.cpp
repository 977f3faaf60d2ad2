#include "gossip/vector_gossip.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/scoped_timer.hpp"

namespace gt::gossip {

VectorGossip::VectorGossip(std::size_t n, PushSumConfig config, ThreadPool* pool)
    : n_(n),
      config_(config),
      pool_(pool),
      x_(simd::padded_size(n * n), 0.0),
      w_(simd::padded_size(n * n), 0.0),
      inbox_x_(simd::padded_size(n * n), 0.0),
      inbox_w_(simd::padded_size(n * n), 0.0),
      active_(n),
      next_active_(n),
      dense_(n, 0),
      next_dense_(n, 0),
      target_(n, kNoTarget),
      delivered_(n, 0),
      keep_(n, 1.0),
      in_off_(n + 1, 0),
      in_senders_(n, 0),
      payload_half_(n, 0),
      payload_whole_(n, 0) {
  if (n == 0) throw std::invalid_argument("VectorGossip: n must be positive");
  simd_level_ = simd::resolve_level(config_.simd_level);
  kn_ = &simd::kernels(simd_level_);
  simd::assert_aligned(x_.data(), simd::kAlignment, "VectorGossip::x_");
  simd::assert_aligned(w_.data(), simd::kAlignment, "VectorGossip::w_");
  simd::assert_aligned(inbox_x_.data(), simd::kAlignment,
                       "VectorGossip::inbox_x_");
  simd::assert_aligned(inbox_w_.data(), simd::kAlignment,
                       "VectorGossip::inbox_w_");
  if (pool_ == nullptr && config_.num_threads != 1) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    pool_ = owned_pool_.get();
  }
  scratch_.resize(lanes());
  for (auto& sc : scratch_) sc.mark.assign(n_, 0);

  // One registry lane per worker lane; phase timings land in log-bucket
  // histograms spanning ~30ns .. ~30s.
  metrics_ = std::make_unique<telemetry::MetricsRegistry>(lanes());
  c_sent_ = metrics_->counter("gossip.messages_sent");
  c_lost_ = metrics_->counter("gossip.messages_lost");
  c_triplets_ = metrics_->counter("gossip.triplets_sent");
  c_skipped_ = metrics_->counter("gossip.zero_components_skipped");
  g_active_ = metrics_->gauge("gossip.active_triplets");
  telemetry::HistogramOptions phase_buckets{3e-8, 2.0, 30};
  h_send_ = metrics_->histogram("gossip.send_phase_seconds", phase_buckets);
  h_book_ = metrics_->histogram("gossip.bookkeeping_phase_seconds", phase_buckets);
}

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

VectorGossip::CounterTotals VectorGossip::counter_totals() const noexcept {
  return CounterTotals{metrics_->counter_value(c_sent_),
                       metrics_->counter_value(c_lost_),
                       metrics_->counter_value(c_triplets_),
                       metrics_->counter_value(c_skipped_)};
}

void VectorGossip::for_chunks(std::size_t count, std::size_t num_chunks,
                              const ThreadPool::ChunkFn& fn) const {
  if (count == 0 || num_chunks == 0) return;
  if (num_chunks > count) num_chunks = count;
  if (pool_ != nullptr && pool_->num_threads() > 1 && num_chunks > 1) {
    pool_->parallel_for(0, count, num_chunks, fn);
  } else {
    ThreadPool::run_serial(0, count, num_chunks, fn);
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
  std::fill(x_.begin(), x_.end(), 0.0);
  std::fill(w_.begin(), w_.end(), 0.0);
  std::fill(inbox_x_.begin(), inbox_x_.end(), 0.0);
  std::fill(inbox_w_.begin(), inbox_w_.end(), 0.0);
  std::fill(dense_.begin(), dense_.end(), 0);
  std::fill(next_dense_.begin(), next_dense_.end(), 0);
  for (NodeId i = 0; i < n_; ++i) {
    active_[i].clear();
    next_active_[i].clear();
  }
  streams_seeded_ = false;  // next step derives fresh per-node streams
  stable_steps_ = 0;

  const double uniform = 1.0 / static_cast<double>(n_);
  for (NodeId i = 0; i < n_; ++i) {
    if (!is_alive(i)) continue;  // departed peers inject no reports
    double* xi = row_x(i);
    const auto entries = s.row(i);
    if (entries.empty()) {
      // Dangling rater: its reputation mass spreads uniformly, the same
      // rule SparseMatrix::transpose_multiply applies. The row starts (and
      // stays) structurally dense.
      const double share = v[i] * uniform;
      for (NodeId j = 0; j < n_; ++j) xi[j] = share;
      dense_[i] = 1;
    } else {
      bool has_diagonal = false;
      auto& act = active_[i];
      act.reserve(entries.size() + 1);
      for (const auto& e : entries) {
        xi[e.col] = e.value * v[i];
        act.push_back(e.col);
        has_diagonal |= (e.col == i);
      }
      if (!has_diagonal) act.push_back(i);
      if (act.size() == n_) {
        dense_[i] = 1;
        act.clear();
      }
    }
    row_w(i)[i] = 1.0;  // only node j holds the consensus factor for j
    count_payload(i, xi, row_w(i), dense_[i] != 0, active_[i]);
  }
}

void VectorGossip::seed_streams(std::uint64_t base) {
  if (node_rng_.size() != n_) node_rng_.resize(n_);
  for (NodeId i = 0; i < n_; ++i) node_rng_[i].reseed(mix64(base, i));
  streams_seeded_ = true;
}

void VectorGossip::route_phase(const graph::Graph* overlay) {
  const bool masked = !alive_.empty();
  const std::size_t chunks = std::min(lanes(), n_);
  for_chunks(n_, chunks, [&](std::size_t b, std::size_t e, std::size_t c) {
    CounterTotals ctr;  // chunk-local, folded into this lane's slots below
    for (NodeId i = b; i < e; ++i) {
      target_[i] = kNoTarget;
      delivered_[i] = 0;
      keep_[i] = 1.0;
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

      bool lost = false;
      if (have_target) {
        ++ctr.sent;
        if (config_.loss_probability > 0.0 &&
            nr.next_bool(config_.loss_probability)) {
          ++ctr.lost;
          lost = true;
        }
      }
      keep_[i] = have_target ? 0.5 : 1.0;
      if (have_target && !lost) {
        target_[i] = target;
        delivered_[i] = 1;
      }

      if (have_target) {
        // Payload accounting: the last gather (or initialize) counted this
        // row's support at both halving factors; a lost message still
        // carried its (un-halved) payload onto the wire. A withholding
        // adversary ships only its own component.
        if (adv_withholds(i)) {
          const double h = lost ? 1.0 : 0.5;
          ctr.triplets +=
              (h * row_x(i)[i] != 0.0 || h * row_w(i)[i] != 0.0) ? 1 : 0;
        } else {
          ctr.triplets += lost ? payload_whole_[i] : payload_half_[i];
        }
        if (!dense_[i]) ctr.skipped += n_ - active_[i].size();
      }
    }
    metrics_->add(c_sent_, ctr.sent, c);
    metrics_->add(c_lost_, ctr.lost, c);
    metrics_->add(c_triplets_, ctr.triplets, c);
    metrics_->add(c_skipped_, ctr.skipped, c);
  });
}

void VectorGossip::bucket_phase() {
  // Counting sort of delivered senders by target; iterating senders in
  // ascending order makes each receiver's bucket ascending too, which is
  // what pins the floating-point fold order in the gather phase.
  std::fill(in_off_.begin(), in_off_.end(), 0);
  for (NodeId i = 0; i < n_; ++i)
    if (delivered_[i]) ++in_off_[target_[i] + 1];
  for (std::size_t k = 1; k <= n_; ++k) in_off_[k] += in_off_[k - 1];
  for (NodeId i = 0; i < n_; ++i)
    if (delivered_[i]) in_senders_[in_off_[target_[i]]++] = i;
  // The insert pass advanced each start cursor to its end offset; shift
  // right to recover [start, end) ranges.
  for (std::size_t k = n_; k >= 1; --k) in_off_[k] = in_off_[k - 1];
  in_off_[0] = 0;
}

void VectorGossip::count_payload(NodeId i, const double* x, const double* w,
                                 bool dense, const std::vector<NodeId>& support) {
  // h = 1 (a lost push) can only occur when messages may be lost.
  const bool lossy = config_.loss_probability > 0.0;
  std::uint64_t half = 0, whole = 0;
  if (dense) {
    half = kn_->count_nonzero_pair(x, w, 0.5, n_);
    if (lossy) whole = kn_->count_nonzero_pair(x, w, 1.0, n_);
  } else {
    for (const NodeId j : support) {
      half += (0.5 * x[j] != 0.0 || 0.5 * w[j] != 0.0);
      if (lossy) whole += (1.0 * x[j] != 0.0 || 1.0 * w[j] != 0.0);
    }
  }
  payload_half_[i] = half;
  payload_whole_[i] = whole;
}

bool VectorGossip::row_is_stable(NodeId r, const double* x, const double* w,
                                 const double* x_old,
                                 const double* w_old) const {
  // Algorithm 1 line 14 for one live node: every component owned by a live
  // peer is defined and moved by at most epsilon since the last step.
  // Components of departed peers are never consulted.
  const double floor = kWeightFloor;
  const double eps = config_.epsilon;
  const bool masked = !alive_.empty();
  if (next_dense_[r]) {
    if (!masked) return kn_->row_stable(x, w, x_old, w_old, floor, eps, n_);
    for (const NodeId j : alive_list_)
      if (!simd::element_stable(x[j], w[j], x_old[j], w_old[j], floor, eps))
        return false;
    return true;
  }
  // A sparse row missing an owned component is unstable; unmasked, that
  // is every sparse row (a full support would have densified).
  const auto& support = next_active_[r];
  const std::size_t owned_total = masked ? alive_list_.size() : n_;
  if (support.size() < owned_total) return false;
  std::size_t owned = 0;
  for (const NodeId j : support) {
    if (masked && !alive_[j]) continue;
    ++owned;
    if (!simd::element_stable(x[j], w[j], x_old[j], w_old[j], floor, eps))
      return false;
  }
  return owned == owned_total;
}

bool VectorGossip::gather_phase(bool check_stability) {
  const bool masked = !alive_.empty();
  const std::size_t chunks = std::min(lanes(), n_);
  // Cleared by the first unstable row any lane finds; later rows skip the
  // check. The verdict is an AND over rows, so it does not depend on which
  // lane got there first.
  std::atomic<bool> stable{check_stability};
  for_chunks(n_, chunks, [&](std::size_t b, std::size_t e, std::size_t chunk) {
    UnionScratch& sc = scratch_[chunk];
    for (NodeId r = b; r < e; ++r) {
      if (masked && !alive_[r]) {
        next_dense_[r] = 0;
        next_active_[r].clear();
        continue;  // dead rows stay identically zero in both buffers
      }
      const double keep = keep_[r];
      const double* xr = row_x(r);
      const double* wr = row_w(r);
      double* nx = inbox_x_.data() + r * n_;
      double* nw = inbox_w_.data() + r * n_;
      const std::size_t sb = in_off_[r];
      const std::size_t se = in_off_[r + 1];

      // A withholding receiver that pushed this step (keep == 0.5) only
      // parted with its own component; the withheld halves stay whole.
      const bool self_wh = adv_withholds(r) && keep != 1.0;

      bool out_dense = dense_[r] != 0;
      for (std::size_t k = sb; k < se && !out_dense; ++k) {
        const NodeId s = in_senders_[k];
        // A withholding sender contributes one component, never density.
        out_dense = dense_[s] != 0 && !adv_withholds(s);
      }

      if (out_dense) {
        // Contiguous fast path once any contributing row has densified:
        // vector kernels sweep whole rows. The initial assignment also
        // overwrites whatever the stale inbox buffer held, so no separate
        // clearing sweep is needed.
        if (self_wh) {
          std::copy_n(xr, n_, nx);  // withheld halves stay whole
          std::copy_n(wr, n_, nw);
          nx[r] = keep * xr[r];
          nw[r] = keep * wr[r];
        } else {
          kn_->scale_assign(nx, xr, keep, n_);
          kn_->scale_assign(nw, wr, keep, n_);
        }
        for (std::size_t k = sb; k < se; ++k) {
          const NodeId s = in_senders_[k];
          const double* xs = row_x(s);
          const double* ws = row_w(s);
          if (adv_withholds(s)) {
            nx[s] += 0.5 * xs[s];
            nw[s] += 0.5 * ws[s];
          } else if (dense_[s]) {
            kn_->accumulate_scaled(nx, xs, 0.5, n_);
            kn_->accumulate_scaled(nw, ws, 0.5, n_);
          } else {
            for (const NodeId j : active_[s]) {
              nx[j] += 0.5 * xs[j];
              nw[j] += 0.5 * ws[j];
            }
          }
        }
        next_dense_[r] = 1;
        next_active_[r].clear();
      } else {
        // Sparse union gather: first touch of a component assigns (which
        // doubles as clearing the stale inbox slot), later touches add.
        // Senders fold in ascending id, so the accumulation order per
        // component is a pure function of the data — never of threads.
        auto& out = next_active_[r];
        out.clear();
        const std::uint64_t stamp = ++sc.stamp;
        if (self_wh) {
          for (const NodeId j : active_[r]) {
            sc.mark[j] = stamp;
            out.push_back(j);
            const double kj = j == r ? keep : 1.0;
            nx[j] = kj * xr[j];
            nw[j] = kj * wr[j];
          }
        } else {
          for (const NodeId j : active_[r]) {
            sc.mark[j] = stamp;
            out.push_back(j);
            nx[j] = keep * xr[j];
            nw[j] = keep * wr[j];
          }
        }
        for (std::size_t k = sb; k < se; ++k) {
          const NodeId s = in_senders_[k];
          const double* xs = row_x(s);
          const double* ws = row_w(s);
          if (adv_withholds(s)) {
            // Own component only (always in s's active set: the consensus
            // factor seeds the diagonal).
            if (sc.mark[s] != stamp) {
              sc.mark[s] = stamp;
              out.push_back(s);
              nx[s] = 0.5 * xs[s];
              nw[s] = 0.5 * ws[s];
            } else {
              nx[s] += 0.5 * xs[s];
              nw[s] += 0.5 * ws[s];
            }
            continue;
          }
          for (const NodeId j : active_[s]) {
            if (sc.mark[j] != stamp) {
              sc.mark[j] = stamp;
              out.push_back(j);
              nx[j] = 0.5 * xs[j];
              nw[j] = 0.5 * ws[j];
            } else {
              nx[j] += 0.5 * xs[j];
              nw[j] += 0.5 * ws[j];
            }
          }
        }
        if (out.size() == n_) {
          next_dense_[r] = 1;
          out.clear();
        } else {
          next_dense_[r] = 0;
        }
      }

      // Gossip-layer liars: scale the *received* own-component x share.
      // The sender's fold above already first-touched component s (the
      // diagonal is always active), so this is a pure adjustment — it
      // mints (c-1) * half-share of counterfeit x mass per delivery.
      if (!adv_scale_.empty()) {
        for (std::size_t k = sb; k < se; ++k) {
          const NodeId s = in_senders_[k];
          const double c = adv_scale_[s];
          if (c != 1.0) nx[s] += (c - 1.0) * 0.5 * row_x(s)[s];
        }
      }

      // The finished row is still in L1: count what it will push next
      // step, and compare it with the old row (xr, wr), which holds exactly
      // the ratios the last step left (see step()).
      count_payload(r, nx, nw, next_dense_[r] != 0, next_active_[r]);
      if (stable.load() && !row_is_stable(r, nx, nw, xr, wr))
        stable.store(false);
    }
  });
  return stable.load();
}

void VectorGossip::bookkeeping_phase(VectorGossipResult& result) {
  // Snapshot of the step's support: O(n) over the density flags and list
  // lengths (dead rows hold empty supports), mirrored into the gauge.
  std::uint64_t active = 0;
  for (NodeId i = 0; i < n_; ++i) active += dense_[i] ? n_ : active_[i].size();
  result.active_triplets = active;
  metrics_->set(g_active_, static_cast<double>(active));
}

void VectorGossip::step(Rng& rng, const graph::Graph* overlay,
                        VectorGossipResult& result) {
  // The first step after initialize() has no earlier step to be stable
  // against (its old rows are the seeded state, not a gossip result), so
  // it is unstable by definition and skips the check.
  const bool first = !streams_seeded_;
  if (first) seed_streams(rng.next_u64());
  // Counter partials land in the registry lanes during the phases; the
  // caller's result struct receives this step's merged delta.
  const CounterTotals before = counter_totals();
  bool stable = false;
  {
    telemetry::ScopedTimer timer(*metrics_, h_send_, 0,
                                 &result.send_phase_seconds);
    route_phase(overlay);
    bucket_phase();
    stable = gather_phase(/*check_stability=*/!first);
    x_.swap(inbox_x_);
    w_.swap(inbox_w_);
    active_.swap(next_active_);
    dense_.swap(next_dense_);
  }
  {
    telemetry::ScopedTimer timer(*metrics_, h_book_, 0,
                                 &result.bookkeeping_phase_seconds);
    bookkeeping_phase(result);
  }
  stable_steps_ = stable ? stable_steps_ + 1 : 0;
  const CounterTotals after = counter_totals();
  result.messages_sent += after.sent - before.sent;
  result.messages_lost += after.lost - before.lost;
  result.triplets_sent += after.triplets - before.triplets;
  result.zero_components_skipped += after.skipped - before.skipped;
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
  while (result.steps < config_.max_steps) {
    step(rng, overlay, result);
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
  const double w = row_w(i)[j];
  if (w <= kWeightFloor) return std::numeric_limits<double>::quiet_NaN();
  return row_x(i)[j] / w;
}

std::vector<double> VectorGossip::node_view(NodeId i) const {
  std::vector<double> view(n_, 0.0);
  for (NodeId j = 0; j < n_; ++j) {
    const double e = estimate(i, j);
    if (!std::isnan(e)) view[j] = e;
  }
  return view;
}

std::vector<double> VectorGossip::consensus_means() const {
  // Fixed chunk grid: the reduction's merge order depends on (n, kChunks)
  // only, so the read-out is bit-identical for any thread count.
  constexpr std::size_t kReduceChunks = 32;
  const std::size_t chunks = std::min(n_, kReduceChunks);
  std::vector<std::vector<double>> acc(chunks);
  std::vector<std::vector<std::uint32_t>> cnt(chunks);
  for_chunks(n_, chunks, [&](std::size_t b, std::size_t e, std::size_t c) {
    auto& a = acc[c];
    auto& k = cnt[c];
    a.assign(n_, 0.0);
    k.assign(n_, 0);
    for (NodeId i = b; i < e; ++i) {
      if (!is_alive(i)) continue;
      const double* xi = row_x(i);
      const double* wi = row_w(i);
      if (dense_[i]) {
        // Elementwise masked kernel: same per-element predicate and
        // division as the sparse visit below, no cross-element math.
        kn_->ratio_accumulate(a.data(), k.data(), xi, wi, kWeightFloor, n_);
      } else {
        for (const NodeId j : active_[i]) {
          if (wi[j] > kWeightFloor) {
            a[j] += xi[j] / wi[j];
            ++k[j];
          }
        }
      }
    }
  });
  std::vector<double> mean(n_, 0.0);
  std::vector<std::uint32_t> total(n_, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    if (acc[c].empty()) continue;  // chunk never ran (count < chunks)
    // Chunk merge order stays c-ascending; within a chunk the add is
    // elementwise, so the fixed (n, kChunks) grid still pins every sum.
    kn_->add(mean.data(), acc[c].data(), n_);
    for (NodeId j = 0; j < n_; ++j) total[j] += cnt[c][j];
  }
  for (NodeId j = 0; j < n_; ++j)
    mean[j] = total[j] ? mean[j] / static_cast<double>(total[j]) : 0.0;
  return mean;
}

double VectorGossip::column_x_mass(NodeId j) const {
  double s = 0.0;
  for (NodeId i = 0; i < n_; ++i) s += row_x(i)[j];
  return s;
}

double VectorGossip::column_w_mass(NodeId j) const {
  double s = 0.0;
  for (NodeId i = 0; i < n_; ++i) s += row_w(i)[j];
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
