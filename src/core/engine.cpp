#include "core/engine.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/stats.hpp"

namespace gt::core {

std::size_t AggregationResult::degraded_cycles() const noexcept {
  std::size_t s = 0;
  for (const auto& c : cycles) s += c.degraded ? 1 : 0;
  return s;
}

std::size_t AggregationResult::total_gossip_steps() const noexcept {
  std::size_t s = 0;
  for (const auto& c : cycles) s += c.gossip_steps;
  return s;
}

std::uint64_t AggregationResult::total_messages() const noexcept {
  std::uint64_t s = 0;
  for (const auto& c : cycles) s += c.messages_sent;
  return s;
}

std::uint64_t AggregationResult::total_triplets() const noexcept {
  std::uint64_t s = 0;
  for (const auto& c : cycles) s += c.triplets_sent;
  return s;
}

double AggregationResult::mean_gossip_steps_per_cycle() const noexcept {
  if (cycles.empty()) return 0.0;
  return static_cast<double>(total_gossip_steps()) /
         static_cast<double>(cycles.size());
}

GossipTrustEngine::GossipTrustEngine(std::size_t n, GossipTrustConfig config)
    : n_(n), config_(config) {
  if (n_ == 0) throw std::invalid_argument("GossipTrustEngine: n must be positive");
  if (config_.delta <= 0.0 || config_.epsilon <= 0.0)
    throw std::invalid_argument("GossipTrustEngine: thresholds must be positive");
  if (config_.alpha < 0.0 || config_.alpha > 1.0)
    throw std::invalid_argument("GossipTrustEngine: alpha must be in [0, 1]");
}

std::vector<double> GossipTrustEngine::initial_scores() const {
  return std::vector<double>(n_, 1.0 / static_cast<double>(n_));
}

void GossipTrustEngine::set_event_log(telemetry::EventLog* events,
                                      std::size_t step_sample_every) {
  events_ = events;
  step_sample_every_ = step_sample_every;
}

void GossipTrustEngine::set_gossip_adversary(
    std::span<const double> x_scale, std::span<const std::uint8_t> withhold) {
  if (!x_scale.empty() && x_scale.size() != n_)
    throw std::invalid_argument(
        "GossipTrustEngine::set_gossip_adversary: x_scale size");
  if (!withhold.empty() && withhold.size() != n_)
    throw std::invalid_argument(
        "GossipTrustEngine::set_gossip_adversary: withhold size");
  for (const double c : x_scale)
    if (!(std::isfinite(c) && c > 0.0))
      throw std::invalid_argument(
          "GossipTrustEngine::set_gossip_adversary: x_scale values must be "
          "finite and > 0");
  adv_scale_.assign(x_scale.begin(), x_scale.end());
  adv_withhold_.assign(withhold.begin(), withhold.end());
}

CycleStats GossipTrustEngine::run_cycle(const trust::SparseMatrix& s,
                                        std::vector<double>& v,
                                        std::vector<NodeId>& power, Rng& rng,
                                        const graph::Graph* overlay,
                                        const std::vector<std::uint8_t>* alive) {
  if (s.size() != n_ || v.size() != n_)
    throw std::invalid_argument("GossipTrustEngine::run_cycle: size mismatch");

  // One kernel per engine, built by the first cycle: every cycle sets all
  // of its per-cycle inputs (participants, adversaries, sinks) and
  // re-initializes its state, so nothing carries from one cycle to the next.
  if (!gossip_) {
    gossip::PushSumConfig ps;
    ps.epsilon = config_.epsilon;
    ps.stable_rounds = config_.stable_rounds;
    ps.max_steps = config_.max_gossip_steps;
    ps.loss_probability = config_.loss_probability;
    ps.neighbors_only = config_.neighbors_only;
    ps.num_threads = config_.num_threads;
    ps.simd_level = config_.simd_level;
    gossip_.emplace(n_, ps);  // owns its worker lanes when it runs more than one
  }
  gossip::VectorGossip& gossip = *gossip_;
  gossip.set_participants(alive != nullptr ? *alive
                                           : std::vector<std::uint8_t>{});
  gossip.set_adversary(adv_scale_, adv_withhold_);
  // Step sampling is the kernel's job; the engine emits the richer `cycle`
  // record below, so the kernel sink is only attached when sampling is on.
  const bool sample_steps = events_ != nullptr && step_sample_every_ > 0;
  gossip.set_event_log(sample_steps ? events_ : nullptr,
                       sample_steps ? step_sample_every_ : 0);
  std::uint64_t cycle_trace = 0, cycle_span = 0;
  double cycle_base = 0.0;
  if (trace_ != nullptr) {
    cycle_trace = trace_->alloc_trace();
    cycle_span = trace_->alloc_span();
    cycle_base = trace_->time_cursor();
    gossip.set_trace(trace_, cycle_base, cycle_trace, cycle_span);
  } else {
    gossip.set_trace(nullptr);
  }
  gossip.initialize(s, v);
  const auto gres = gossip.run(rng, overlay);

  // Consensus read-out: the system-wide agreed value for component j is the
  // (near-identical) per-node ratio; we average defined per-node estimates,
  // which keeps residual gossip error in the result the way a real
  // deployment would experience it. Only defined estimates count, so
  // departed peers (and anything nobody heard about) read out as 0.
  const auto readout_begin = std::chrono::steady_clock::now();
  std::vector<double> next = gossip.consensus_means();
  const double readout_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    readout_begin)
          .count();
  normalize_l1(next);

  // Pre-mix consensus, snapshotted for the probe sweep below: the rank
  // detectors must see what the *network* computed — the alpha re-anchoring
  // legitimately jumps a node's score whenever the power-node selection
  // churns, and that engine-side step must not read as manipulation.
  std::vector<double> premix;
  if (trace_ != nullptr) premix = next;

  auto is_alive = [alive](NodeId v_id) {
    return alive == nullptr || (*alive)[v_id] != 0;
  };

  // Graceful degradation: a cycle whose gossip never reached epsilon-
  // stability holds a *biased* partial aggregate (mass still traveling or
  // lost), and silently adopting it would corrupt every later cycle. Keep
  // the previous cycle's vector instead and flag the cycle degraded;
  // `next` is still computed above so change_from_previous reports how far
  // off the abandoned aggregate was.
  const bool degraded = !gres.converged;

  // Greedy-factor damping toward the power nodes selected after the
  // previous cycle — skipping anchors that have since departed, so no
  // reputation mass teleports onto dead peers.
  if (!degraded) {
    if (alive == nullptr) {
      apply_power_node_mix(next, power, config_.alpha);
    } else {
      std::vector<NodeId> live_power;
      live_power.reserve(power.size());
      for (const NodeId p : power)
        if (is_alive(p)) live_power.push_back(p);
      apply_power_node_mix(next, live_power, config_.alpha);
    }
  }

  // The run's result holds this cycle's deltas of the kernel's metrics
  // (the registry itself accumulates over the engine's lifetime).
  CycleStats stats;
  stats.gossip_steps = gres.steps;
  stats.gossip_converged = gres.converged;
  stats.degraded = degraded;
  stats.messages_sent = gres.messages_sent;
  stats.messages_lost = gres.messages_lost;
  stats.triplets_sent = gres.triplets_sent;
  stats.active_triplets = gres.active_triplets;
  stats.zero_components_skipped = gres.zero_components_skipped;
  stats.send_phase_seconds = gres.send_phase_seconds;
  stats.bookkeeping_phase_seconds = gres.bookkeeping_phase_seconds;
  stats.readout_seconds = readout_seconds;
  stats.change_from_previous = mean_relative_error(next, v);

  if (trace_ != nullptr) {
    // The cycle span closes over the steps the kernel just traced; the
    // flight-recorder sweep samples every live column at the boundary.
    const double cycle_end = trace_->time_cursor();
    trace::TraceRecord rec;
    rec.t_start = cycle_base;
    rec.t_end = cycle_end;
    rec.trace_id = cycle_trace;
    rec.span_id = cycle_span;
    rec.kind = static_cast<std::uint32_t>(trace::SpanKind::kCycle);
    rec.flags = static_cast<std::uint32_t>(trace_cycle_seq_);
    rec.value = stats.change_from_previous;
    trace_->emit(rec);
    const std::uint64_t sweep = trace_->alloc_trace();
    // Legitimate per-column x mass this cycle: what Algorithm 2 seeded,
    // column sums of S^T restricted to live rows (dangling raters spread
    // uniformly, matching VectorGossip::initialize). Sync gossip conserves
    // it exactly, so measured minus expected isolates adversary-minted
    // mass — computed only when traced (pure reads, no RNG).
    std::vector<double> expected_x(n_, 0.0);
    const double uniform = 1.0 / static_cast<double>(n_);
    for (NodeId i = 0; i < n_; ++i) {
      if (!is_alive(i)) continue;
      const auto entries = s.row(i);
      if (entries.empty()) {
        const double share = v[i] * uniform;
        for (NodeId j = 0; j < n_; ++j) expected_x[j] += share;
      } else {
        for (const auto& e : entries) expected_x[e.col] += e.value * v[i];
      }
    }
    for (NodeId j = 0; j < n_; ++j) {
      if (!is_alive(j)) continue;
      const double weight = gossip.column_w_mass(j);
      const double score = degraded ? v[j] : premix[j];
      trace_->probe(sweep, trace_cycle_seq_, cycle_end,
                    static_cast<std::uint32_t>(j), weight, weight - 1.0,
                    std::abs(next[j] - v[j]), score,
                    gossip.column_x_mass(j) - expected_x[j]);
    }
    ++trace_cycle_seq_;
  }

  if (events_ != nullptr) {
    events_->record("cycle")
        .field("cycle", cycles_emitted_++)
        .field("n", n_)
        .field("simd", simd::level_name(gossip.simd_level()))
        .field("gossip_steps", stats.gossip_steps)
        .field("gossip_converged", stats.gossip_converged)
        .field("degraded", stats.degraded ? 1 : 0)
        .field("messages_sent", stats.messages_sent)
        .field("messages_dropped", stats.messages_lost)
        .field("triplets_sent", stats.triplets_sent)
        .field("active_triplets", stats.active_triplets)
        .field("zero_components_skipped", stats.zero_components_skipped)
        .field("send_phase_seconds", stats.send_phase_seconds)
        .field("bookkeeping_phase_seconds", stats.bookkeeping_phase_seconds)
        .field("readout_seconds", stats.readout_seconds)
        .field("change_from_previous", stats.change_from_previous);
  }

  if (!degraded) {
    v = std::move(next);
    power = select_power_nodes(v, config_.power_node_fraction);
  }
  return stats;
}

AggregationResult GossipTrustEngine::run(const trust::SparseMatrix& s, Rng& rng,
                                         const graph::Graph* overlay,
                                         std::optional<std::vector<double>> warm_start) {
  AggregationResult result;
  std::vector<double> v = warm_start ? std::move(*warm_start) : initial_scores();
  if (v.size() != n_)
    throw std::invalid_argument("GossipTrustEngine::run: warm start size mismatch");
  std::vector<NodeId> power;  // none before the first aggregation completes
  trace_cycle_seq_ = 0;  // each run() is its own probe series

  for (std::size_t t = 0; t < config_.max_cycles; ++t) {
    const CycleStats stats = run_cycle(s, v, power, rng, overlay);
    result.cycles.push_back(stats);
    // A degraded cycle retained the previous vector; its (near-zero)
    // change must not masquerade as global convergence.
    if (!stats.degraded && stats.change_from_previous < config_.delta) {
      result.converged = true;
      break;
    }
  }

  result.scores = std::move(v);
  result.power_nodes = std::move(power);
  return result;
}

}  // namespace gt::core
