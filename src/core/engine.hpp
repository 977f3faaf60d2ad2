// The GossipTrust engine: the paper's primary contribution (Algorithm 2).
//
// Drives aggregation cycles t = 0, 1, ... until the global reputation
// vector converges:
//   * each cycle computes V(t+1) = S^T V(t) by vector push-sum gossip
//     (gossip steps run until every node is epsilon-stable);
//   * the greedy-factor/power-node mix is applied at the cycle boundary;
//   * cycles stop when the mean relative change of V drops below delta.
//
// The engine exposes both the full run() loop and a single-cycle API so
// callers (the churn ablation, the file-sharing workload) can mutate the
// trust matrix or the overlay between cycles exactly like a live network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/power_nodes.hpp"
#include "gossip/vector_gossip.hpp"
#include "graph/topology.hpp"
#include "telemetry/event_log.hpp"
#include "trace/trace.hpp"
#include "trust/matrix.hpp"

namespace gt::core {

/// All tunables; defaults are the paper's Table 2.
struct GossipTrustConfig {
  double delta = 1e-3;             ///< global aggregation threshold
  double epsilon = 1e-4;           ///< gossip error threshold
  double alpha = 0.15;             ///< greedy factor
  double power_node_fraction = 0.01;  ///< q as a fraction of n ("up to 1%")
  std::size_t max_cycles = 100;    ///< safety cap on aggregation cycles
  std::size_t stable_rounds = 2;   ///< consecutive stable gossip steps
  std::size_t max_gossip_steps = 10000;
  double loss_probability = 0.0;   ///< message loss injected into gossip
  bool neighbors_only = false;     ///< restrict gossip targets to overlay neighbors
  std::size_t num_threads = 1;     ///< gossip kernel lanes (0 = one per CPU in
                                   ///< the affinity mask; capped at the
                                   ///< kernel's column blocks)
  simd::SimdLevel simd_level = simd::SimdLevel::kAuto;
                                   ///< gossip kernel ISA (GT_SIMD env wins;
                                   ///< bit-identical at every level)
};

/// Per-cycle telemetry: the gossip kernel's counters, gauge and phase
/// timings for this cycle's run (merged across worker lanes) plus
/// engine-level cycle outcomes.
struct CycleStats {
  std::size_t gossip_steps = 0;
  bool gossip_converged = false;
  bool degraded = false;  ///< non-converged gossip; previous V retained
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t triplets_sent = 0;
  std::uint64_t active_triplets = 0;          ///< live (x,w) components at cycle end
  std::uint64_t zero_components_skipped = 0;  ///< structural zeros never gossiped
  double send_phase_seconds = 0.0;            ///< route/bucket/gather wall time
                                              ///< (stability check included)
  double bookkeeping_phase_seconds = 0.0;     ///< support-bitmap update wall time
  double readout_seconds = 0.0;               ///< consensus read-out wall time
  double change_from_previous = 0.0;  ///< mean relative error vs previous V
};

/// Final outcome of a full aggregation run.
struct AggregationResult {
  std::vector<double> scores;      ///< converged global reputation vector
  std::vector<NodeId> power_nodes; ///< selected after the last cycle
  std::vector<CycleStats> cycles;
  bool converged = false;

  std::size_t num_cycles() const noexcept { return cycles.size(); }
  std::size_t degraded_cycles() const noexcept;
  std::size_t total_gossip_steps() const noexcept;
  std::uint64_t total_messages() const noexcept;
  std::uint64_t total_triplets() const noexcept;
  double mean_gossip_steps_per_cycle() const noexcept;
};

/// GossipTrust reputation aggregation engine.
class GossipTrustEngine {
 public:
  GossipTrustEngine(std::size_t n, GossipTrustConfig config);

  std::size_t num_nodes() const noexcept { return n_; }
  const GossipTrustConfig& config() const noexcept { return config_; }

  /// Lanes of the gossip kernel (VectorGossip::lanes()); 0 until the first
  /// cycle builds it.
  std::size_t gossip_lanes() const noexcept { return gossip_ ? gossip_->lanes() : 0; }

  /// Uniform initial vector v_i(0) = 1/n.
  std::vector<double> initial_scores() const;

  /// Runs one aggregation cycle: gossips S^T v, normalizes, applies the
  /// power-node mix (using power nodes selected from the *previous* cycle's
  /// scores, per "power nodes are dynamically chosen after each reputation
  /// aggregation"), and reselects power nodes from the new scores.
  /// `overlay` is only consulted when config.neighbors_only is set.
  /// `alive` (optional, size n, nonzero = live) restricts the cycle to the
  /// current membership: departed peers neither report, gossip, nor hold
  /// scores (their entry in v becomes 0) — the peer-dynamics support the
  /// churn ablation drives between cycles.
  CycleStats run_cycle(const trust::SparseMatrix& s, std::vector<double>& v,
                       std::vector<NodeId>& power, Rng& rng,
                       const graph::Graph* overlay = nullptr,
                       const std::vector<std::uint8_t>* alive = nullptr);

  /// Full loop: cycles until mean relative change < delta (or max_cycles).
  AggregationResult run(const trust::SparseMatrix& s, Rng& rng,
                        const graph::Graph* overlay = nullptr,
                        std::optional<std::vector<double>> warm_start = std::nullopt);

  /// Attaches a JSONL sink: every run_cycle emits one `cycle` record (steps,
  /// message/triplet counters, per-phase seconds, change_from_previous) and,
  /// when step_sample_every > 0, the gossip kernel additionally emits one
  /// `gossip_step` record every step_sample_every-th step. Null detaches.
  void set_event_log(telemetry::EventLog* events, std::size_t step_sample_every = 0);

  /// Attaches a causal-trace sink: every run_cycle emits one kCycle span
  /// (on the sink's synchronous time axis) whose gossip steps parent into
  /// it, plus one flight-recorder probe sweep at the cycle boundary —
  /// per live component, the column weight mass, its deviation from the
  /// conserved value 1, and |V_j(t+1) - V_j(t)|. Observational only: the
  /// aggregation is bit-identical with tracing on or off. Null detaches.
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

  /// Installs gossip-layer adversary vectors forwarded to every subsequent
  /// cycle's kernel (see VectorGossip::set_adversary): x_scale[i] scales
  /// node i's own-component x share on the wire, withhold[i] suppresses
  /// everything but its own component. Empty spans clear the respective
  /// behavior; RNG-free, so clearing restores bit-identical runs.
  void set_gossip_adversary(std::span<const double> x_scale,
                            std::span<const std::uint8_t> withhold);

 private:
  std::size_t n_;
  GossipTrustConfig config_;
  // The gossip kernel and its worker lanes: built by the first cycle, then
  // re-initialized by every cycle (2 n^2 doubles of state, updated in
  // place, plus each lane's sender pointers, parked rows and one old row,
  // allocated once per engine).
  std::optional<gossip::VectorGossip> gossip_;
  telemetry::EventLog* events_ = nullptr;
  std::size_t step_sample_every_ = 0;
  std::uint64_t cycles_emitted_ = 0;  // cycle index stamped onto records
  trace::TraceSink* trace_ = nullptr;
  std::uint64_t trace_cycle_seq_ = 0;  // probe-sweep series index
  std::vector<double> adv_scale_;            // gossip-layer liars (empty = none)
  std::vector<std::uint8_t> adv_withhold_;   // share withholders (empty = none)
};

}  // namespace gt::core
