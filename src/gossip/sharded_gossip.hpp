// Sharded parallel discrete-event push-sum for million-node overlays.
//
// The legacy AsyncGossip path tops out near n = 2000: one global event
// queue, dense n x n per-node state, and a single shared RNG whose draw
// order serializes every event. This engine is the scale path:
//
//   * The node space is partitioned into S contiguous shards, each owning
//     its own zero-allocation sim::Scheduler (the PR-5 event core) — no
//     global queue, no global lock.
//   * Shards advance in lock step through conservative windows of length
//     equal to the network's minimum link latency (base_latency): a
//     message sent inside window [W, W + L) arrives at or after W + L by
//     construction, so every shard can execute its whole window without
//     ever seeing a cross-shard message "from the past". Cross-shard
//     sends land in per-(source, destination) outboxes; each window is
//     two ThreadPool barriers — drain inbound outboxes, then execute.
//   * Per-node state is structure-of-arrays triplet storage: parallel
//     component-id / x / w arrays with a fixed K slots per node
//     (~20 bytes per tracked component), not an n x n matrix. Adjacency
//     is the read-only CsrView. The wire format is the accounted 24-byte
//     triplet of the async engine.
//   * All randomness is per-(node, push) stateless streams:
//     SplitMix64(mix64(mix64(seed, node), push_index)). No draw order is
//     shared between nodes, so thread count, shard count, and event
//     interleaving cannot perturb a single draw.
//
// Determinism contract: a node's state is touched only by its own events
// (its pushes and deliveries addressed to it), every shard pops events in
// (time, insertion) order, and the conservative window guarantees a
// shard's queue already holds every event of the window before executing
// it. Two same-node events can therefore only reorder when they carry the
// exact same 64-bit timestamp, which the random de-phasing offsets and
// jitter make a measure-zero coincidence; in consequence a run with S
// shards on T threads is bit-identical to the S = 1 run on the plain
// single-queue scheduler — the oracle the BitIdentityGate and the
// shard-determinism suite pin, faults included (faults are replayed
// through the side-effect-free FaultTimeline, never through mutable
// network state).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault_timeline.hpp"
#include "graph/csr.hpp"
#include "sim/scheduler.hpp"
#include "simd/kernels.hpp"

namespace gt::gossip {

struct ShardedGossipConfig {
  std::size_t components = 4;   ///< K triplets tracked per node
  double period = 1.0;          ///< per-node push period (sim time)
  double base_latency = 1.0;    ///< min link latency == conservative lookahead
  double jitter = 0.0;          ///< uniform extra latency in [0, jitter)
  double epsilon = 1e-3;        ///< per-component stability threshold
  std::size_t stable_rounds = 3;///< consecutive stable pushes per node
  double horizon = 200.0;       ///< hard stop (sim time)
  std::uint64_t seed = 1;       ///< base of every per-node stream
  std::size_t shards = 0;       ///< event-queue shards (0 = one per thread)
  std::size_t threads = 1;      ///< ThreadPool lanes (0 = one per CPU
                                ///< in the affinity mask)
  std::size_t sample_every = 0; ///< windows between error-curve samples
                                ///< (0 = no sampling)
  simd::SimdLevel simd_level = simd::SimdLevel::kAuto;
                                ///< kernel ISA for the SoA sweeps; resolved
                                ///< via simd::resolve_level (GT_SIMD env
                                ///< wins). Bit-identical at every level.
};

struct ShardedGossipResult {
  double sim_time = 0.0;          ///< window boundary the run stopped at
  bool converged = false;         ///< every node epsilon-stable
  std::uint64_t events = 0;       ///< scheduler events executed, all shards
  std::uint64_t windows = 0;      ///< conservative windows executed
  std::uint64_t pushes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t sends = 0;            ///< wire messages handed to the network
  std::uint64_t triplets_sent = 0;    ///< K per send
  std::uint64_t wire_bytes = 0;       ///< 24 bytes per triplet
  std::uint64_t pushes_skipped_down = 0;  ///< push events of crashed nodes
  std::uint64_t drops_loss = 0;           ///< messages lost to a loss burst
  std::uint64_t drops_blocked = 0;        ///< partition / failed link, send time
  std::uint64_t drops_blocked_in_flight = 0;  ///< partitioned while in flight
  std::uint64_t drops_receiver_down = 0;  ///< receiver crashed before arrival
  std::uint64_t triplets_unmatched = 0;   ///< receiver tracks no such component
  /// (sim_time, mean |estimate - truth|) samples when sample_every > 0.
  std::vector<std::pair<double, double>> error_curve;
};

/// Per-component mass ledger over the whole system: every half pushed out
/// is either resident on some node, inside an undelivered message, or was
/// destroyed by a drop — resident + in_flight + destroyed == initial up to
/// FP reassociation noise.
struct ShardedMassSummary {
  std::vector<double> initial_x, resident_x, in_flight_x, destroyed_x;
  std::vector<double> initial_w, resident_w, in_flight_w, destroyed_w;
  double max_gap() const;
};

class ShardedGossip {
 public:
  /// `csr` must outlive the engine. Throws on components == 0, period or
  /// base_latency <= 0, or a CSR/Config node count over 2^32 - 1.
  ShardedGossip(const graph::CsrView& csr, ShardedGossipConfig config);
  ~ShardedGossip();
  ShardedGossip(const ShardedGossip&) = delete;
  ShardedGossip& operator=(const ShardedGossip&) = delete;

  std::size_t num_nodes() const noexcept { return n_; }
  std::size_t num_shards() const noexcept { return shards_count_; }
  std::size_t components() const noexcept { return k_; }

  /// Resolved kernel ISA (cfg.simd_level after GT_SIMD / CPU resolution).
  simd::SimdLevel simd_level() const noexcept { return simd_level_; }

  /// Seeds node state: slot (i, c) tracks component comp[i*K + c] with
  /// initial mass (x0[i*K + c], w0[i*K + c]). Component ids must be
  /// < 2^31. Spans must be exactly n * K long.
  void initialize(std::span<const std::uint32_t> comp,
                  std::span<const double> x0, std::span<const double> w0);

  /// Convenience fig3-shape workload: every node tracks components
  /// 0..K-1; node i's x for component c is a deterministic pseudo-random
  /// local trust share in (0, 1], w is 1 on every node, so component c
  /// converges to the network-wide mean share — the aggregation primitive
  /// under the paper's Figure 3 convergence curves.
  void initialize_fig3(std::uint64_t workload_seed);

  /// Replays `plan` deterministically during the run. Must be called
  /// before run(). Throws on kinds the FaultTimeline rejects.
  void set_fault_plan(const fault::FaultPlan& plan);

  /// Executes conservative windows until every node is stable or the
  /// horizon is reached. Restartable state is NOT kept: one run per
  /// engine instance.
  ShardedGossipResult run();

  /// Estimate held in slot (i, c): x / w, or NaN while w is (near) zero.
  double estimate(std::size_t i, std::size_t c) const;
  /// Exact mean per tracked component of the initial masses — the value
  /// push-sum converges to.
  double truth(std::uint32_t component) const;

  /// Scans resident state, every in-flight slab slot, and every outbox
  /// into the per-component ledger. Intended for post-run invariant
  /// checks, not the hot path.
  ShardedMassSummary mass_summary() const;

  /// Bytes of resident per-node SoA state (ids, x, w, stability
  /// bookkeeping) — the "bytes/node" numerator next to CSR and Bloom
  /// storage in bench_million.
  std::size_t state_bytes() const noexcept;

 private:
  struct Shard;

  std::size_t shard_of(std::size_t node) const noexcept;
  void schedule_initial_pushes();
  void push_event(std::uint32_t node, Shard& sh);
  void deliver_event(std::uint32_t shard, std::uint32_t slot);
  void apply_payload(Shard& sh, std::uint32_t to,
                     const std::uint32_t* comp, const double* x,
                     const double* w);
  void destroy_payload(Shard& sh, const std::uint32_t* comp,
                       const double* x, const double* w);
  void update_stability(std::uint32_t node, Shard& sh);
  void drain_inboxes(std::uint32_t shard);
  void sample_error(double now);
  std::uint32_t alloc_msg(Shard& sh);
  void free_msg(Shard& sh, std::uint32_t slot);

  const graph::CsrView& csr_;
  ShardedGossipConfig cfg_;
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  std::size_t shards_count_ = 0;
  std::size_t threads_ = 0;

  // SoA triplet state: slot (i, c) lives at index i * K + c. Arrays are
  // 64-byte aligned with tails padded to simd::padded_size (padding slots
  // hold benign values and sit outside every logical index) so the
  // vector kernels in push/apply/stability sweeps stay in-bounds.
  simd::aligned_vector<std::uint32_t> comp_;
  simd::aligned_vector<double> x_, w_;
  simd::aligned_vector<double> prev_ratio_;

  simd::SimdLevel simd_level_ = simd::SimdLevel::kScalar;  // resolved
  const simd::Kernels* kn_ = nullptr;  // kernel set for simd_level_
  std::vector<std::uint16_t> stable_count_;
  std::vector<std::uint32_t> push_count_;

  std::vector<double> truth_;       // per component id
  std::vector<double> initial_x_, initial_w_;  // per component id

  fault::FaultTimeline timeline_;
  std::vector<std::pair<double, double>> error_curve_scratch_;
  bool initialized_ = false;
  bool ran_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace gt::gossip
