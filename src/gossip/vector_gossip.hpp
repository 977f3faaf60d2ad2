// Vector push-sum gossip: Algorithm 2's inner loop.
//
// Every node i carries one (x, w) pair *per component j* — the triplet
// <x_j, j, w_j> of the paper — and all n weighted sums
//   v_j(t+1) = sum_i v_i(t) * s_ij
// are gossiped concurrently. Per gossip step each node halves its whole
// reputation vector, keeps one half, and pushes the other to one random
// node, so a step costs one message of O(active components) triplets.
//
// Storage is two dense row-major n x n matrices (X[i][j], W[i][j]) for O(1)
// component access, but the kernel never sweeps dense rows blindly: each
// node keeps the list of its *active* components (seeded from its
// SparseMatrix row plus the consensus-factor diagonal, grown by set union
// on receive), and all per-step work — halving, payload accounting, the
// stability check, the consensus read-out — walks only those lists until a
// row actually densifies (after which it flips to a contiguous dense fast
// path with no index indirection).
//
// The step itself is organised as three node-partitioned parallel phases
// over a gt::ThreadPool:
//   A (route):   each node draws its push target and loss coin from its own
//                RNG stream (seeded mix64(base, i)) and books the payload
//                the last gather counted for it;
//   B (bucket):  a serial O(n) counting sort turns target choices into
//                per-receiver sender lists, ascending by sender id;
//   C (gather):  each receiver owns its output row exclusively and folds
//                keep-half + received halves in ascending-sender order,
//                then, while the row is still in L1, counts its next
//                payload and checks it for epsilon-stability.
// Because every floating-point accumulation order is fixed by node ids and
// never by scheduling, results are bit-identical for any thread count,
// including the serial num_threads == 1 path.
//
// Convergence is one bit per step. "Every live node stable for R
// consecutive steps" is exactly "R consecutive steps on which every live
// node was stable", so the kernel keeps one counter, not one per node. A
// node is stable on a step when each owned component's ratio x/w moved by
// at most epsilon; the gather checks the row it just wrote against the
// receiver's old row, which holds exactly the ratios the last step left:
// within a run supports only grow, and both state buffers are exactly 0
// outside them, so a component the last step did not define reads as
// undefined there too. The check stops for the rest of a step at the first
// unstable row, and the first step after initialize() is unstable by
// definition. The state is four n x n arrays (X, W and their next-step
// buffers): 8 MiB at n = 512.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gossip/pushsum.hpp"
#include "simd/kernels.hpp"
#include "graph/topology.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "trace/trace.hpp"
#include "trust/matrix.hpp"

namespace gt::gossip {

/// Outcome of one vector-gossip convergence (one aggregation cycle's worth
/// of gossip steps).
struct VectorGossipResult {
  std::size_t steps = 0;
  bool converged = false;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t triplets_sent = 0;  ///< payload volume: nonzero entries pushed
  std::uint64_t active_triplets = 0;          ///< live (x,w) components after the last step
  std::uint64_t zero_components_skipped = 0;  ///< structurally-zero sends skipped, summed over steps
  double send_phase_seconds = 0.0;  ///< route + bucket + gather wall time,
                                    ///< payload count and stability check
                                    ///< included
  double bookkeeping_phase_seconds = 0.0;  ///< O(n) support-count wall time
};

/// Synchronous-round vector push-sum over n nodes and n components.
class VectorGossip {
 public:
  /// `pool` (optional, non-owning) supplies the worker lanes; when null and
  /// config.num_threads != 1 the kernel owns a private pool. num_threads == 1
  /// (the default) runs fully inline on the calling thread.
  VectorGossip(std::size_t n, PushSumConfig config, ThreadPool* pool = nullptr);

  /// Restricts the protocol to a subset of live peers (peer dynamics /
  /// churn support). Dead peers do not inject mass at initialize, do not
  /// send or receive, and neither they nor the components they own are
  /// consulted for convergence (a departed peer's reputation has no
  /// consensus-factor holder, so its gossiped score is undefined — the
  /// engine reads it out as 0). Call before initialize(); an empty vector
  /// restores full participation.
  void set_participants(std::vector<std::uint8_t> alive);

  /// Initializes component j on node i per Algorithm 2 lines 5-10:
  ///   x_i^{(j)} = s_ij * v_i,   w_i^{(j)} = [i == j].
  /// Rows of S with no feedback ("dangling" raters) act as uniform rows
  /// 1/n, matching SparseMatrix::transpose_multiply's dangling rule. Also
  /// seeds the per-node active-component lists from the sparse rows.
  void initialize(const trust::SparseMatrix& s, std::span<const double> v);

  /// Runs gossip steps until every node's full vector is epsilon-stable for
  /// `stable_rounds` consecutive steps (or max_steps). An overlay restricts
  /// targets to neighbors when config.neighbors_only is set.
  VectorGossipResult run(Rng& rng, const graph::Graph* overlay = nullptr);

  /// One synchronous gossip step. The first step after initialize() draws
  /// one u64 from `rng` as the base of the per-node RNG streams
  /// (mix64(base, i)); afterwards `rng` is never consulted, which is what
  /// makes the step thread-count invariant.
  void step(Rng& rng, const graph::Graph* overlay, VectorGossipResult& result);

  std::size_t num_nodes() const noexcept { return n_; }

  /// Node i's current estimate of component j (NaN while w == 0).
  double estimate(NodeId i, NodeId j) const;

  /// Consensus read-out: node i's full vector of beta_j = x_j / w_j, with
  /// undefined components reported as 0 (a node that never heard about j
  /// has no evidence about j).
  std::vector<double> node_view(NodeId i) const;

  /// System-wide consensus read-out: component j's mean of the defined
  /// per-node estimates (0 when nobody holds evidence about j — including
  /// every component owned by a departed peer). Walks only active
  /// components and runs across the pool on a fixed chunk grid, so the
  /// result is bit-identical for any thread count.
  std::vector<double> consensus_means() const;

  /// Mass-conservation invariants (property tests): column sums of X and W.
  double column_x_mass(NodeId j) const;
  double column_w_mass(NodeId j) const;

  /// Max over components of the disagreement between two nodes' views.
  double max_view_disagreement(NodeId a, NodeId b) const;

  const PushSumConfig& config() const noexcept { return config_; }

  /// Resolved kernel ISA for this instance (config.simd_level after
  /// GT_SIMD / CPU-capability resolution): kScalar, kAvx2, or kNeon.
  /// Informational only — every level computes bit-identical results.
  simd::SimdLevel simd_level() const noexcept { return simd_level_; }

  /// Active (potentially nonzero) component count on node i: n for a
  /// densified row, the active-list length otherwise.
  std::size_t active_components(NodeId i) const {
    return dense_[i] ? n_ : active_[i].size();
  }

  /// The kernel's metrics registry: the per-phase counters and timers
  /// behind VectorGossipResult (counters `gossip.messages_sent`,
  /// `gossip.messages_lost`, `gossip.triplets_sent`,
  /// `gossip.zero_components_skipped`; gauge `gossip.active_triplets`;
  /// histograms `gossip.send_phase_seconds`,
  /// `gossip.bookkeeping_phase_seconds` observed once per step). Worker
  /// lanes are merged on read, so a snapshot is always consistent between
  /// steps. All telemetry is observational: results are bit-identical
  /// whether or not anything reads it.
  const telemetry::MetricsRegistry& metrics() const noexcept { return *metrics_; }

  /// Attaches a JSONL sink: run() emits one `gossip_run` record per
  /// convergence run and, when sample_every > 0, one `gossip_step` record
  /// every sample_every-th step. Null detaches.
  void set_event_log(telemetry::EventLog* events, std::size_t sample_every = 0);

  /// Attaches a causal-trace sink: run() emits one kGossipStep span per
  /// step plus four kPhase sub-spans carrying that step's deterministic
  /// counter deltas. The synchronous time axis is the cumulative step
  /// index: `base_time` < 0 resolves the base from the sink's time cursor
  /// (bumped past the last step when run() returns), so consecutive runs
  /// sharing one sink land on one monotone axis. When the engine drives
  /// this kernel it passes the enclosing cycle's trace id and span so steps
  /// parent into the cycle tree; standalone runs (trace_id == 0) allocate
  /// their own trace id per run(). Observational only (no wall-clock values
  /// land in the trace). Null detaches.
  void set_trace(trace::TraceSink* sink, double base_time = -1.0,
                 std::uint64_t trace_id = 0, std::uint64_t parent_span = 0);

  /// Installs per-node gossip-layer adversaries for subsequent steps.
  /// `x_scale[i]` multiplies node i's *own-component* x share as received
  /// by its push target (1.0 = honest; > 1 self-promotes by minting x
  /// mass, (0,1) self-slanders); `withhold[i]` != 0 makes node i suppress
  /// every component but its own from pushes (the withheld halves stay
  /// resident, so honest mass is conserved). Each span must be empty (no
  /// adversary of that kind) or size n with finite positive scales, else
  /// std::invalid_argument. Deterministic and RNG-free: routing, loss
  /// coins, and all per-node RNG streams are untouched, so a run with
  /// both spans empty (or all-honest values) is bit-identical to an
  /// unattacked run at any thread count.
  void set_adversary(std::span<const double> x_scale,
                     std::span<const std::uint8_t> withhold);

 private:
  bool is_alive(NodeId v) const { return alive_.empty() || alive_[v] != 0; }
  bool adv_withholds(NodeId v) const {
    return !adv_withhold_.empty() && adv_withhold_[v] != 0;
  }
  std::size_t lanes() const noexcept { return pool_ ? pool_->num_threads() : 1; }
  void for_chunks(std::size_t count, std::size_t num_chunks,
                  const ThreadPool::ChunkFn& fn) const;
  void seed_streams(std::uint64_t base);
  void route_phase(const graph::Graph* overlay);
  void bucket_phase();
  /// Returns true when every live row was stable (false without checking
  /// when check_stability is false).
  bool gather_phase(bool check_stability);
  void bookkeeping_phase(VectorGossipResult& result);
  /// Books row i's next push payload: triplets nonzero after halving
  /// (delivered) and, when messages can be lost, un-halved (lost).
  void count_payload(NodeId i, const double* x, const double* w, bool dense,
                     const std::vector<NodeId>& support);
  /// Stability of live row r (next support) against its old row.
  bool row_is_stable(NodeId r, const double* x, const double* w,
                     const double* x_old, const double* w_old) const;

  std::size_t n_ = 0;
  PushSumConfig config_;
  ThreadPool* pool_ = nullptr;  // may be null: serial
  std::unique_ptr<ThreadPool> owned_pool_;

  std::vector<std::uint8_t> alive_;     // empty = everyone participates
  std::vector<NodeId> alive_list_;      // cached ids of live peers
  std::vector<double> adv_scale_;       // empty = no liars (see set_adversary)
  std::vector<std::uint8_t> adv_withhold_;  // empty = no withholders

  // Dense state: n*n row-major, 64-byte aligned with tails padded to
  // simd::padded_size so the vector kernels can run unmasked full rows.
  // Padding slots are benign (0 / NaN) and outside every logical loop.
  simd::aligned_vector<double> x_;
  simd::aligned_vector<double> w_;
  simd::aligned_vector<double> inbox_x_;  // accumulation buffers (next state)
  simd::aligned_vector<double> inbox_w_;

  simd::SimdLevel simd_level_ = simd::SimdLevel::kScalar;  // resolved
  const simd::Kernels* kn_ = nullptr;  // kernel set for simd_level_
  std::size_t stable_steps_ = 0;  // consecutive steps with every live row stable

  // Sparsity bookkeeping: per-node active component lists, double-buffered
  // across a step (phase C reads senders' current lists while writing its
  // own next list). dense_[i] set => the list is implicit [0, n).
  std::vector<std::vector<NodeId>> active_, next_active_;
  std::vector<std::uint8_t> dense_, next_dense_;

  // Per-node deterministic RNG streams (seeded lazily from the caller Rng).
  std::vector<Rng> node_rng_;
  bool streams_seeded_ = false;

  // Step scratch: phase A decisions and the phase B receiver buckets (CSR).
  static constexpr NodeId kNoTarget = static_cast<NodeId>(-1);
  std::vector<NodeId> target_;          // kNoTarget = keep everything local
  std::vector<std::uint8_t> delivered_;
  std::vector<double> keep_;            // self-kept fraction (0.5 or 1.0)
  std::vector<std::size_t> in_off_;     // n + 1 offsets into in_senders_
  std::vector<NodeId> in_senders_;      // delivered senders, ascending per receiver
  std::vector<std::uint64_t> payload_half_;   // next push if delivered (h = 0.5)
  std::vector<std::uint64_t> payload_whole_;  // next push if lost (h = 1)

  // Per-chunk union markers for the sparse gather (stamp-versioned so they
  // never need clearing between receivers).
  struct UnionScratch {
    std::vector<std::uint64_t> mark;
    std::uint64_t stamp = 0;
  };
  mutable std::vector<UnionScratch> scratch_;

  // Telemetry: per-lane counter partials live in the registry (each worker
  // lane adds its chunk totals into its own lane; reads merge lanes in
  // fixed order). CounterTotals snapshots the merged values so step() can
  // report per-step deltas in the caller's result struct.
  struct CounterTotals {
    std::uint64_t sent = 0, lost = 0, triplets = 0, skipped = 0;
  };
  CounterTotals counter_totals() const noexcept;

  std::unique_ptr<telemetry::MetricsRegistry> metrics_;
  telemetry::Counter c_sent_, c_lost_, c_triplets_, c_skipped_;
  telemetry::Gauge g_active_;
  telemetry::Histogram h_send_, h_book_;
  telemetry::EventLog* events_ = nullptr;
  std::size_t step_sample_every_ = 0;

  trace::TraceSink* trace_ = nullptr;
  double trace_base_time_ = -1.0;     // < 0: resolve from the sink's cursor
  std::uint64_t trace_trace_id_ = 0;  // 0: allocate per run()
  std::uint64_t trace_parent_span_ = 0;

  double* row_x(NodeId i) { return x_.data() + i * n_; }
  double* row_w(NodeId i) { return w_.data() + i * n_; }
  const double* row_x(NodeId i) const { return x_.data() + i * n_; }
  const double* row_w(NodeId i) const { return w_.data() + i * n_; }
};

}  // namespace gt::gossip
