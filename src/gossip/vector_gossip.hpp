// Vector push-sum gossip: Algorithm 2's inner loop.
//
// Every node i carries one (x, w) pair *per component j* — the triplet
// <x_j, j, w_j> of the paper — and all n weighted sums
//   v_j(t+1) = sum_i v_i(t) * s_ij
// are gossiped concurrently. Per gossip step each node halves its whole
// reputation vector, keeps one half, and pushes the other to one random
// node, so a step costs one message of O(active components) triplets.
//
// Storage is two n x n arrays, X and W, kept block-major: the n components
// split into blocks of B columns, and block b holds its n rows of B
// contiguous doubles. B is derived from n and the per-core L2 size, so
// that one block's X and W (two n x B arrays) fill about half of L2, with
// rows at least 48 columns wide. The state is those 2n^2 doubles (4 MiB
// at n = 512) plus a few rows per lane.
//
// Each step updates a block's rows in place, in an order drawn with the
// step's route (inplace_order): a row is overwritten only after the row
// its node pushed to has read it. The pushes form a target map; every
// cycle of it gets one *detached* node, whose new row is parked aside
// until the step's other rows are written, so its receiver still reads
// the old row. The order lists the detached nodes first, then the nodes
// that pushed nowhere (idle, lost and departed), then runs breadth-first
// from them through the ascending receiver buckets, so every other node
// comes after its target. Per-lane scratch is the sender pointers, the
// parked rows (reserved for n / 2 and touched only as used) and one old
// row, copied aside only where something reads it after the gather.
//
// The gather is one dense sweep per row: keep-half plus the received
// halves folded in ascending sender order, the payload counted from the
// old row as it is loaded, then the stability check against the row's
// old copy while the row is still in L1. A row is exactly 0 outside
// its support (the components it has heard of), so adding 0.5 x 0 there
// changes no bit and no sparse path is needed; at n = 512 the row-major
// kernel's sparse union gather cost ~6.5 ns per active element against
// ~2.9 ns per element for a dense sweep from L3. Supports depend only on the schedule, so the counts
// a real node reports — `active_triplets` and `zero_components_skipped`,
// the structural zeros it would not put on the wire — come from per-row
// bitmaps updated with the schedule.
//
// Convergence is one bit per step: "every live node stable for R
// consecutive steps" is exactly "R consecutive steps on which every live
// node was stable". A node is stable on a step when each owned component's
// ratio x/w moved by at most epsilon; the first step after initialize() is
// unstable by definition. A step's bit is the AND over blocks. Each block
// runs to its own local stop (R consecutive steps on which its rows and
// every block that got there first were stable), which never comes after
// the global stop; the blocks that stopped earlier then catch up to the
// latest one. The run stops there if the AND holds, else every block
// goes on. No step runs twice or past the stop, and the stored schedule is
// a sliding window of steps.
//
// Lanes of a gt::ThreadPool own whole blocks, so the kernel runs at most
// one lane per block: at most 4 at n = 512 on a 2 MiB L2, where blocks are
// 128 columns wide. Every floating-point accumulation order is fixed by
// node ids and never by scheduling, and counters, trace records and
// event-log records are assembled per step in step order, so results are
// bit-identical for any thread count, including the serial
// num_threads == 1 path. With more than one lane, each lane yields its
// CPU after every block step (~55 us at n = 512), so a thread that shares
// the CPU with a lane (a server's event loop, say) waits at most one block
// step rather than the rest of the lane's scheduler slice.
#pragma once

#include <algorithm>
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

/// inplace_order's mark for a node that pushed nowhere on a step (idle,
/// lost or departed).
inline constexpr std::uint32_t kNoTarget = 0xffffffffu;

/// The in-place write order of one synchronous step. `target[i]` is the
/// node that received i's push, or kNoTarget; (in_off, in_senders) are the
/// receiver buckets of the delivered pushes (n + 1 offsets, senders
/// ascending). Writes a permutation of the n nodes to `order` and returns
/// m: order[0, m) holds one detached node per cycle of the target map, and
/// every other node comes after its target. `mark` is n bytes of scratch.
std::size_t inplace_order(std::span<const std::uint32_t> target,
                          std::span<const std::uint32_t> in_off,
                          std::span<const std::uint32_t> in_senders,
                          std::span<std::uint32_t> order,
                          std::span<std::uint8_t> mark);

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
  double send_phase_seconds = 0.0;  ///< route draw plus every block's
                                    ///< gather, payload count and stability
                                    ///< check, summed over blocks
  double bookkeeping_phase_seconds = 0.0;  ///< support-bitmap update time
};

/// Synchronous-round vector push-sum over n nodes and n components.
class VectorGossip {
 public:
  /// The kernel runs config.num_threads lanes (0 = available_cpus()),
  /// capped at the number of column blocks; more than one lane gives it a
  /// private pool, one lane (the default) runs fully inline on the calling
  /// thread. `block_width` overrides the derived column-block width
  /// (0 = derived); results are bit-identical at every width, so it exists
  /// only for tests.
  VectorGossip(std::size_t n, PushSumConfig config, std::size_t block_width = 0);
  ~VectorGossip();

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
  /// seeds the per-node supports from the sparse rows.
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

  /// Execution lanes in use: the resolved num_threads, at most one per
  /// column block.
  std::size_t lanes() const noexcept { return pool_ ? pool_->num_threads() : 1; }

  /// Column-block width in use (the last block may be narrower).
  std::size_t block_width() const noexcept { return bw_; }

  /// The derived block width for n components on this host: the widest
  /// multiple of 8 (at least 48, at most n) whose two n x B arrays fit in
  /// half of the per-core L2 the platform reports.
  static std::size_t derived_block_width(std::size_t n);

  /// Node i's current estimate of component j (NaN while w == 0).
  double estimate(NodeId i, NodeId j) const;

  /// Consensus read-out: node i's full vector of beta_j = x_j / w_j, with
  /// undefined components reported as 0 (a node that never heard about j
  /// has no evidence about j).
  std::vector<double> node_view(NodeId i) const;

  /// System-wide consensus read-out: component j's mean of the defined
  /// per-node estimates (0 when nobody holds evidence about j — including
  /// every component owned by a departed peer). Each lane reads out its
  /// blocks over a fixed chunk grid of rows, so the result is
  /// bit-identical for any thread count and block width.
  std::vector<double> consensus_means();

  /// Mass-conservation invariants (property tests): column sums of X and W.
  double column_x_mass(NodeId j) const;
  double column_w_mass(NodeId j) const;

  /// Max over components of the disagreement between two nodes' views.
  double max_view_disagreement(NodeId a, NodeId b) const;

  const PushSumConfig& config() const noexcept { return config_; }

  /// Resolved kernel ISA for this instance (config.simd_level after
  /// GT_SIMD / CPU-capability resolution): kScalar, kAvx2, kAvx512 or kNeon.
  /// Informational only — every level computes bit-identical results.
  simd::SimdLevel simd_level() const noexcept { return simd_level_; }

  /// Support size of node i: the components it has heard of (n once its
  /// row is dense, 0 for a departed peer).
  std::size_t active_components(NodeId i) const { return support_size_[i]; }

  /// The kernel's metrics registry: the per-step counters and timers
  /// behind VectorGossipResult (counters `gossip.messages_sent`,
  /// `gossip.messages_lost`, `gossip.triplets_sent`,
  /// `gossip.zero_components_skipped`; gauge `gossip.active_triplets`;
  /// histograms `gossip.send_phase_seconds`,
  /// `gossip.bookkeeping_phase_seconds` observed once per step). All
  /// telemetry is observational: results are bit-identical whether or not
  /// anything reads it.
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
  struct Schedule;  // sliding window of drawn steps (vector_gossip.cpp)

  // One lane's scratch, allocated at construction so lanes never allocate.
  struct Lane {
    std::vector<const double*> senders;  // 2n: sender rows of X, then of W
    std::vector<double> old_row;         // 2B: a row's old X, W; read-out sums
    std::unique_ptr<double[]> parked;    // n/2 rows of 2B: detached new rows
  };

  bool is_alive(NodeId v) const { return alive_.empty() || alive_[v] != 0; }
  bool adv_withholds(NodeId v) const {
    return !adv_withhold_.empty() && adv_withhold_[v] != 0;
  }
  template <class Fn>
  void for_chunks(std::size_t count, std::size_t num_chunks, Fn&& fn) const;
  void seed_streams(std::uint64_t base);
  /// Draws steps through t into the window (serial; any lane may call).
  void ensure_drawn(std::size_t t, const graph::Graph* overlay);
  void draw_step(std::size_t t, const graph::Graph* overlay);
  /// One round: every block runs from the frontier, at most `horizon`
  /// steps; with `until_stable` each block stops at its local stop, then
  /// the blocks catch up to the latest one. Returns the new frontier.
  std::size_t advance(const graph::Graph* overlay, std::size_t horizon,
                      bool until_stable);
  /// Runs block b from step `from` with `lane`'s scratch: to step `to`
  /// exactly, or, when until_stable, to its local stop within `to`.
  /// Returns the last step it ran.
  std::size_t run_block(std::size_t b, std::size_t lane, std::size_t from,
                        std::size_t to, bool until_stable,
                        const graph::Graph* overlay);
  /// Step t of block b, in place; returns the block's stability bit for
  /// the step.
  bool block_step(std::size_t b, std::size_t t, Lane& lane);
  /// Books step t after every block ran it: counters, supports and the
  /// stable-step counter.
  void commit_step(std::size_t t, VectorGossipResult& result);

  std::size_t block_begin(std::size_t b) const noexcept { return b * bw_; }
  std::size_t block_cols(std::size_t b) const noexcept {
    return std::min(bw_, n_ - b * bw_);
  }
  /// Offset of (row i, column j) in the block-major X and W.
  std::size_t at(NodeId i, NodeId j) const noexcept {
    const std::size_t b = j / bw_;
    return b * bw_ * n_ + i * block_cols(b) + (j - b * bw_);
  }

  std::size_t n_ = 0;
  PushSumConfig config_;
  std::unique_ptr<ThreadPool> pool_;  // null: one lane, serial
  std::size_t bw_ = 0;       // block width B
  std::size_t nblocks_ = 0;  // ceil(n / B)

  std::vector<std::uint8_t> alive_;     // empty = everyone participates
  std::vector<NodeId> alive_list_;      // cached ids of live peers
  std::vector<std::vector<std::uint32_t>> block_live_cols_;  // per block, when masked
  std::vector<double> adv_scale_;       // empty = no liars (see set_adversary)
  std::vector<std::uint8_t> adv_withhold_;  // empty = no withholders

  // Block-major state (64-byte aligned), updated in place.
  simd::aligned_vector<double> x_;
  simd::aligned_vector<double> w_;
  std::vector<Lane> lanes_;

  simd::SimdLevel simd_level_ = simd::SimdLevel::kScalar;  // resolved
  const simd::Kernels* kn_ = nullptr;  // kernel set for simd_level_
  std::size_t frontier_ = 0;      // steps every block has run since initialize
  std::size_t stable_steps_ = 0;  // consecutive steps with every live row stable

  // Supports: one bitmap row of `words_` u64 per node with cached sizes;
  // a committed step builds the grown rows in next_support_ and copies
  // them back. Full rows never change again.
  std::size_t words_ = 0;
  std::vector<std::uint64_t> support_, next_support_;
  std::vector<std::uint32_t> support_size_;
  std::size_t full_rows_ = 0;

  // Per-node deterministic RNG streams (seeded from the caller Rng on the
  // first step after initialize).
  std::vector<Rng> node_rng_;
  std::unique_ptr<Schedule> sched_;

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
};

}  // namespace gt::gossip
