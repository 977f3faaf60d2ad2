// Bit-identity gate for the event-core fast path.
//
// The zero-allocation scheduler, pooled network messages, and batched
// gossip delivery are pure mechanical optimisations: same seed must mean
// the same results, bit for bit. These goldens were captured on the tree
// immediately *before* the fast path landed (the std::function scheduler +
// std::priority_queue + shared_ptr payload implementation), so they pin
// the refactored code to the legacy behaviour:
//   * fig3-style engine aggregation at n in {64, 512}, threads in {1, 8}
//     — final reputation vector and every deterministic field of the
//     per-cycle telemetry records;
//   * asynchronous gossip over Scheduler + Network with every fault knob
//     drawing randomness (loss, jitter, duplication, corruption), legacy
//     fire-and-forget and ack/retransmit reliability modes — final
//     estimates, protocol counters, and traffic counters.
// The engine scenario goldens (participant masks, message loss, gossip
// adversaries, stable_rounds 0/1/3, n = 1..3) were captured on the kernel
// that still tracked convergence in a separate prev-ratio sweep, so they
// pin the one-sweep gossip step to it.
// Any change to RNG draw order, event ordering, or floating-point
// accumulation order shows up here as a hash mismatch.
//
// To re-capture after an *intentional* behaviour change, run with
// GT_PRINT_GOLDEN=1 and paste the printed constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "gossip/async_gossip.hpp"
#include "gossip/sharded_gossip.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "simd/simd.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"
#include "trust/matrix.hpp"

namespace gt {
namespace {

/// FNV-1a over raw bytes: doubles hash by bit pattern, so two runs agree
/// only when every value is binary-identical.
class Fnv {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < len; ++k) {
      h_ ^= p[k];
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

trust::SparseMatrix gate_matrix(std::size_t n, std::uint64_t seed) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(200, n / 2);
  cfg.d_avg = std::min(20.0, static_cast<double>(n) / 4.0);
  Rng rng(seed);
  const std::vector<double> quality(n, 0.9);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

/// Every deterministic CycleStats field (wall-clock phase timings are
/// excluded — they are not part of the bit-identity contract).
void hash_cycle(Fnv& h, const core::CycleStats& c) {
  h.u64(c.gossip_steps);
  h.u64(c.gossip_converged ? 1 : 0);
  h.u64(c.degraded ? 1 : 0);
  h.u64(c.messages_sent);
  h.u64(c.messages_lost);
  h.u64(c.triplets_sent);
  h.u64(c.active_triplets);
  h.u64(c.zero_components_skipped);
  h.f64(c.change_from_previous);
}

/// Fig3-style aggregation: the engine drives vector gossip to
/// epsilon-stability for a few cycles; the hash covers the final scores
/// plus every deterministic per-cycle record field (wall-clock phase
/// timings are excluded — they are not part of the bit-identity contract).
std::uint64_t engine_hash(std::size_t n, std::size_t threads,
                          simd::SimdLevel simd = simd::SimdLevel::kAuto) {
  const auto s = gate_matrix(n, 42);
  core::GossipTrustConfig cfg;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = 2;
  cfg.max_cycles = 3;
  cfg.num_threads = threads;
  cfg.simd_level = simd;
  core::GossipTrustEngine engine(n, cfg);
  Rng rng(0xf16f3 + n);
  const auto res = engine.run(s, rng);

  Fnv h;
  for (const double v : res.scores) h.f64(v);
  h.u64(res.converged ? 1 : 0);
  for (const auto& c : res.cycles) hash_cycle(h, c);
  return h.value();
}

/// The VectorGossip paths the fig3 goldens above never reach: a
/// participants mask with dead nodes (with and without overlay-restricted
/// targets), message loss, gossip-layer adversaries, every small
/// stable_rounds, and degenerate network sizes. One run hashes the final
/// scores, the power nodes and every deterministic per-cycle field.
struct GateScenario {
  std::size_t n = 64;
  std::size_t stable_rounds = 2;
  double loss = 0.0;
  bool adversary = false;  ///< x-scale liars plus share withholders
  bool churn = false;      ///< run_cycle under a shrinking alive mask
  bool overlay = false;    ///< neighbors_only over an ER overlay
};

/// Small hand-written operators for n <= 3: n = 1 dangles (uniform row),
/// n = 2 is a mutual pair, n = 3 mixes a two-entry row, a one-entry row and
/// a dangling row.
trust::SparseMatrix tiny_matrix(std::size_t n) {
  trust::FeedbackLedger ledger(n);
  if (n == 2) {
    ledger.record(0, 1, 1.0);
    ledger.record(1, 0, 1.0);
  } else if (n == 3) {
    ledger.record(0, 1, 1.0);
    ledger.record(0, 2, 0.5);
    ledger.record(1, 2, 1.0);
  }
  return ledger.normalized_matrix();
}

std::uint64_t scenario_hash(const GateScenario& sc, std::size_t threads,
                            simd::SimdLevel simd) {
  const std::size_t n = sc.n;
  const auto s = n <= 3 ? tiny_matrix(n) : gate_matrix(n, 4242);
  core::GossipTrustConfig cfg;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = sc.stable_rounds;
  cfg.loss_probability = sc.loss;
  cfg.neighbors_only = sc.overlay;
  cfg.max_cycles = 3;
  // Minted x mass keeps an attacked run from ever stabilising: the cap
  // bounds it (and covers the degraded-cycle path).
  cfg.max_gossip_steps = 300;
  cfg.num_threads = threads;
  cfg.simd_level = simd;
  core::GossipTrustEngine engine(n, cfg);
  if (sc.adversary) {
    std::vector<double> scale(n, 1.0);
    std::vector<std::uint8_t> withhold(n, 0);
    scale[3] = 1.5;   // self-promoter
    scale[10] = 0.5;  // self-slanderer
    withhold[5] = 1;
    withhold[10] = 1;  // a withholder that also lies
    withhold[20] = 1;
    engine.set_gossip_adversary(scale, withhold);
  }
  graph::Graph g(n);
  if (sc.overlay) {
    Rng grng(0x0fe7 + n);
    g = graph::make_erdos_renyi(n, n * 3, grng);
    graph::make_connected(g, grng);
  }
  Rng rng(0x5ce7a + n);

  Fnv h;
  if (sc.churn) {
    // Three masked cycles, the mask shrinking before the third, then one
    // cycle with everyone back.
    std::vector<double> v = engine.initial_scores();
    std::vector<core::NodeId> power;
    std::vector<std::uint8_t> alive(n, 1);
    for (std::size_t i = 0; i < n; i += 5) alive[i] = 0;
    for (int c = 0; c < 4; ++c) {
      if (c == 2)
        for (std::size_t i = 1; i < n; i += 7) alive[i] = 0;
      hash_cycle(h, engine.run_cycle(s, v, power, rng, &g,
                                     c == 3 ? nullptr : &alive));
    }
    for (const double x : v) h.f64(x);
    for (const auto p : power) h.u64(p);
    return h.value();
  }
  const auto res = engine.run(s, rng, &g);
  for (const double v : res.scores) h.f64(v);
  for (const auto p : res.power_nodes) h.u64(p);
  h.u64(res.converged ? 1 : 0);
  for (const auto& c : res.cycles) hash_cycle(h, c);
  return h.value();
}

/// Asynchronous gossip with every network fault knob active, so the RNG
/// stream covers loss, corruption, duplication, and jitter draws, and the
/// event order covers duplicate-before-primary scheduling.
std::uint64_t async_hash(bool acks) {
  const std::size_t n = 48;
  sim::Scheduler sched;
  net::NetworkConfig ncfg;
  ncfg.base_latency = 1.0;
  ncfg.jitter = 0.5;
  ncfg.loss_probability = 0.05;
  ncfg.duplicate_probability = 0.02;
  ncfg.corrupt_probability = 0.01;
  net::Network network(sched, n, ncfg, Rng(7));

  gossip::PushSumConfig pcfg;
  pcfg.epsilon = 1e-3;
  pcfg.stable_rounds = 3;
  gossip::AsyncGossip::Timing timing;
  timing.period = 1.0;
  timing.timeout = 400.0;
  gossip::AsyncGossip::Reliability rel;
  if (acks) {
    rel.acks = true;
    rel.ack_timeout = 4.0;
  }
  gossip::AsyncGossip gossip(sched, network, pcfg, timing, rel);

  const auto s = gate_matrix(n, 1234);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  gossip.initialize(s, v);
  Rng rng(99);
  const auto res = gossip.run(rng);
  sched.run_until();  // drain in-flight deliveries and retry timers

  Fnv h;
  for (net::NodeId i = 0; i < n; ++i)
    for (net::NodeId j = 0; j < n; ++j) h.f64(gossip.estimate(i, j));
  const auto& st = gossip.stats();
  h.u64(st.send_events);
  h.u64(st.messages_sent);
  h.u64(st.messages_dropped);
  h.u64(st.acks_sent);
  h.u64(st.acks_dropped);
  h.u64(st.retransmits);
  h.u64(st.duplicates_ignored);
  h.u64(st.mass_reclaims);
  h.u64(st.suspicions);
  h.f64(res.sim_time);
  const auto& ts = network.stats();
  h.u64(ts.messages_sent);
  h.u64(ts.messages_delivered);
  h.u64(ts.messages_dropped);
  h.u64(ts.messages_corrupted);
  h.u64(ts.messages_duplicated);
  h.u64(ts.duplicates_delivered);
  h.u64(ts.bytes_sent);
  h.u64(ts.bytes_delivered);
  h.u64(ts.bytes_dropped);
  return h.value();
}

/// Sharded million-node path at gate scale: the hash covers every final
/// per-slot estimate plus the full counter block, run once as the
/// single-queue oracle (shards = 1) and once sharded on 8 threads. Both
/// must match each other AND the pinned golden — the golden catches a
/// determinism regression that breaks both paths identically.
std::uint64_t sharded_hash(std::size_t n, std::size_t shards,
                           std::size_t threads,
                           simd::SimdLevel simd = simd::SimdLevel::kAuto) {
  Rng grng(0x5eed + n);
  graph::Graph g = graph::make_erdos_renyi(n, n * 3, grng);
  graph::make_connected(g, grng);
  const graph::CsrView csr(g);

  gossip::ShardedGossipConfig cfg;
  cfg.components = 4;
  cfg.period = 1.0;
  cfg.base_latency = 0.25;
  cfg.jitter = 0.1;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = 3;
  cfg.horizon = 400.0;
  cfg.seed = 42;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.sample_every = 8;
  cfg.simd_level = simd;
  gossip::ShardedGossip eng(csr, cfg);
  eng.initialize_fig3(7);
  const auto res = eng.run();

  Fnv h;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < cfg.components; ++c) h.f64(eng.estimate(i, c));
  h.f64(res.sim_time);
  h.u64(res.converged ? 1 : 0);
  h.u64(res.events);
  h.u64(res.windows);
  h.u64(res.pushes);
  h.u64(res.deliveries);
  h.u64(res.sends);
  h.u64(res.wire_bytes);
  for (const auto& [t, err] : res.error_curve) {
    h.f64(t);
    h.f64(err);
  }
  return h.value();
}

bool print_golden() { return std::getenv("GT_PRINT_GOLDEN") != nullptr; }

void check(const char* label, std::uint64_t got, std::uint64_t want) {
  if (print_golden()) {
    std::printf("GOLDEN %s = 0x%016llxULL\n", label,
                static_cast<unsigned long long>(got));
    return;
  }
  EXPECT_EQ(got, want) << label;
}

/// One golden, checked at threads {1, 8} x {forced scalar, detected level}.
void check_scenario(const char* label, const GateScenario& sc,
                    std::uint64_t want) {
  for (const std::size_t threads : {1, 8}) {
    for (const simd::SimdLevel level :
         {simd::SimdLevel::kScalar, simd::detect_level()}) {
      const std::string tag = std::string(label) + "_t" +
                              std::to_string(threads) + "_" +
                              simd::level_name(level);
      check(tag.c_str(), scenario_hash(sc, threads, level), want);
    }
  }
}

TEST(BitIdentityGate, EngineFig3StyleN64) {
  const std::uint64_t h1 = engine_hash(64, 1);
  const std::uint64_t h8 = engine_hash(64, 8);
  check("engine_n64_t1", h1, 0x17cc5f44ae2c0bf4ULL);
  check("engine_n64_t8", h8, 0x17cc5f44ae2c0bf4ULL);
  // Thread invariance is part of the same contract: lane count must not
  // perturb a single bit.
  EXPECT_EQ(h1, h8);
}

TEST(BitIdentityGate, EngineFig3StyleN512) {
  const std::uint64_t h1 = engine_hash(512, 1);
  const std::uint64_t h8 = engine_hash(512, 8);
  check("engine_n512_t1", h1, 0xe02602e374f9bf07ULL);
  check("engine_n512_t8", h8, 0xe02602e374f9bf07ULL);
  EXPECT_EQ(h1, h8);
}

TEST(BitIdentityGate, AsyncGossipFireAndForget) {
  check("async_legacy", async_hash(/*acks=*/false), 0xf520b13e53da5f38ULL);
}

TEST(BitIdentityGate, AsyncGossipReliable) {
  check("async_acks", async_hash(/*acks=*/true), 0xba25d94f580b34ccULL);
}

TEST(BitIdentityGate, ShardedGossipN64) {
  const std::uint64_t oracle = sharded_hash(64, /*shards=*/1, /*threads=*/1);
  const std::uint64_t sharded = sharded_hash(64, /*shards=*/0, /*threads=*/8);
  check("sharded_n64_oracle", oracle, 0x92aadb162daee980ULL);
  EXPECT_EQ(oracle, sharded);
}

TEST(BitIdentityGate, ShardedGossipN512) {
  const std::uint64_t oracle = sharded_hash(512, /*shards=*/1, /*threads=*/1);
  const std::uint64_t sharded = sharded_hash(512, /*shards=*/0, /*threads=*/8);
  check("sharded_n512_oracle", oracle, 0x0ae8bf223fb6e301ULL);
  EXPECT_EQ(oracle, sharded);
}

// The SIMD kernels are elementwise transcriptions of the scalar oracle, so
// the *same* goldens must hold at every level — no recapture. Forced
// kScalar proves the fallback path is still the legacy behaviour (this is
// what the CI GT_SIMD=off leg runs); the detected vector level proves the
// intrinsics change nothing. On scalar-only hosts the second half is a
// no-op repeat, which is fine: the contract is "every resolvable level".
TEST(BitIdentityGate, EngineSimdLevelsMatchGolden) {
  check("engine_n64_scalar", engine_hash(64, 8, simd::SimdLevel::kScalar),
        0x17cc5f44ae2c0bf4ULL);
  check("engine_n64_vector", engine_hash(64, 8, simd::detect_level()),
        0x17cc5f44ae2c0bf4ULL);
  check("engine_n512_scalar", engine_hash(512, 8, simd::SimdLevel::kScalar),
        0xe02602e374f9bf07ULL);
  check("engine_n512_vector", engine_hash(512, 8, simd::detect_level()),
        0xe02602e374f9bf07ULL);
}

TEST(BitIdentityGate, EngineChurnMask) {
  GateScenario sc;
  sc.churn = true;
  check_scenario("churn_n64", sc, 0x73098068377c80bbULL);
  sc.overlay = true;
  check_scenario("churn_overlay_n64", sc, 0x9bb6467b71cef1f4ULL);
}

TEST(BitIdentityGate, EngineMessageLoss) {
  GateScenario sc;
  sc.loss = 0.05;
  check_scenario("loss_n64", sc, 0xf7371853f9b661e6ULL);
}

TEST(BitIdentityGate, EngineGossipAdversaries) {
  GateScenario sc;
  sc.adversary = true;
  check_scenario("adversary_n64", sc, 0x14b1fe63199712a1ULL);
}

TEST(BitIdentityGate, EngineStableRounds) {
  GateScenario sc;
  sc.stable_rounds = 0;
  check_scenario("stable0_n64", sc, 0x5e4d229d4bd09d11ULL);
  sc.stable_rounds = 1;
  check_scenario("stable1_n64", sc, 0x26f1b0204769cd95ULL);
  sc.stable_rounds = 3;
  check_scenario("stable3_n64", sc, 0x045c6b3ec92c7933ULL);
}

TEST(BitIdentityGate, EngineTinyNetworks) {
  GateScenario sc;
  sc.n = 1;
  check_scenario("tiny_n1", sc, 0xc41b3682080f45baULL);
  sc.n = 2;
  check_scenario("tiny_n2", sc, 0x377d97a7627a6a48ULL);
  sc.n = 3;
  check_scenario("tiny_n3", sc, 0x4058068ab50d0232ULL);
}

// The same scenarios at n = 300, where the column-blocked kernel's derived
// block width splits the state into several blocks on any L2 of 2 MiB or
// less (n = 64 is one block on every host). Captured on the row-major
// kernel, so they pin the blocked kernel's cross-block schedule, stop rule
// and counters to it.
TEST(BitIdentityGate, EngineScenariosN300) {
  GateScenario sc;
  sc.n = 300;
  sc.churn = true;
  check_scenario("churn_n300", sc, 0x9a60efb59de34f6dULL);
  sc.overlay = true;
  check_scenario("churn_overlay_n300", sc, 0x76317a40124c57a8ULL);
  sc = GateScenario{};
  sc.n = 300;
  sc.loss = 0.05;
  check_scenario("loss_n300", sc, 0x403b46bd995fdb2aULL);
  sc = GateScenario{};
  sc.n = 300;
  sc.adversary = true;
  check_scenario("adversary_n300", sc, 0x1d35d46e10fa1af9ULL);
  sc = GateScenario{};
  sc.n = 300;
  sc.stable_rounds = 0;
  check_scenario("stable0_n300", sc, 0xbbb6c0e53f6f587eULL);
  sc.stable_rounds = 1;
  check_scenario("stable1_n300", sc, 0xc476bd33a3a7af8aULL);
  sc.stable_rounds = 3;
  check_scenario("stable3_n300", sc, 0x3a6b8c41660b90f0ULL);
}

TEST(BitIdentityGate, ShardedSimdLevelsMatchGolden) {
  check("sharded_n64_scalar",
        sharded_hash(64, 1, 1, simd::SimdLevel::kScalar),
        0x92aadb162daee980ULL);
  check("sharded_n64_vector", sharded_hash(64, 1, 1, simd::detect_level()),
        0x92aadb162daee980ULL);
  check("sharded_n512_scalar",
        sharded_hash(512, 0, 8, simd::SimdLevel::kScalar),
        0x0ae8bf223fb6e301ULL);
  check("sharded_n512_vector", sharded_hash(512, 0, 8, simd::detect_level()),
        0x0ae8bf223fb6e301ULL);
}

}  // namespace
}  // namespace gt
