#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <string>

#include "baseline/power_iteration.hpp"
#include "common/stats.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::core {
namespace {

trust::SparseMatrix workload_matrix(std::size_t n, std::uint64_t seed,
                                    std::size_t n_bad = 0) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(40, n - 1);
  cfg.d_avg = 10.0;
  Rng rng(seed);
  const auto quality = trust::draw_service_qualities(n, n_bad, rng);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

GossipTrustConfig test_config() {
  GossipTrustConfig cfg;
  cfg.delta = 1e-3;
  cfg.epsilon = 1e-5;
  cfg.alpha = 0.15;
  cfg.power_node_fraction = 0.05;
  return cfg;
}

TEST(GossipTrustEngine, ConvergesAndNormalized) {
  const std::size_t n = 64;
  const auto s = workload_matrix(n, 1);
  GossipTrustEngine engine(n, test_config());
  Rng rng(2);
  const auto res = engine.run(s, rng);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.num_cycles(), 1u);
  EXPECT_NEAR(sum(res.scores), 1.0, 1e-9);
  for (const auto v : res.scores) EXPECT_GE(v, 0.0);
}

TEST(GossipTrustEngine, MatchesExactPowerIteration) {
  const std::size_t n = 48;
  const auto s = workload_matrix(n, 3);
  auto cfg = test_config();
  cfg.delta = 1e-6;    // run cycles deep so residual cycle error is small
  cfg.epsilon = 1e-8;  // and gossip error is negligible
  GossipTrustEngine engine(n, cfg);
  Rng rng(4);
  const auto gossiped = engine.run(s, rng);
  const auto exact =
      baseline::power_iteration(s, cfg.alpha, cfg.power_node_fraction, 1e-12);
  EXPECT_TRUE(gossiped.converged);
  EXPECT_LT(rms_relative_error(exact.scores, gossiped.scores), 0.05);
  // Ranking agreement is what selection policies consume.
  EXPECT_GT(kendall_tau(exact.scores, gossiped.scores), 0.9);
}

TEST(GossipTrustEngine, GoodPeersOutscoreBadPeers) {
  // Rich feedback (few dangling raters) so reputation separates cleanly.
  const std::size_t n = 150;
  const std::size_t n_bad = 15;
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig fcfg;
  fcfg.n = n;
  fcfg.d_max = 60;
  fcfg.d_avg = 25.0;
  Rng wrng(5);
  const auto quality = trust::draw_service_qualities(n, n_bad, wrng);
  trust::generate_honest_feedback(ledger, quality, fcfg, wrng);
  const auto s = ledger.normalized_matrix();

  GossipTrustEngine engine(n, test_config());
  Rng rng(6);
  const auto res = engine.run(s, rng);
  double bad_mean = 0.0, good_mean = 0.0;
  for (std::size_t i = 0; i < n_bad; ++i) bad_mean += res.scores[i];
  for (std::size_t i = n_bad; i < n; ++i) good_mean += res.scores[i];
  bad_mean /= static_cast<double>(n_bad);
  good_mean /= static_cast<double>(n - n_bad);
  EXPECT_LT(bad_mean, good_mean * 0.6);
}

TEST(GossipTrustEngine, PowerNodesAreTopScorers) {
  const std::size_t n = 50;
  const auto s = workload_matrix(n, 7);
  GossipTrustEngine engine(n, test_config());
  Rng rng(8);
  const auto res = engine.run(s, rng);
  ASSERT_FALSE(res.power_nodes.empty());
  const auto expected = top_k_indices(res.scores, res.power_nodes.size());
  EXPECT_EQ(res.power_nodes, expected);
}

TEST(GossipTrustEngine, TighterDeltaMoreCycles) {
  const std::size_t n = 40;
  const auto s = workload_matrix(n, 9);
  std::size_t cycles_loose = 0, cycles_tight = 0;
  for (const double delta : {1e-2, 1e-5}) {
    auto cfg = test_config();
    cfg.delta = delta;
    GossipTrustEngine engine(n, cfg);
    Rng rng(10);
    const auto res = engine.run(s, rng);
    (delta == 1e-2 ? cycles_loose : cycles_tight) = res.num_cycles();
  }
  EXPECT_GT(cycles_tight, cycles_loose);
}

TEST(GossipTrustEngine, CycleStatsAccumulate) {
  const std::size_t n = 32;
  const auto s = workload_matrix(n, 11);
  GossipTrustEngine engine(n, test_config());
  Rng rng(12);
  const auto res = engine.run(s, rng);
  EXPECT_EQ(res.total_gossip_steps(),
            static_cast<std::size_t>(res.mean_gossip_steps_per_cycle() *
                                         static_cast<double>(res.num_cycles()) +
                                     0.5));
  EXPECT_GT(res.total_messages(), 0u);
  EXPECT_GT(res.total_triplets(), 0u);
  for (const auto& c : res.cycles) {
    EXPECT_TRUE(c.gossip_converged);
    EXPECT_EQ(c.messages_sent, c.gossip_steps * n);
  }
}

TEST(GossipTrustEngine, WarmStartConvergesFaster) {
  const std::size_t n = 40;
  const auto s = workload_matrix(n, 13);
  auto cfg = test_config();
  cfg.delta = 1e-4;
  GossipTrustEngine engine(n, cfg);
  Rng rng1(14);
  const auto cold = engine.run(s, rng1);
  Rng rng2(15);
  const auto warm = engine.run(s, rng2, nullptr, cold.scores);
  EXPECT_LE(warm.num_cycles(), cold.num_cycles());
}

TEST(GossipTrustEngine, KeepFinalViewsPopulates) {
  const std::size_t n = 24;
  const auto s = workload_matrix(n, 16);
  auto cfg = test_config();
  cfg.keep_final_views = true;
  GossipTrustEngine engine(n, cfg);
  Rng rng(17);
  const auto res = engine.run(s, rng);
  ASSERT_EQ(res.final_views.size(), n);
  for (const auto& view : res.final_views) EXPECT_EQ(view.size(), n);
}

TEST(GossipTrustEngine, RunCycleDrivableExternally) {
  const std::size_t n = 30;
  const auto s = workload_matrix(n, 18);
  GossipTrustEngine engine(n, test_config());
  auto v = engine.initial_scores();
  std::vector<NodeId> power;
  Rng rng(19);
  const auto stats1 = engine.run_cycle(s, v, power, rng);
  EXPECT_GT(stats1.gossip_steps, 0u);
  EXPECT_FALSE(power.empty());
  const auto stats2 = engine.run_cycle(s, v, power, rng);
  EXPECT_LT(stats2.change_from_previous, stats1.change_from_previous);
}

TEST(GossipTrustEngine, RejectsBadConfig) {
  GossipTrustConfig cfg;
  cfg.alpha = 2.0;
  EXPECT_THROW(GossipTrustEngine(10, cfg), std::invalid_argument);
  cfg = GossipTrustConfig{};
  cfg.delta = 0.0;
  EXPECT_THROW(GossipTrustEngine(10, cfg), std::invalid_argument);
  EXPECT_THROW(GossipTrustEngine(0, GossipTrustConfig{}), std::invalid_argument);
}

TEST(GossipTrustEngine, DegradedCycleRetainsPreviousVector) {
  // One gossip step can never reach epsilon-stability, so every cycle is
  // degraded: the engine must keep the previous vector, flag the cycle,
  // and refuse to call the (zero-change) run converged.
  const std::size_t n = 24;
  const auto s = workload_matrix(n, 20);
  auto cfg = test_config();
  cfg.max_gossip_steps = 1;
  cfg.max_cycles = 3;
  GossipTrustEngine engine(n, cfg);

  auto v = engine.initial_scores();
  const auto v_before = v;
  std::vector<NodeId> power;
  Rng rng(21);
  const auto stats = engine.run_cycle(s, v, power, rng);
  EXPECT_FALSE(stats.gossip_converged);
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(v, v_before);       // previous cycle's vector retained
  EXPECT_TRUE(power.empty());   // no power nodes selected from a bad cycle

  Rng rng2(22);
  const auto res = engine.run(s, rng2);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.num_cycles(), cfg.max_cycles);
  EXPECT_EQ(res.degraded_cycles(), cfg.max_cycles);
}

TEST(GossipTrustEngine, HealthyCyclesAreNotDegraded) {
  const std::size_t n = 32;
  const auto s = workload_matrix(n, 25);
  GossipTrustEngine engine(n, test_config());
  Rng rng(26);
  const auto res = engine.run(s, rng);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.degraded_cycles(), 0u);
  for (const auto& c : res.cycles) EXPECT_FALSE(c.degraded);
}

// One engine keeps one gossip kernel for its lifetime. Whatever a cycle
// sets on it — a participants mask, gossip adversaries, an event log, a
// trace sink — must not leak into the next cycle: each cycle of a long-
// lived engine must equal, bit for bit, the same cycle run on a fresh
// engine, down to the RNG state it leaves behind.
TEST(GossipTrustEngine, ReusedKernelCarriesNothingBetweenCycles) {
  const std::size_t n = 40;
  const auto s = workload_matrix(n, 27, 4);
  auto cfg = test_config();
  cfg.num_threads = 2;
  cfg.loss_probability = 0.02;
  cfg.max_gossip_steps = 400;  // bounds the attacked (never stable) cycle

  std::vector<std::uint8_t> some_dead(n, 1), more_dead(n, 1);
  for (NodeId i = 0; i < n; i += 6) some_dead[i] = more_dead[i] = 0;
  for (NodeId i = 1; i < n; i += 5) more_dead[i] = 0;
  std::vector<double> scale(n, 1.0);
  std::vector<std::uint8_t> withhold(n, 0);
  scale[2] = 1.5;
  withhold[7] = 1;

  struct Plan {
    const std::vector<std::uint8_t>* alive;
    bool adversary;
    bool sinks;
  };
  const Plan plans[] = {
      {nullptr, false, false},     {&some_dead, false, false},
      {&more_dead, false, false},  {nullptr, false, false},
      {nullptr, true, false},      {nullptr, false, false},
      {&some_dead, false, true},   {nullptr, false, false},
  };

  const std::string tmp = testing::TempDir() + "gt_engine_reuse_";
  struct Sinks {
    telemetry::EventLog log;
    trace::TraceSink trace;
    explicit Sinks(const std::string& stem)
        : log(telemetry::EventLogConfig{stem + ".jsonl"}),
          trace(trace::TraceConfig{stem + ".gttrace"}) {}
  };
  auto configure = [&](GossipTrustEngine& e, const Plan& p, Sinks& sk) {
    e.set_gossip_adversary(p.adversary ? std::span<const double>(scale)
                                       : std::span<const double>(),
                           p.adversary ? std::span<const std::uint8_t>(withhold)
                                       : std::span<const std::uint8_t>());
    e.set_event_log(p.sinks ? &sk.log : nullptr, p.sinks ? 3 : 0);
    e.set_trace(p.sinks ? &sk.trace : nullptr);
  };

  std::vector<CycleStats> reused_stats;
  {
    Sinks reused_sinks(tmp + "reused"), fresh_sinks(tmp + "fresh");
    GossipTrustEngine reused(n, cfg);
    auto v_reused = reused.initial_scores();
    auto v_fresh = v_reused;
    std::vector<NodeId> power_reused, power_fresh;
    Rng rng_reused(28), rng_fresh(28);
    for (std::size_t k = 0; k < std::size(plans); ++k) {
      SCOPED_TRACE("cycle " + std::to_string(k));
      const Plan& p = plans[k];
      configure(reused, p, reused_sinks);
      const CycleStats a = reused.run_cycle(s, v_reused, power_reused,
                                            rng_reused, nullptr, nullptr,
                                            p.alive);
      GossipTrustEngine fresh(n, cfg);
      configure(fresh, p, fresh_sinks);
      const CycleStats b = fresh.run_cycle(s, v_fresh, power_fresh, rng_fresh,
                                           nullptr, nullptr, p.alive);
      reused_stats.push_back(a);

      EXPECT_EQ(a.gossip_steps, b.gossip_steps);
      EXPECT_EQ(a.gossip_converged, b.gossip_converged);
      EXPECT_EQ(a.degraded, b.degraded);
      EXPECT_EQ(a.messages_sent, b.messages_sent);
      EXPECT_EQ(a.messages_lost, b.messages_lost);
      EXPECT_EQ(a.triplets_sent, b.triplets_sent);
      EXPECT_EQ(a.active_triplets, b.active_triplets);
      EXPECT_EQ(a.zero_components_skipped, b.zero_components_skipped);
      EXPECT_EQ(std::memcmp(&a.change_from_previous, &b.change_from_previous,
                            sizeof(double)),
                0);
      ASSERT_EQ(v_reused.size(), v_fresh.size());
      EXPECT_EQ(std::memcmp(v_reused.data(), v_fresh.data(),
                            n * sizeof(double)),
                0);
      EXPECT_EQ(power_reused, power_fresh);
      Rng next_reused = rng_reused, next_fresh = rng_fresh;
      EXPECT_EQ(next_reused.next_u64(), next_fresh.next_u64());
    }
    EXPECT_GT(reused_sinks.trace.records_emitted(), 0u);
  }
  for (const char* tag : {"reused", "fresh"}) {
    std::remove((tmp + tag + ".jsonl").c_str());
    std::remove((tmp + tag + ".gttrace").c_str());
  }
  // The plan really changed the inputs: masked cycles sent fewer than one
  // message per node and step, and the attacked cycle never stabilised.
  ASSERT_EQ(reused_stats.size(), std::size(plans));
  EXPECT_LT(reused_stats[2].messages_sent, reused_stats[2].gossip_steps * n);
  EXPECT_TRUE(reused_stats[4].degraded);
  EXPECT_FALSE(reused_stats[5].degraded);
}

TEST(GossipTrustEngine, InitialScoresUniform) {
  GossipTrustEngine engine(8, test_config());
  const auto v = engine.initial_scores();
  for (const auto x : v) EXPECT_DOUBLE_EQ(x, 0.125);
}

}  // namespace
}  // namespace gt::core
