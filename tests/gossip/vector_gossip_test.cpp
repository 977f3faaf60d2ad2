#include "gossip/vector_gossip.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/powerlaw.hpp"
#include "common/stats.hpp"
#include "graph/topology.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::gossip {
namespace {

/// Builds a normalized trust matrix from an honest workload of n peers.
trust::SparseMatrix make_matrix(std::size_t n, std::uint64_t seed) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(50, n - 1);
  cfg.d_avg = std::min(10.0, static_cast<double>(n) / 3.0);
  Rng rng(seed);
  const std::vector<double> quality(n, 0.9);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

PushSumConfig tight() {
  PushSumConfig cfg;
  cfg.epsilon = 1e-8;
  cfg.stable_rounds = 3;
  return cfg;
}

TEST(VectorGossip, PaperThreeNodeExample) {
  // Fig. 2 / Table 1: v = (1/2, 1/3, 1/6), s_12 = 0.2, s_22 = 0, s_32 = 0.6
  // (component 1 here). Its weighted scores start at x = (0.1, 0, 0.1) and
  // w = (0, 1, 0): only N2 holds a ratio, N1 and N3 read "infinity"
  // (undefined). Every node's ratio must converge to v_2(t+1) = 0.2.
  trust::SparseMatrix::Builder b(3);
  b.add(0, 1, 0.2);
  b.add(0, 0, 0.8);
  b.add(1, 0, 1.0);
  b.add(2, 1, 0.6);
  b.add(2, 0, 0.4);
  const auto s = std::move(b).build();
  const std::vector<double> v{0.5, 1.0 / 3.0, 1.0 / 6.0};
  PushSumConfig cfg;
  cfg.epsilon = 1e-9;
  cfg.stable_rounds = 3;
  cfg.max_steps = 10000;
  VectorGossip vg(3, cfg);
  vg.initialize(s, v);
  EXPECT_TRUE(std::isnan(vg.estimate(0, 1)));
  EXPECT_EQ(vg.estimate(1, 1), 0.0);
  EXPECT_TRUE(std::isnan(vg.estimate(2, 1)));
  EXPECT_NEAR(vg.column_x_mass(1), 0.2, 1e-15);
  EXPECT_EQ(vg.column_w_mass(1), 1.0);
  Rng rng(42);
  EXPECT_TRUE(vg.run(rng).converged);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(vg.estimate(i, 1), 0.2, 1e-6) << i;
}

TEST(VectorGossip, MatchesExactTransposeProduct) {
  const std::size_t n = 48;
  const auto s = make_matrix(n, 1);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  const auto exact = s.transpose_multiply(v);

  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  Rng rng(2);
  const auto res = vg.run(rng);
  EXPECT_TRUE(res.converged);
  for (NodeId i : {NodeId{0}, NodeId{n / 2}, NodeId{n - 1}}) {
    const auto view = vg.node_view(i);
    for (NodeId j = 0; j < n; ++j)
      EXPECT_NEAR(view[j], exact[j], 1e-5) << "node " << i << " comp " << j;
  }
}

TEST(VectorGossip, AllNodesAgreeAfterConvergence) {
  const std::size_t n = 40;
  const auto s = make_matrix(n, 3);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  Rng rng(4);
  EXPECT_TRUE(vg.run(rng).converged);
  for (NodeId a = 1; a < n; a += 7)
    EXPECT_LT(vg.max_view_disagreement(0, a), 1e-5);
}

TEST(VectorGossip, MassConservationInvariant) {
  const std::size_t n = 32;
  const auto s = make_matrix(n, 5);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  const auto exact = s.transpose_multiply(v);

  Rng rng(6);
  VectorGossipResult res;
  for (int step = 0; step < 15; ++step) {
    vg.step(rng, nullptr, res);
    for (NodeId j = 0; j < n; j += 5) {
      // Column x mass equals the exact component; w mass stays exactly 1.
      EXPECT_NEAR(vg.column_x_mass(j), exact[j], 1e-12);
      EXPECT_NEAR(vg.column_w_mass(j), 1.0, 1e-12);
    }
  }
}

TEST(VectorGossip, DanglingRowSpreadsUniformMass) {
  // 3 nodes; node 2 issued no feedback.
  trust::SparseMatrix::Builder b(3);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  const auto s = std::move(b).build().row_normalized();
  std::vector<double> v{1.0 / 3, 1.0 / 3, 1.0 / 3};

  VectorGossip vg(3, tight());
  vg.initialize(s, v);
  const auto exact = s.transpose_multiply(v);
  Rng rng(7);
  EXPECT_TRUE(vg.run(rng).converged);
  const auto view = vg.node_view(0);
  for (NodeId j = 0; j < 3; ++j) EXPECT_NEAR(view[j], exact[j], 1e-6);
}

TEST(VectorGossip, StepCountLogarithmicInN) {
  for (const std::size_t n : {32u, 128u}) {
    const auto s = make_matrix(n, 8);
    std::vector<double> v(n, 1.0 / static_cast<double>(n));
    PushSumConfig cfg;
    cfg.epsilon = 1e-4;
    cfg.stable_rounds = 2;
    VectorGossip vg(n, cfg);
    vg.initialize(s, v);
    Rng rng(9);
    const auto res = vg.run(rng);
    EXPECT_TRUE(res.converged);
    EXPECT_GE(res.steps, static_cast<std::size_t>(std::log2(n)));
    EXPECT_LE(res.steps, 14 * static_cast<std::size_t>(std::log2(n)));
  }
}

TEST(VectorGossip, TighterEpsilonNeedsMoreSteps) {
  const std::size_t n = 64;
  const auto s = make_matrix(n, 10);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  std::size_t steps_loose = 0, steps_tight = 0;
  for (const double eps : {1e-2, 1e-8}) {
    PushSumConfig cfg;
    cfg.epsilon = eps;
    cfg.stable_rounds = 2;
    VectorGossip vg(n, cfg);
    vg.initialize(s, v);
    Rng rng(11);
    const auto res = vg.run(rng);
    (eps == 1e-2 ? steps_loose : steps_tight) = res.steps;
  }
  EXPECT_GT(steps_tight, steps_loose);
}

TEST(VectorGossip, MessageAndTripletAccounting) {
  const std::size_t n = 16;
  const auto s = make_matrix(n, 12);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  Rng rng(13);
  VectorGossipResult res;
  vg.step(rng, nullptr, res);
  EXPECT_EQ(res.messages_sent, n);
  EXPECT_GT(res.triplets_sent, 0u);
  // A message can never carry more triplets than components.
  EXPECT_LE(res.triplets_sent, n * n);
}

TEST(VectorGossip, LossyGossipStaysNearTarget) {
  const std::size_t n = 64;
  const auto s = make_matrix(n, 14);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  const auto exact = s.transpose_multiply(v);
  PushSumConfig cfg = tight();
  cfg.loss_probability = 0.05;
  VectorGossip vg(n, cfg);
  vg.initialize(s, v);
  Rng rng(15);
  const auto res = vg.run(rng);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.messages_lost, 0u);
  const auto view = vg.node_view(0);
  // Relative ranking must survive; absolute values drift only slightly.
  EXPECT_LT(rms_relative_error(exact, view), 0.25);
}

TEST(VectorGossip, NeighborsOnlyGossipOnRing) {
  // Pushes go only to overlay neighbors: a ring with 16 shortcuts still
  // mixes every component to the exact product.
  const std::size_t n = 32;
  Rng trng(6);
  const auto ring = graph::make_ring_with_shortcuts(n, 16, trng);
  const auto s = make_matrix(n, 18);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  const auto exact = s.transpose_multiply(v);
  PushSumConfig cfg = tight();
  cfg.neighbors_only = true;
  VectorGossip vg(n, cfg);
  vg.initialize(s, v);
  Rng rng(6);
  const auto res = vg.run(rng, &ring);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.messages_sent, res.steps * n);
  for (NodeId i = 0; i < n; ++i)
    EXPECT_LT(linf_distance(exact, vg.node_view(i)), 1e-5) << "node " << i;

  // The overlay really restricts the targets: a sparse ring mixes more
  // slowly than pushes to any node.
  VectorGossip any(n, tight());
  any.initialize(s, v);
  Rng rng_any(6);
  const auto res_any = any.run(rng_any);
  EXPECT_GT(res.steps, res_any.steps);
}

TEST(VectorGossip, SingleNodeKeepsMassLocalAndConverges) {
  // A lone node has nobody to push to: both halves stay local, no message
  // is sent, and its (dangling, hence uniform) row reads back exactly.
  trust::SparseMatrix::Builder b(1);
  const auto s = std::move(b).build();
  const std::vector<double> v{2.0};
  const PushSumConfig cfg = tight();
  VectorGossip vg(1, cfg);
  vg.initialize(s, v);
  Rng rng(11);
  const auto res = vg.run(rng);
  EXPECT_TRUE(res.converged);
  // The first step after initialize() is unstable by definition.
  EXPECT_EQ(res.steps, cfg.stable_rounds + 1);
  EXPECT_EQ(res.messages_sent, 0u);
  EXPECT_EQ(res.messages_lost, 0u);
  EXPECT_DOUBLE_EQ(vg.estimate(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(vg.column_x_mass(0), 2.0);
  EXPECT_DOUBLE_EQ(vg.column_w_mass(0), 1.0);
}

TEST(VectorGossip, MaxStepsCapRespected) {
  PushSumConfig cfg;
  cfg.epsilon = 0.0;  // unreachable threshold given FP noise
  cfg.stable_rounds = 1000000;
  cfg.max_steps = 25;
  const std::size_t n = 8;
  const auto s = make_matrix(n, 19);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  VectorGossip vg(n, cfg);
  vg.initialize(s, v);
  Rng rng(10);
  const auto res = vg.run(rng);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.steps, 25u);
  EXPECT_EQ(res.messages_sent, 25u * n);
}

TEST(VectorGossip, EstimateUndefinedBeforeFirstStep) {
  const std::size_t n = 8;
  const auto s = make_matrix(n, 16);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  // Node 0 holds w only for component 0 at t=0.
  EXPECT_FALSE(std::isnan(vg.estimate(0, 0)));
  EXPECT_TRUE(std::isnan(vg.estimate(0, 1)));
}

TEST(VectorGossip, RejectsBadSizes) {
  EXPECT_THROW(VectorGossip(0, PushSumConfig{}), std::invalid_argument);
  VectorGossip vg(4, PushSumConfig{});
  const auto s = make_matrix(8, 17);
  std::vector<double> v(8, 0.125);
  EXPECT_THROW(vg.initialize(s, v), std::invalid_argument);
}

}  // namespace
}  // namespace gt::gossip
