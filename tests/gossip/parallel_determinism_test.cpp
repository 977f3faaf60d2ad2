// The parallel kernel's defining contract: for a fixed seed, the gossip
// trajectory and every read-out are BIT-identical regardless of how many
// threads execute it. Chunk grids, per-node RNG streams, and
// ascending-sender gather order are all pure functions of the data, so
// num_threads may only change wall time — never a single ULP.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/engine.hpp"
#include "gossip/vector_gossip.hpp"
#include "graph/topology.hpp"
#include "trust/matrix.hpp"

namespace gt {
namespace {

/// Sparse pseudo-random trust matrix for any n >= 1 (row-normalized).
trust::SparseMatrix make_matrix(std::size_t n, std::uint64_t seed) {
  trust::SparseMatrix::Builder b(n);
  Rng rng(seed);
  for (gossip::NodeId i = 0; i < n; ++i) {
    const std::size_t degree = 1 + rng.next_below(std::min<std::size_t>(n, 8));
    for (std::size_t k = 0; k < degree; ++k)
      b.add(i, rng.next_below(n), rng.next_double(0.1, 1.0));
  }
  return std::move(b).build().row_normalized();
}

struct KernelRun {
  gossip::VectorGossipResult result;
  std::vector<double> means;
  std::vector<std::vector<double>> views;
};

KernelRun run_kernel(std::size_t n, std::size_t threads,
                     const trust::SparseMatrix& s,
                     const graph::Graph* overlay = nullptr,
                     const std::vector<std::uint8_t>* alive = nullptr,
                     double loss = 0.0) {
  gossip::PushSumConfig cfg;
  cfg.epsilon = 1e-5;
  cfg.max_steps = 2000;
  cfg.num_threads = threads;
  cfg.loss_probability = loss;
  cfg.neighbors_only = (overlay != nullptr);
  gossip::VectorGossip vg(n, cfg);
  if (alive != nullptr) vg.set_participants(*alive);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  vg.initialize(s, v);
  Rng rng(0xdecaf);
  KernelRun out;
  out.result = vg.run(rng, overlay);
  out.means = vg.consensus_means();
  if (n <= 128)
    for (gossip::NodeId i = 0; i < n; ++i) out.views.push_back(vg.node_view(i));
  return out;
}

void expect_identical(const KernelRun& a, const KernelRun& b) {
  EXPECT_EQ(a.result.steps, b.result.steps);
  EXPECT_EQ(a.result.converged, b.result.converged);
  EXPECT_EQ(a.result.messages_sent, b.result.messages_sent);
  EXPECT_EQ(a.result.messages_lost, b.result.messages_lost);
  EXPECT_EQ(a.result.triplets_sent, b.result.triplets_sent);
  EXPECT_EQ(a.result.active_triplets, b.result.active_triplets);
  EXPECT_EQ(a.result.zero_components_skipped, b.result.zero_components_skipped);
  ASSERT_EQ(a.means.size(), b.means.size());
  for (std::size_t j = 0; j < a.means.size(); ++j)
    EXPECT_EQ(a.means[j], b.means[j]) << "component " << j;  // bitwise
  ASSERT_EQ(a.views.size(), b.views.size());
  for (std::size_t i = 0; i < a.views.size(); ++i)
    EXPECT_EQ(a.views[i], b.views[i]) << "node " << i;
}

class KernelThreadInvariance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelThreadInvariance, FullRunBitIdenticalAcrossThreadCounts) {
  const std::size_t n = GetParam();
  const auto s = make_matrix(n, 17 + n);
  const auto serial = run_kernel(n, 1, s);
  expect_identical(serial, run_kernel(n, 2, s));
  expect_identical(serial, run_kernel(n, 8, s));
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelThreadInvariance,
                         ::testing::Values(1u, 2u, 64u, 500u));

TEST(KernelThreadInvariance, HoldsWithChurnMaskAndLoss) {
  // The masked-target, reservoir-sampled, and loss-coin RNG branches all
  // draw from the per-node streams too.
  const std::size_t n = 64;
  const auto s = make_matrix(n, 99);
  std::vector<std::uint8_t> alive(n, 1);
  for (gossip::NodeId i = 0; i < n; i += 5) alive[i] = 0;
  const auto serial = run_kernel(n, 1, s, nullptr, &alive, 0.05);
  expect_identical(serial, run_kernel(n, 2, s, nullptr, &alive, 0.05));
  expect_identical(serial, run_kernel(n, 8, s, nullptr, &alive, 0.05));
}

TEST(KernelThreadInvariance, HoldsOnOverlayRestrictedGossip) {
  const std::size_t n = 64;
  const auto s = make_matrix(n, 7);
  Rng trng(3);
  const auto g = graph::make_gnutella_like(n, trng);
  const auto serial = run_kernel(n, 1, s, &g);
  expect_identical(serial, run_kernel(n, 2, s, &g));
  expect_identical(serial, run_kernel(n, 8, s, &g));
}

TEST(EngineThreadInvariance, AggregationScoresBitIdentical) {
  // End-to-end: full GossipTrust aggregation (gossip + read-out +
  // normalization + power-node mix) across thread counts.
  for (const std::size_t n : {1u, 2u, 64u}) {
    const auto s = make_matrix(n, 23 + n);
    std::vector<core::AggregationResult> results;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      core::GossipTrustConfig cfg;
      cfg.max_cycles = 3;
      cfg.num_threads = threads;
      core::GossipTrustEngine engine(n, cfg);
      Rng rng(0xfeed);
      results.push_back(engine.run(s, rng));
    }
    for (std::size_t r = 1; r < results.size(); ++r) {
      EXPECT_EQ(results[0].converged, results[r].converged) << "n=" << n;
      EXPECT_EQ(results[0].num_cycles(), results[r].num_cycles()) << "n=" << n;
      ASSERT_EQ(results[0].scores.size(), results[r].scores.size());
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(results[0].scores[j], results[r].scores[j])
            << "n=" << n << " component " << j;  // bitwise
      EXPECT_EQ(results[0].power_nodes, results[r].power_nodes) << "n=" << n;
    }
  }
}

TEST(SparsityAccounting, SkipsStructuralZerosAndGrowsSupport) {
  // The kernel sweeps dense rows, but what a real node would send is still
  // sparse: supports follow the route schedule, so early steps hold far
  // fewer active triplets than n*n, a pushing node reports the structural
  // zeros it leaves off the wire as skipped, and its payload counts only
  // nonzero components. Shipping whole rows would move n*n triplets per n
  // messages.
  const std::size_t n = 200;
  const auto s = make_matrix(n, 5);
  gossip::PushSumConfig cfg;
  gossip::VectorGossip vg(n, cfg);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  vg.initialize(s, v);
  std::size_t initial_support = 0;
  for (gossip::NodeId i = 0; i < n; ++i)
    initial_support += vg.active_components(i);
  EXPECT_LT(initial_support, n * n / 4);  // genuinely sparse start

  Rng rng(1);
  gossip::VectorGossipResult res;
  vg.step(rng, nullptr, res);
  EXPECT_EQ(res.messages_sent, n);
  EXPECT_GT(res.zero_components_skipped, 0u);
  EXPECT_LT(res.triplets_sent, static_cast<std::uint64_t>(n) * n / 4);
  EXPECT_GE(res.active_triplets, static_cast<std::uint64_t>(initial_support));

  // Support only grows (set union), and the count matches the query API.
  std::size_t support_after = 0;
  for (gossip::NodeId i = 0; i < n; ++i)
    support_after += vg.active_components(i);
  EXPECT_EQ(support_after, res.active_triplets);
  EXPECT_GE(support_after, initial_support);
}

}  // namespace
}  // namespace gt
