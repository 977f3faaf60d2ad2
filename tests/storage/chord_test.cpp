#include "dht/chord.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"

namespace gt::dht {
namespace {

TEST(ChordRing, DistinctPositions) {
  const ChordRing ring(256, 1);
  std::set<Key> positions;
  for (NodeId v = 0; v < 256; ++v) positions.insert(ring.position(v));
  EXPECT_EQ(positions.size(), 256u);
}

TEST(ChordRing, SuccessorIsClockwiseOwner) {
  const ChordRing ring(64, 2);
  // The successor of a node's own position is that node.
  for (NodeId v = 0; v < 64; ++v) EXPECT_EQ(ring.successor(ring.position(v)), v);
}

TEST(ChordRing, SuccessorWrapsAroundZero) {
  const ChordRing ring(16, 3);
  // A key beyond the largest position wraps to the smallest-position node.
  Key max_pos = 0;
  NodeId min_node = 0;
  Key min_pos = ~Key{0};
  for (NodeId v = 0; v < 16; ++v) {
    max_pos = std::max(max_pos, ring.position(v));
    if (ring.position(v) < min_pos) {
      min_pos = ring.position(v);
      min_node = v;
    }
  }
  if (max_pos != ~Key{0}) {
    EXPECT_EQ(ring.successor(max_pos + 1), min_node);
  }
}

TEST(ChordRing, LookupFindsTrueOwnerFromEveryStart) {
  const ChordRing ring(128, 4);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const Key key = rng.next_u64();
    const NodeId owner = ring.successor(key);
    const NodeId start = rng.next_below(128);
    const auto res = ring.lookup(start, key);
    ASSERT_EQ(res.owner, owner) << "trial " << trial;
  }
}

TEST(ChordRing, LookupHopsLogarithmic) {
  Rng rng(6);
  for (const std::size_t n : {64u, 256u, 1024u}) {
    const ChordRing ring(n, 7);
    double total_hops = 0.0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
      const auto res = ring.lookup(rng.next_below(n), rng.next_u64());
      total_hops += static_cast<double>(res.hops);
    }
    const double mean_hops = total_hops / trials;
    // Chord theory: ~0.5 log2 n average; allow [0.2, 2] log2 n.
    const double log_n = std::log2(static_cast<double>(n));
    EXPECT_GT(mean_hops, 0.2 * log_n) << n;
    EXPECT_LT(mean_hops, 2.0 * log_n) << n;
  }
}

TEST(ChordRing, SelfLookupZeroHops) {
  const ChordRing ring(32, 8);
  for (NodeId v = 0; v < 32; ++v) {
    const auto res = ring.lookup(v, ring.position(v));
    EXPECT_EQ(res.owner, v);
    EXPECT_EQ(res.hops, 0u);
  }
}

TEST(ChordRing, FingerZeroIsImmediateSuccessor) {
  const ChordRing ring(64, 9);
  for (NodeId v = 0; v < 64; ++v) {
    const NodeId succ = ring.successor(ring.position(v) + 1);
    EXPECT_EQ(ring.finger(v, 0), succ);
  }
}

TEST(ChordRing, SingleNodeOwnsEverything) {
  const ChordRing ring(1, 10);
  Rng rng(11);
  for (int t = 0; t < 20; ++t) {
    const auto res = ring.lookup(0, rng.next_u64());
    EXPECT_EQ(res.owner, 0u);
    EXPECT_EQ(res.hops, 0u);
  }
}

TEST(ChordRing, RejectsEmpty) { EXPECT_THROW(ChordRing(0, 1), std::invalid_argument); }

TEST(HashKey, DeterministicSpread) {
  std::set<Key> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) keys.insert(hash_key(i));
  EXPECT_EQ(keys.size(), 1000u);
  EXPECT_EQ(hash_key(7), hash_key(7));
}

}  // namespace
}  // namespace gt::dht
