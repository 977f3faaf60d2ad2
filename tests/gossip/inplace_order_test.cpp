// The in-place write order of a gossip step (inplace_order) on routes that
// random draws rarely produce: every node in a 2-cycle, one n-cycle, a
// star, every push lost, every node idle, a masked subset, a ring, and
// n = 1, 2, 3. Each order must be a permutation whose non-detached nodes
// follow their targets, with one detached node per cycle; applying
// gather_row in place along it, with the detached rows' new values parked
// until the end, must match a two-buffer step bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gossip/vector_gossip.hpp"
#include "simd/kernels.hpp"

namespace gt::gossip {
namespace {

enum class Push : std::uint8_t { kIdle, kDelivered, kLost };

struct Route {
  std::string name;
  std::vector<Push> push;
  std::vector<std::uint32_t> target;  // kNoTarget unless delivered
};

Route make_route(std::string name, std::size_t n) {
  return Route{std::move(name), std::vector<Push>(n, Push::kIdle),
               std::vector<std::uint32_t>(n, kNoTarget)};
}

void deliver(Route& route, std::size_t from, std::size_t to) {
  route.push[from] = Push::kDelivered;
  route.target[from] = static_cast<std::uint32_t>(to);
}

std::vector<Route> routes() {
  constexpr std::size_t n = 24;
  std::vector<Route> out;
  Route pairs = make_route("two_cycles", n);
  for (std::size_t i = 0; i < n; i += 2) {
    deliver(pairs, i, i + 1);
    deliver(pairs, i + 1, i);
  }
  out.push_back(pairs);
  Route ring_cycle = make_route("n_cycle", n);
  for (std::size_t i = 0; i < n; ++i) deliver(ring_cycle, i, (i + 1) % n);
  out.push_back(ring_cycle);
  Route star = make_route("star", n);
  for (std::size_t i = 1; i < n; ++i) deliver(star, i, 0);
  deliver(star, 0, 1);
  out.push_back(star);
  Route lost = make_route("all_lost", n);
  std::fill(lost.push.begin(), lost.push.end(), Push::kLost);
  out.push_back(lost);
  out.push_back(make_route("all_idle", n));
  Rng rng(0x0d3e);
  Route masked = make_route("masked", n);
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < n; ++i)
    if (i % 3 != 1) live.push_back(i);
  for (const std::size_t i : live) {
    std::size_t to = i;
    while (to == i) to = live[rng.next_below(live.size())];
    if (rng.next_below(8) == 0) {
      masked.push[i] = Push::kLost;
    } else {
      deliver(masked, i, to);
    }
  }
  out.push_back(masked);
  Route ring = make_route("neighbor_ring", n);
  for (std::size_t i = 0; i < n; ++i)
    deliver(ring, i, rng.next_below(2) ? (i + 1) % n : (i + n - 1) % n);
  out.push_back(ring);
  for (const std::size_t small : {1, 2, 3}) {
    std::string name = "n";
    name += std::to_string(small);
    Route r = make_route(std::move(name), small);
    for (std::size_t i = 0; i < small && small > 1; ++i) {
      std::size_t to = rng.next_below(small - 1);
      if (to >= i) ++to;
      deliver(r, i, to);
    }
    out.push_back(r);
  }
  for (int k = 0; k < 20; ++k) {
    const std::size_t size = 2 + rng.next_below(60);
    std::string name = "random";
    name += std::to_string(k);
    Route r = make_route(std::move(name), size);
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint64_t coin = rng.next_below(10);
      if (coin == 0) continue;  // idle
      if (coin == 1) {
        r.push[i] = Push::kLost;
        continue;
      }
      std::size_t to = rng.next_below(size - 1);
      if (to >= i) ++to;
      deliver(r, i, to);
    }
    out.push_back(r);
  }
  return out;
}

struct Buckets {
  std::vector<std::uint32_t> off, senders;
};

/// Delivered senders grouped by receiver, ascending within each bucket.
Buckets buckets_of(const Route& route) {
  const std::size_t n = route.target.size();
  Buckets b{std::vector<std::uint32_t>(n + 1, 0), {}};
  for (std::size_t i = 0; i < n; ++i)
    if (route.target[i] != kNoTarget) ++b.off[route.target[i] + 1];
  for (std::size_t k = 1; k <= n; ++k) b.off[k] += b.off[k - 1];
  b.senders.resize(b.off[n]);
  std::vector<std::uint32_t> cursor(b.off.begin(), b.off.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    if (route.target[i] != kNoTarget)
      b.senders[cursor[route.target[i]]++] = static_cast<std::uint32_t>(i);
  return b;
}

/// The smallest node on the cycle that node v's target path ends in, or
/// kNoTarget when the path ends at a node that pushed nowhere.
std::uint32_t cycle_of(const Route& route, std::uint32_t v) {
  const std::size_t n = route.target.size();
  for (std::size_t k = 0; k < n; ++k) {
    if (route.target[v] == kNoTarget) return kNoTarget;
    v = route.target[v];
  }
  std::uint32_t low = v;
  for (std::uint32_t u = route.target[v]; u != v; u = route.target[u])
    low = std::min(low, u);
  return low;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(InplaceOrder, PermutationTargetsFirstOneDetachedPerCycle) {
  for (const Route& route : routes()) {
    SCOPED_TRACE(route.name);
    const std::size_t n = route.target.size();
    const Buckets b = buckets_of(route);
    std::vector<std::uint32_t> order(n);
    std::vector<std::uint8_t> mark(n);
    const std::size_t m = inplace_order(route.target, b.off, b.senders, order, mark);

    std::vector<std::size_t> pos(n, n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_LT(order[k], n);
      ASSERT_EQ(pos[order[k]], n) << "node " << order[k] << " listed twice";
      pos[order[k]] = k;
    }
    for (std::size_t k = m; k < n; ++k) {
      const std::uint32_t t = route.target[order[k]];
      if (t != kNoTarget) {
        EXPECT_LT(pos[t], k) << "node " << order[k];
      }
    }
    std::vector<std::size_t> detached_on(n, 0);
    for (std::size_t k = 0; k < m; ++k) {
      const std::uint32_t d = order[k];
      const std::uint32_t c = cycle_of(route, d);
      ASSERT_NE(c, kNoTarget) << "detached node " << d << " is on no cycle";
      EXPECT_EQ(cycle_of(route, route.target[d]), c);
      ++detached_on[c];
    }
    std::size_t cycles = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (cycle_of(route, v) != v) continue;
      ++cycles;
      EXPECT_EQ(detached_on[v], 1u) << "cycle through " << v;
    }
    EXPECT_EQ(m, cycles);
  }
  // The worst case the parked rows are reserved for.
  const Route pairs = routes().front();
  const Buckets b = buckets_of(pairs);
  std::vector<std::uint32_t> order(pairs.target.size());
  std::vector<std::uint8_t> mark(order.size());
  EXPECT_EQ(inplace_order(pairs.target, b.off, b.senders, order, mark),
            order.size() / 2);
}

TEST(InplaceOrder, InPlaceGatherMatchesTwoBuffers) {
  const simd::Kernels& kn = simd::kernels(simd::SimdLevel::kAuto);
  constexpr std::size_t cols = 13;  // a vector body plus a scalar tail
  Rng rng(0x91ace);
  for (const Route& route : routes()) {
    SCOPED_TRACE(route.name);
    const std::size_t n = route.target.size();
    const Buckets b = buckets_of(route);
    std::vector<std::uint32_t> order(n);
    std::vector<std::uint8_t> mark(n);
    const std::size_t m = inplace_order(route.target, b.off, b.senders, order, mark);

    std::vector<double> x(n * cols), w(n * cols);
    for (auto& e : x) e = rng.next_double(-1.0, 1.0);
    for (auto& e : w) e = rng.next_below(4) == 0 ? 0.0 : rng.next_double(0.0, 2.0);
    const auto keep = [&](std::size_t r) {
      return route.push[r] == Push::kIdle ? 1.0 : 0.5;
    };
    const auto h = [&](std::size_t r) {
      return route.push[r] == Push::kIdle ? 0.0
             : route.push[r] == Push::kLost ? 1.0 : 0.5;
    };

    // Two buffers: every row reads the old state.
    std::vector<double> nx(n * cols), nw(n * cols);
    std::uint64_t ref_payload = 0;
    std::vector<const double*> sx(n), sw(n);
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t k = 0;
      for (std::size_t q = b.off[r]; q < b.off[r + 1]; ++q, ++k) {
        sx[k] = x.data() + b.senders[q] * cols;
        sw[k] = w.data() + b.senders[q] * cols;
      }
      ref_payload += kn.gather_row(nx.data() + r * cols, nw.data() + r * cols,
                                   x.data() + r * cols, w.data() + r * cols,
                                   keep(r), sx.data(), sw.data(), k, h(r), cols);
    }

    // In place along the order; detached rows park their new values.
    std::vector<double> parked(m * 2 * cols);
    std::uint64_t payload = 0;
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t r = order[p];
      std::size_t k = 0;
      for (std::size_t q = b.off[r]; q < b.off[r + 1]; ++q, ++k) {
        sx[k] = x.data() + b.senders[q] * cols;
        sw[k] = w.data() + b.senders[q] * cols;
      }
      double* rx = p < m ? parked.data() + p * 2 * cols : x.data() + r * cols;
      double* rw = p < m ? rx + cols : w.data() + r * cols;
      payload += kn.gather_row(rx, rw, x.data() + r * cols, w.data() + r * cols,
                               keep(r), sx.data(), sw.data(), k, h(r), cols);
    }
    for (std::size_t p = 0; p < m; ++p) {
      std::copy_n(parked.data() + p * 2 * cols, cols, x.data() + order[p] * cols);
      std::copy_n(parked.data() + p * 2 * cols + cols, cols,
                  w.data() + order[p] * cols);
    }
    EXPECT_TRUE(bit_equal(x, nx));
    EXPECT_TRUE(bit_equal(w, nw));
    EXPECT_EQ(payload, ref_payload);
  }
}

}  // namespace
}  // namespace gt::gossip
