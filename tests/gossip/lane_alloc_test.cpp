// Gossip lanes never allocate. This binary replaces global operator new
// with one that counts, per thread, whether the test's own thread or any
// other thread (a kernel lane) asked: a lane's first allocation opens a
// glibc arena of its own, which costs resident memory for the life of the
// process. After one warm-up cycle, initialize() + run() +
// consensus_means() must allocate nothing off the calling thread, and the
// calling thread must allocate as often for a run of a few steps as for
// one that wraps the schedule window twice.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "gossip/vector_gossip.hpp"
#include "trust/matrix.hpp"

namespace {
std::atomic<std::uint64_t> g_caller_allocs{0};
std::atomic<std::uint64_t> g_lane_allocs{0};
thread_local bool t_is_caller = false;

void count_alloc() {
  (t_is_caller ? g_caller_allocs : g_lane_allocs)
      .fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

// GCC flags free() on memory from a replaced operator new as a mismatch once
// it inlines both sides; the pairing here is correct by construction (every
// operator new below allocates with malloc/posix_memalign, both free()able).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  count_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size != 0 ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gt::gossip {
namespace {

trust::SparseMatrix lane_matrix(std::size_t n) {
  trust::SparseMatrix::Builder b(n);
  Rng rng(0xa110c);
  for (NodeId i = 0; i < n; ++i) {
    if (i % 11 == 5) continue;  // a dangling rater
    for (int k = 0; k < 6; ++k)
      b.add(i, rng.next_below(n), rng.next_double(0.1, 1.0));
  }
  return std::move(b).build().row_normalized();
}

struct CycleAllocs {
  std::uint64_t caller = 0;
  std::uint64_t lanes = 0;
  std::size_t steps = 0;
};

/// One warm-up cycle, then the allocations of one measured cycle.
CycleAllocs measure(std::size_t stable_rounds) {
  constexpr std::size_t n = 200;
  PushSumConfig cfg;
  cfg.num_threads = 2;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = stable_rounds;
  cfg.loss_probability = 0.02;
  VectorGossip vg(n, cfg, /*block_width=*/24);
  EXPECT_EQ(vg.lanes(), 2u);
  const trust::SparseMatrix s = lane_matrix(n);
  const std::vector<double> v(n, 1.0 / n);
  Rng rng(17);
  const auto cycle = [&] {
    vg.initialize(s, v);
    const VectorGossipResult r = vg.run(rng);
    const std::vector<double> mean = vg.consensus_means();
    EXPECT_EQ(mean.size(), n);
    return r.steps;
  };
  cycle();
  CycleAllocs out;
  const std::uint64_t caller0 = g_caller_allocs.load();
  const std::uint64_t lanes0 = g_lane_allocs.load();
  out.steps = cycle();
  out.caller = g_caller_allocs.load() - caller0;
  out.lanes = g_lane_allocs.load() - lanes0;
  return out;
}

TEST(LaneAllocations, LanesNeverAllocateAndCallerCostIsPerCycle) {
  t_is_caller = true;
  const CycleAllocs brief = measure(/*stable_rounds=*/1);
  const CycleAllocs wrapped = measure(/*stable_rounds=*/140);
  // The long run wraps the 64-step schedule window at least twice.
  ASSERT_GT(wrapped.steps, 2 * 64u);
  ASSERT_LT(brief.steps, 64u);
  EXPECT_EQ(brief.lanes, 0u);
  EXPECT_EQ(wrapped.lanes, 0u);
  EXPECT_EQ(brief.caller, wrapped.caller)
      << brief.steps << " steps vs " << wrapped.steps << " steps";
  t_is_caller = false;
}

}  // namespace
}  // namespace gt::gossip
