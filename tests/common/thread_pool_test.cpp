#include "common/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <tuple>
#include <vector>

namespace gt {
namespace {

TEST(ChunkRange, PartitionsExactlyAndBalanced) {
  // Every index in [begin, end) lands in exactly one chunk, chunk sizes
  // differ by at most one, and chunks are in ascending order.
  const std::size_t begin = 3, end = 103, chunks = 7;
  std::size_t covered = 0, prev_end = begin;
  std::size_t min_size = end, max_size = 0;
  for (std::size_t k = 0; k < chunks; ++k) {
    const auto [lo, hi] = ThreadPool::chunk_range(begin, end, chunks, k);
    EXPECT_EQ(lo, prev_end);
    EXPECT_LE(lo, hi);
    prev_end = hi;
    covered += hi - lo;
    min_size = std::min(min_size, hi - lo);
    max_size = std::max(max_size, hi - lo);
  }
  EXPECT_EQ(prev_end, end);
  EXPECT_EQ(covered, end - begin);
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ChunkRange, MoreChunksThanElements) {
  // Surplus chunks are empty; the occupied ones still tile the range.
  std::size_t covered = 0;
  for (std::size_t k = 0; k < 10; ++k) {
    const auto [lo, hi] = ThreadPool::chunk_range(0, 4, 10, k);
    covered += hi - lo;
  }
  EXPECT_EQ(covered, 4u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  const std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, 16, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ChunkGridMatchesRunSerial) {
  // The (begin, end, index) triples a pool hands out must be exactly the
  // ones run_serial produces — the grid is a pure function of the range
  // and chunk count, never of scheduling.
  const std::size_t n = 97, chunks = 5;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> serial;
  ThreadPool::run_serial(0, n, chunks,
                         [&](std::size_t b, std::size_t e, std::size_t c) {
                           serial.emplace_back(b, e, c);
                         });

  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> parallel;
  pool.parallel_for(0, n, chunks,
                    [&](std::size_t b, std::size_t e, std::size_t c) {
                      std::lock_guard<std::mutex> lk(mu);
                      parallel.emplace_back(b, e, c);
                    });
  std::sort(parallel.begin(), parallel.end());
  std::sort(serial.begin(), serial.end());
  EXPECT_EQ(parallel, serial);
}

TEST(ThreadPool, ChunkedReductionIsThreadCountInvariant) {
  // Per-chunk partials merged in chunk order give bit-identical doubles for
  // any worker count — the invariant the gossip kernel's counters and
  // consensus read-out rely on.
  const std::size_t n = 5000, chunks = 8;
  auto reduce = [&](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<double> partial(chunks, 0.0);
    pool.parallel_for(0, n, chunks,
                      [&](std::size_t b, std::size_t e, std::size_t c) {
                        for (std::size_t i = b; i < e; ++i)
                          partial[c] += 1.0 / static_cast<double>(i + 1);
                      });
    double total = 0.0;
    for (const double p : partial) total += p;
    return total;
  };
  const double one = reduce(1);
  EXPECT_EQ(one, reduce(2));
  EXPECT_EQ(one, reduce(8));
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  // Stress the job hand-off: many small jobs of varying size reusing one
  // pool must neither lose nor duplicate work (generation/race regression).
  ThreadPool pool(4);
  for (std::size_t round = 0; round < 200; ++round) {
    const std::size_t n = 1 + (round * 37) % 257;
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, n, 8, [&](std::size_t b, std::size_t e, std::size_t) {
      std::size_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::size_t visited = 0;
  pool.parallel_for(0, 10, 4, [&](std::size_t b, std::size_t e, std::size_t) {
    visited += e - b;  // unsynchronized: must run on the calling thread
  });
  EXPECT_EQ(visited, 10u);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, 4,
                    [&](std::size_t, std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// Restores the calling thread's CPU mask when it goes out of scope, so a
// failed assertion cannot leave the test thread pinned.
class AffinityRestorer {
 public:
  AffinityRestorer() { ok_ = ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0; }
  ~AffinityRestorer() {
    if (ok_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  AffinityRestorer(const AffinityRestorer&) = delete;
  AffinityRestorer& operator=(const AffinityRestorer&) = delete;

  bool ok() const { return ok_; }
  const cpu_set_t& saved() const { return saved_; }

 private:
  cpu_set_t saved_{};
  bool ok_ = false;
};

TEST(ThreadPool, ZeroLanesFollowTheAffinityMask) {
  AffinityRestorer restore;
  ASSERT_TRUE(restore.ok());
  const std::size_t mask_cpus =
      static_cast<std::size_t>(CPU_COUNT(&restore.saved()));
  EXPECT_EQ(available_cpus(), mask_cpus);
  EXPECT_EQ(ThreadPool(0).num_threads(), mask_cpus);

  int first = 0;
  while (!CPU_ISSET(first, &restore.saved())) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(available_cpus(), 1u);
  EXPECT_EQ(ThreadPool(0).num_threads(), 1u);
}

}  // namespace
}  // namespace gt
