#include "common/thread_pool.hpp"

#include <dirent.h>
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <numeric>
#include <string>
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

/// Ids of this process's threads named `name` (/proc/self/task/*/comm;
/// every thread when `name` is empty), leaving out `old`: the kernel wakes
/// pthread_join before it unlists the exiting thread, so an earlier pool's
/// worker can linger there briefly.
std::vector<pid_t> threads_named(const std::string& name,
                                 const std::vector<pid_t>& old = {}) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (tid <= 0 || std::find(old.begin(), old.end(), tid) != old.end()) continue;
    std::ifstream comm(std::string("/proc/self/task/") + e->d_name + "/comm");
    std::string line;
    if (std::getline(comm, line) && (name.empty() || line == name))
      out.push_back(tid);
  }
  ::closedir(dir);
  return out;
}

cpu_set_t affinity_of(pid_t tid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(::sched_getaffinity(tid, sizeof(set), &set), 0);
  return set;
}

cpu_set_t cpus(std::initializer_list<int> list) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : list) CPU_SET(c, &set);
  return set;
}

/// The first two CPUs of `mask`; false when it has fewer.
bool two_cpus(const cpu_set_t& mask, int* a, int* b) {
  int found = 0;
  for (int c = 0; c < CPU_SETSIZE && found < 2; ++c)
    if (CPU_ISSET(c, &mask)) (found++ == 0 ? *a : *b) = c;
  return found == 2;
}

void touch_every_lane(ThreadPool& pool) {
  pool.parallel_for(0, pool.num_threads(), pool.num_threads(),
                    [](std::size_t, std::size_t, std::size_t) {});
}

TEST(ThreadPool, OneLanePerCpuPinsTheWorkerOffTheCallersCpu) {
  AffinityRestorer restore;
  ASSERT_TRUE(restore.ok());
  int a = -1, b = -1;
  if (!two_cpus(restore.saved(), &a, &b))
    GTEST_SKIP() << "needs 2 CPUs in the affinity mask, have "
                 << CPU_COUNT(&restore.saved());
  const cpu_set_t both = cpus({a, b});
  ASSERT_EQ(::sched_setaffinity(0, sizeof(both), &both), 0);
  const std::vector<pid_t> old = threads_named("");
  ThreadPool pool(0);
  ASSERT_EQ(pool.num_threads(), 2u);
  const std::vector<pid_t> workers = threads_named("gt-lane1", old);
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_TRUE(threads_named("gt-lane2", old).empty());

  // Under the 2-CPU mask: the worker may run on exactly one of the two
  // CPUs, and not on the one the caller ran on (when the caller did not
  // move meanwhile).
  const int before = ::sched_getcpu();
  touch_every_lane(pool);
  const int after = ::sched_getcpu();
  cpu_set_t got = affinity_of(workers[0]);
  EXPECT_EQ(CPU_COUNT(&got), 1);
  EXPECT_TRUE(CPU_ISSET(a, &got) || CPU_ISSET(b, &got));
  if (before == after) {
    EXPECT_FALSE(CPU_ISSET(before, &got)) << "worker shares the caller's CPU " << before;
  }

  // The caller on a: the worker goes to b. The caller moves to b: the
  // next parallel_for moves the worker to a.
  for (const auto& [caller, worker] : {std::pair{a, b}, std::pair{b, a}, std::pair{a, b}}) {
    const cpu_set_t one = cpus({caller});
    ASSERT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
    touch_every_lane(pool);
    got = affinity_of(workers[0]);
    EXPECT_EQ(CPU_COUNT(&got), 1) << "caller on " << caller;
    EXPECT_TRUE(CPU_ISSET(worker, &got)) << "caller on " << caller;
  }
}

TEST(ThreadPool, MoreLanesThanCpusOrOneCpuLeaveWorkersOnTheFullMask) {
  AffinityRestorer restore;
  ASSERT_TRUE(restore.ok());
  int a = -1, b = -1;
  if (!two_cpus(restore.saved(), &a, &b))
    GTEST_SKIP() << "needs 2 CPUs in the affinity mask, have "
                 << CPU_COUNT(&restore.saved());
  const cpu_set_t both = cpus({a, b});
  ASSERT_EQ(::sched_setaffinity(0, sizeof(both), &both), 0);
  {
    const std::vector<pid_t> old = threads_named("");
    ThreadPool pool(3);
    touch_every_lane(pool);
    for (const char* name : {"gt-lane1", "gt-lane2"}) {
      const std::vector<pid_t> workers = threads_named(name, old);
      ASSERT_EQ(workers.size(), 1u) << name;
      const cpu_set_t got = affinity_of(workers[0]);
      EXPECT_TRUE(CPU_EQUAL(&got, &both)) << name << " on " << CPU_COUNT(&got) << " CPUs";
    }
  }
  const cpu_set_t one = cpus({a});
  ASSERT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
  const std::vector<pid_t> old = threads_named("");
  ThreadPool pool(2);
  touch_every_lane(pool);
  const std::vector<pid_t> workers = threads_named("gt-lane1", old);
  ASSERT_EQ(workers.size(), 1u);
  const cpu_set_t got = affinity_of(workers[0]);
  EXPECT_TRUE(CPU_EQUAL(&got, &one));
}

}  // namespace
}  // namespace gt
