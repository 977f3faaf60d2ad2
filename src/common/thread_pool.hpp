// Reusable fixed-size thread pool with a deterministic parallel_for.
//
// The pool runs the kernels' lane-parallel phases: VectorGossip's column
// blocks (their gossip steps, the seeding in initialize() and the
// consensus read-out) and ShardedGossip's windows (drain, then execute).
// Each is a chunked loop over an index range. The partition of
// [begin, end) into chunks is a pure function of (range, num_chunks) —
// never of thread count, scheduling order, or timing — so a caller that
// needs bit-identical floating-point results across thread counts only
// has to pick a fixed chunk grid and merge per-chunk partials in chunk
// order. Which worker executes which chunk is decided dynamically (atomic
// claim counter), which affects nothing observable.
//
// The calling thread participates as a worker, so ThreadPool(1) spawns no
// threads and parallel_for degenerates to an inline serial loop over the
// same chunk grid. Worker k (k = 1, 2, ...) is named `gt-lane<k>`, so
// `top -H`, a trace or /proc/<pid>/task/*/comm can find it.
//
// ThreadPool(0) takes one lane per CPU the calling thread may run on
// (available_cpus()), so `taskset` and cpusets size the pool.
//
// Placement. A pool with exactly one lane per CPU of the affinity mask it
// was created under (ThreadPool(0), or VectorGossip's pool whenever its
// lanes equal the CPUs) pins each worker to one CPU of that mask. Before
// each parallel_for it reads the caller's CPU (sched_getcpu()) and keeps
// every worker off it: worker k takes the k-th CPU of the mask other than
// the caller's. It calls pthread_setaffinity_np only when that assignment
// changes, and a pool whose call fails goes back to the full mask for
// good. The caller itself is never pinned. Left to the scheduler, two
// lanes woken together can share one CPU for a whole cold aggregation
// while the other CPU idles (EXPERIMENTS § PLACE); pinned, they cannot.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace gt {

/// CPUs in the calling thread's affinity mask (sched_getaffinity), or
/// std::thread::hardware_concurrency() where the mask cannot be read;
/// at least 1. The lane count every `0 = one lane per CPU` setting means.
std::size_t available_cpus() noexcept;

class ThreadPool {
 public:
  /// fn(chunk_begin, chunk_end, chunk_index) — must not throw.
  using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// num_threads = total execution lanes including the caller; 0 = one lane
  /// per CPU in the calling thread's affinity mask (available_cpus()).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execution lanes (spawned workers + the calling thread).
  std::size_t num_threads() const noexcept { return workers_.size() + 1; }

  /// Splits [begin, end) into num_chunks contiguous, statically-determined
  /// chunks and runs fn over each, blocking until all complete. Chunks are
  /// executed by the pool's workers and the calling thread; a chunk runs on
  /// exactly one thread. Not reentrant: fn must not call parallel_for on
  /// the same pool.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t num_chunks,
                    const ChunkFn& fn);

  /// The static partition: chunk k of [begin, end) split num_chunks ways.
  /// Balanced to within one element; depends only on its arguments.
  static std::pair<std::size_t, std::size_t> chunk_range(std::size_t begin,
                                                         std::size_t end,
                                                         std::size_t num_chunks,
                                                         std::size_t k) noexcept {
    const std::size_t total = end - begin;
    const std::size_t base = total / num_chunks;
    const std::size_t rem = total % num_chunks;
    const std::size_t lo = begin + k * base + std::min(k, rem);
    return {lo, lo + base + (k < rem ? 1 : 0)};
  }

  /// Serial reference loop over the identical chunk grid (for callers that
  /// have no pool but want the same chunk-indexed structure).
  static void run_serial(std::size_t begin, std::size_t end,
                         std::size_t num_chunks, const ChunkFn& fn) {
    for (std::size_t k = 0; k < num_chunks; ++k) {
      const auto [lo, hi] = chunk_range(begin, end, num_chunks, k);
      fn(lo, hi, k);
    }
  }

 private:
  void worker_loop();
  /// Pinned pools only: moves the workers off the caller's current CPU
  /// when it differs from the one they were last placed around. Called
  /// under mu_ with no worker in flight.
  void place_workers();
  std::size_t claim_and_run(const ChunkFn* fn, std::size_t begin,
                            std::size_t end, std::size_t num_chunks);

  std::vector<std::thread> workers_;

  // The creation mask's CPUs when the pool is pinned (one lane per CPU),
  // else empty; and the index in cpus_ of the CPU the workers were last
  // placed around (cpus_.size(): not placed yet).
  std::vector<int> cpus_;
  std::size_t placed_skip_ = 0;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  // Current job; published under mu_, consumed after cv_work_ wakeup.
  const ChunkFn* fn_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t num_chunks_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t done_chunks_ = 0;  // chunks fully executed this generation
  std::size_t in_flight_ = 0;    // workers currently inside the claim loop
  bool stop_ = false;

  std::atomic<std::size_t> next_chunk_{0};
};

}  // namespace gt
