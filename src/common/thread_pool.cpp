#include "common/thread_pool.hpp"

#include <pthread.h>
#include <sched.h>

#include <cstdio>

namespace gt {

std::size_t available_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = available_cpus();
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (num_threads > 1 && ::sched_getaffinity(0, sizeof(mask), &mask) == 0 &&
      static_cast<std::size_t>(CPU_COUNT(&mask)) == num_threads) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
  placed_skip_ = cpus_.size();
  workers_.reserve(num_threads - 1);
  for (std::size_t t = 0; t + 1 < num_threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
    char name[32];
    std::snprintf(name, sizeof(name), "gt-lane%zu", t + 1);
    name[15] = '\0';  // a thread name holds 15 characters
    ::pthread_setname_np(workers_.back().native_handle(), name);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::place_workers() {
  if (cpus_.empty()) return;
  const int caller = ::sched_getcpu();
  std::size_t skip = cpus_.size() - 1;  // a caller outside the mask
  for (std::size_t i = 0; i < cpus_.size(); ++i)
    if (cpus_[i] == caller) skip = i;
  if (skip == placed_skip_) return;
  const bool placed = placed_skip_ < cpus_.size();
  for (std::size_t t = 0; t < workers_.size(); ++t) {
    const std::size_t want = t < skip ? t : t + 1;
    if (placed && want == (t < placed_skip_ ? t : t + 1)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[want], &one);
    if (::pthread_setaffinity_np(workers_[t].native_handle(), sizeof(one), &one) != 0) {
      // Back to the creation mask, for good.
      cpu_set_t all;
      CPU_ZERO(&all);
      for (const int cpu : cpus_) CPU_SET(cpu, &all);
      for (auto& w : workers_)
        ::pthread_setaffinity_np(w.native_handle(), sizeof(all), &all);
      cpus_.clear();
      return;
    }
  }
  placed_skip_ = skip;
}

std::size_t ThreadPool::claim_and_run(const ChunkFn* fn, std::size_t begin,
                                      std::size_t end, std::size_t num_chunks) {
  std::size_t completed = 0;
  for (;;) {
    const std::size_t k = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (k >= num_chunks) break;
    const auto [lo, hi] = chunk_range(begin, end, num_chunks, k);
    (*fn)(lo, hi, k);
    ++completed;
  }
  return completed;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const ChunkFn* fn;
    std::size_t begin, end, chunks;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      begin = begin_;
      end = end_;
      chunks = num_chunks_;
      // Registering in_flight_ under the lock that published the job means
      // neither parallel_for's completion wait nor the next publication can
      // proceed while this worker still claims chunks from the old job; a
      // worker that wakes after the job finished finds the claim counter
      // exhausted and touches nothing.
      ++in_flight_;
    }
    const std::size_t completed = claim_and_run(fn, begin, end, chunks);
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_chunks_ += completed;
      --in_flight_;
      if (in_flight_ == 0 && done_chunks_ >= num_chunks_) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t num_chunks, const ChunkFn& fn) {
  if (end <= begin || num_chunks == 0) return;
  if (num_chunks > end - begin) num_chunks = end - begin;
  if (workers_.empty() || num_chunks == 1) {
    run_serial(begin, end, num_chunks, fn);
    return;
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Wait out stragglers from a previous generation before re-arming the
    // claim counter; see the in_flight_ note in worker_loop.
    cv_done_.wait(lk, [&] { return in_flight_ == 0; });
    place_workers();
    fn_ = &fn;
    begin_ = begin;
    end_ = end;
    num_chunks_ = num_chunks;
    done_chunks_ = 0;
    next_chunk_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  cv_work_.notify_all();
  const std::size_t mine = claim_and_run(&fn, begin, end, num_chunks);
  std::unique_lock<std::mutex> lk(mu_);
  done_chunks_ += mine;
  cv_done_.wait(lk, [&] { return done_chunks_ == num_chunks_ && in_flight_ == 0; });
}

}  // namespace gt
