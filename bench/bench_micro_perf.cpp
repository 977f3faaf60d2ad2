// PERF — component micro-benchmarks (google-benchmark): the hot paths of
// the simulator, so regressions in the kernels every experiment leans on
// are caught in isolation.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "bloom/score_store.hpp"
#include "common/powerlaw.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "dht/chord.hpp"
#include "gossip/pushsum.hpp"
#include "gossip/vector_gossip.hpp"
#include "gossip/async_gossip.hpp"
#include "gossip/sharded_gossip.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"
#include "simd/kernels.hpp"
#include "simd/simd.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: this binary replaces global operator new so the
// event-core cases can report allocations/event. The steady-state scheduler
// and pooled-network loops are expected to report 0 — that number is checked
// against the BENCH_5.json baseline by scripts/bench_record.py.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC flags free() on memory from a replaced operator new as a mismatch once
// it inlines both sides; the pairing here is correct by construction (every
// operator new below allocates with malloc/posix_memalign, both free()able).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
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

namespace {

using namespace gt;

trust::SparseMatrix bench_matrix(std::size_t n) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(200, n / 2);
  cfg.d_avg = std::min(20.0, static_cast<double>(n) / 4.0);
  Rng rng(7);
  const std::vector<double> quality(n, 0.9);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

void BM_RngU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngU64);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(100000, 1.2);
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void BM_TopologyGnutella(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(3);
    benchmark::DoNotOptimize(graph::make_gnutella_like(n, rng));
  }
}
BENCHMARK(BM_TopologyGnutella)->Arg(1000)->Arg(4000);

void BM_TransposeMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto s = bench_matrix(n);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  for (auto _ : state) benchmark::DoNotOptimize(s.transpose_multiply(v));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.nonzeros()));
}
BENCHMARK(BM_TransposeMultiply)->Arg(1000)->Arg(4000);

void BM_ScalarPushSumStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n, 1.0), w(n, 1.0);
  gossip::ScalarPushSum ps(x, w, gossip::PushSumConfig{});
  Rng rng(4);
  gossip::PushSumResult res;
  for (auto _ : state) ps.step(rng, nullptr, res);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScalarPushSumStep)->Arg(1000)->Arg(10000);

void BM_VectorGossipStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto s = bench_matrix(n);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  gossip::PushSumConfig cfg;
  cfg.num_threads = threads;
  gossip::VectorGossip vg(n, cfg);
  vg.initialize(s, v);
  Rng rng(5);
  gossip::VectorGossipResult res;
  for (auto _ : state) vg.step(rng, nullptr, res);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n));
  state.counters["active_triplets"] =
      static_cast<double>(res.active_triplets);
}
BENCHMARK(BM_VectorGossipStep)
    ->Args({500, 1})
    ->Args({500, 4})
    ->Args({1000, 1})
    ->Args({1000, 4});

// One full aggregation cycle (gossip to epsilon-stability + consensus
// read-out + power-node mix) — the unit of work every experiment repeats.
void BM_GossipCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto s = bench_matrix(n);
  core::GossipTrustConfig cfg;
  cfg.num_threads = threads;
  core::GossipTrustEngine engine(n, cfg);
  auto v = engine.initial_scores();
  std::vector<core::NodeId> power;
  Rng rng(9);
  for (auto _ : state) {
    auto vc = v;  // each iteration aggregates from the same starting vector
    std::vector<core::NodeId> pc = power;
    benchmark::DoNotOptimize(engine.run_cycle(s, vc, pc, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GossipCycle)
    ->Args({512, 1})
    ->Args({512, 4})
    ->Args({2048, 1})
    ->Args({2048, 4})
    ->Unit(benchmark::kMillisecond);

void BM_BloomInsertContains(benchmark::State& state) {
  auto filter = bloom::BloomFilter::with_capacity(10000, 0.01);
  Rng rng(6);
  std::uint64_t key = 0;
  for (auto _ : state) {
    filter.insert(key);
    benchmark::DoNotOptimize(filter.contains(key));
    ++key;
  }
}
BENCHMARK(BM_BloomInsertContains);

void BM_ScoreStoreLookup(benchmark::State& state) {
  Rng rng(8);
  std::vector<double> scores(4000);
  for (auto& s : scores) s = rng.next_double() + 1e-6;
  bloom::ScoreStoreConfig cfg;
  const bloom::BloomScoreStore store(scores, cfg);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.lookup(id % 4000));
    ++id;
  }
}
BENCHMARK(BM_ScoreStoreLookup);

void BM_ChordLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dht::ChordRing ring(n, 9);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.lookup(rng.next_below(n), rng.next_u64()));
  }
}
BENCHMARK(BM_ChordLookup)->Arg(1024)->Arg(8192);

// ---------------------------------------------------------------------------
// Event core: the scheduler + pooled network fast path. Each case warms the
// slab/heap to steady state outside the timed loop, then reports
// allocations/event alongside the usual items/sec (scripts/bench_record.py
// turns these into BENCH_5.json and the CI perf-smoke gate).

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  for (std::size_t i = 0; i < batch; ++i) sched.schedule_after(1.0, [] {});
  sched.run_until();  // warm the slab, freelist, and heap storage
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto before = g_heap_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < batch; ++i)
      sched.schedule_after(static_cast<double>(i & 15) * 0.25, [] {});
    sched.run_until();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    events += batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(events);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024);

void BM_SchedulerScheduleCancel(benchmark::State& state) {
  // The cancel-heavy pattern (retry timers that usually get disarmed):
  // schedule a batch, cancel every other event, drain the rest.
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  std::vector<sim::EventId> ids(batch);
  for (std::size_t i = 0; i < batch; ++i)
    ids[i] = sched.schedule_after(1.0, [] {});
  for (std::size_t i = 0; i < batch; i += 2) sched.cancel(ids[i]);
  sched.run_until();
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto before = g_heap_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < batch; ++i)
      ids[i] = sched.schedule_after(static_cast<double>(i & 7) * 0.5, [] {});
    for (std::size_t i = 0; i < batch; i += 2) sched.cancel(ids[i]);
    sched.run_until();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    events += batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(events);
}
BENCHMARK(BM_SchedulerScheduleCancel)->Arg(1024);

void pooled_bench_deliver(void*, std::span<const std::byte>, net::NodeId,
                          net::NodeId) {}

void BM_NetworkSendPooled(benchmark::State& state) {
  // The zero-allocation wire path: slab-recycled payload, function-pointer
  // sink, 16-byte scheduler captures.
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kBurst = 256;
  sim::Scheduler sched;
  net::NetworkConfig ncfg;
  ncfg.base_latency = 1.0;
  net::Network network(sched, kNodes, ncfg, Rng(1));
  const net::Network::PooledSend sink{pooled_bench_deliver, nullptr, nullptr,
                                      nullptr};
  for (std::size_t i = 0; i < kBurst; ++i) {  // warm pool + meta + scheduler
    const auto h = network.acquire_payload(24);
    network.send_pooled(i % kNodes, (i + 1) % kNodes, 24, 1, h, sink);
  }
  sched.run_until();
  std::uint64_t allocs = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const auto before = g_heap_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBurst; ++i) {
      const auto h = network.acquire_payload(24);
      network.send_pooled(i % kNodes, (i + 1) % kNodes, 24, 1, h, sink);
    }
    sched.run_until();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    messages += kBurst;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(messages);
}
BENCHMARK(BM_NetworkSendPooled);

void BM_NetworkSendLegacy(benchmark::State& state) {
  // The closure API now wraps send_pooled(); kept benchmarked so the wrapper
  // overhead (one heap closure box per message) stays visible.
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kBurst = 256;
  sim::Scheduler sched;
  net::NetworkConfig ncfg;
  ncfg.base_latency = 1.0;
  net::Network network(sched, kNodes, ncfg, Rng(1));
  for (std::size_t i = 0; i < kBurst; ++i)
    network.send(i % kNodes, (i + 1) % kNodes, 24, [] {});
  sched.run_until();
  std::uint64_t allocs = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const auto before = g_heap_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBurst; ++i)
      network.send(i % kNodes, (i + 1) % kNodes, 24, [] {});
    sched.run_until();
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    messages += kBurst;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(messages);
}
BENCHMARK(BM_NetworkSendLegacy);

void BM_AsyncGossipConverge(benchmark::State& state) {
  // Full asynchronous aggregation to epsilon-stability, batched vs
  // per-triplet framing (arg 1/0): the end-to-end win of one wire message
  // per destination.
  const bool batch_wire = state.range(0) != 0;
  constexpr std::size_t n = 64;
  const auto s = bench_matrix(n);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  std::uint64_t triplets = 0;
  for (auto _ : state) {
    sim::Scheduler sched;
    net::NetworkConfig ncfg;
    ncfg.base_latency = 1.0;
    net::Network network(sched, n, ncfg, Rng(11));
    gossip::PushSumConfig pcfg;
    pcfg.epsilon = 1e-3;
    pcfg.stable_rounds = 3;
    pcfg.batch_wire = batch_wire;
    gossip::AsyncGossip::Timing timing;
    timing.period = 1.0;
    timing.timeout = 300.0;
    gossip::AsyncGossip g(sched, network, pcfg, timing);
    g.initialize(s, v);
    Rng rng(5);
    g.run(rng);
    sched.run_until();
    triplets += g.stats().triplets_sent;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(triplets));
  state.counters["triplets"] = static_cast<double>(triplets) /
                               static_cast<double>(state.iterations());
}
BENCHMARK(BM_AsyncGossipConverge)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// SIMD kernel pairs: each case exists twice — forced-scalar and the level
// runtime dispatch picked — and scripts/bench_record.py --simd folds the
// pair into BENCH_8.json as a speedup ratio. The gated GossipStep pair
// composes only the mul/add kernels of one dense gossip step (halve both
// shares, fold a half-weight inbox, copy-scale + merge the read-out) over
// an L1-resident vector; its composition has fixed point 1.0 so a billion
// iterations never drift into denormals or infinities. The division-heavy
// residual sweep and the end-to-end sharded engine are reported ungated —
// their wins are real but bounded by divide latency and event-loop
// overhead respectively, not by lane count.

constexpr std::size_t kStepKernelCalls = 6;

void gossip_step_kernel_pass(const simd::Kernels& kn, double* x, double* w,
                             double* y, const double* ones, std::size_t n) {
  kn.halve(x, n);
  kn.halve(w, n);
  kn.accumulate_scaled(x, ones, 0.5, n);  // x = x/2 + 1/2 -> stays 1.0
  kn.accumulate_scaled(w, ones, 0.5, n);
  kn.scale_assign(y, x, 1.0, n);
  kn.add(y, w, n);
}

void bm_gossip_step(benchmark::State& state, simd::SimdLevel level) {
  constexpr std::size_t n = 1024;  // 8 KiB/array: L1-resident
  const auto& kn = simd::kernels(level);
  // One slab, arrays staggered by n + kPadSlots doubles: four separate
  // 8 KiB allocations land on identical 4 KiB page offsets and the
  // store-to-load aliasing stalls flatten the vector win.
  constexpr std::size_t stride = n + simd::kPadSlots;
  simd::aligned_vector<double> slab(4 * stride, 1.0);
  double* x = slab.data();
  double* w = slab.data() + stride;
  double* y = slab.data() + 2 * stride;
  double* ones = slab.data() + 3 * stride;
  for (std::size_t i = 0; i < n; ++i) y[i] = 0.0;
  for (auto _ : state) {
    gossip_step_kernel_pass(kn, x, w, y, ones, n);
    benchmark::DoNotOptimize(x);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * kStepKernelCalls));
  state.SetLabel(simd::level_name(kn.level));
}

void BM_GossipStepScalar(benchmark::State& state) {
  bm_gossip_step(state, simd::SimdLevel::kScalar);
}
BENCHMARK(BM_GossipStepScalar);

void BM_GossipStepSimd(benchmark::State& state) {
  bm_gossip_step(state, simd::resolve_level(simd::SimdLevel::kAuto));
}
BENCHMARK(BM_GossipStepSimd);

void bm_residual_sweep(benchmark::State& state, simd::SimdLevel level) {
  constexpr std::size_t n = 4096;
  const auto& kn = simd::kernels(level);
  simd::aligned_vector<double> x(n), w(n, 1.0), prev(n);
  Rng rng(17);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.next_double() + 0.5;
    prev[i] = std::numeric_limits<double>::quiet_NaN();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kn.residual_keep(x.data(), w.data(), prev.data(),
                                              1e-300, 1e-9, n));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(simd::level_name(kn.level));
}

void BM_ResidualSweepScalar(benchmark::State& state) {
  bm_residual_sweep(state, simd::SimdLevel::kScalar);
}
BENCHMARK(BM_ResidualSweepScalar);

void BM_ResidualSweepSimd(benchmark::State& state) {
  bm_residual_sweep(state, simd::resolve_level(simd::SimdLevel::kAuto));
}
BENCHMARK(BM_ResidualSweepSimd);

void bm_sharded_gossip(benchmark::State& state, simd::SimdLevel level) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng grng(23);
  graph::Graph g = graph::make_erdos_renyi(n, n * 3, grng);
  graph::make_connected(g, grng);
  const graph::CsrView csr(g);
  std::uint64_t events = 0;
  for (auto _ : state) {
    gossip::ShardedGossipConfig cfg;
    cfg.components = 4;
    cfg.base_latency = 0.25;
    cfg.jitter = 0.1;
    cfg.epsilon = 1e-4;
    cfg.stable_rounds = 3;
    cfg.horizon = 60.0;
    cfg.seed = 42;
    cfg.shards = 1;
    cfg.threads = 1;
    cfg.simd_level = level;
    gossip::ShardedGossip eng(csr, cfg);
    eng.initialize_fig3(7);
    const auto res = eng.run();
    events += res.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel(simd::level_name(simd::kernels(level).level));
}

void BM_ShardedGossipScalar(benchmark::State& state) {
  bm_sharded_gossip(state, simd::SimdLevel::kScalar);
}
BENCHMARK(BM_ShardedGossipScalar)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_ShardedGossipSimd(benchmark::State& state) {
  bm_sharded_gossip(state, simd::resolve_level(simd::SimdLevel::kAuto));
}
BENCHMARK(BM_ShardedGossipSimd)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
