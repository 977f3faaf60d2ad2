// sharded-pushsum: time to convergence of a ShardedGossip fig3-shape run
// (the bench_million configuration: K = 4 components, ER overlay with 3n
// edges, 8 shards) at n = 10^5 on 2 threads. Runs by name, not gated (see
// workloads.hpp); its traced part also runs inside serve-freshness.
//
// One rep = set-up (ER build, CSR freeze, engine construction and
// initialize_fig3) + run() to convergence. Reps, each on its own input
// derived from the seed, repeat until the run's seconds are used (at least
// three); set-up time and run time are reported as medians. Checks per
// rep: converged, ShardedMassSummary::max_gap() <= 1e-12 of the initial
// weight n, final mean error <= epsilon; in the traced pass, where every rep runs one input, every rep
// must also execute the same number of events.
//
// Traced part (trace_sharded_pushsum): spans around each set-up call and
// run(); up to three triples of reps alternating GT_SIMD=off / auto / 1
// thread (as many as the run budget allows, at least one), which give the
// SIMD and thread speed-ups as medians of adjacent pairs; a
// standalone sim::Scheduler at the engine's per-shard queue depth; the
// simd::Kernels halve + accumulate sweep at K = 4.
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "client.hpp"
#include "common/rng.hpp"
#include "gossip/sharded_gossip.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"
#include "sim/scheduler.hpp"
#include "simd/kernels.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace gossip = gt::gossip;

constexpr std::size_t kN = 100'000;
constexpr std::size_t kShards = 8;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kComponents = 4;
constexpr double kEpsilon = 1e-3;
/// Mass ledger tolerance relative to the initial weight of a component (n:
/// w = 1 per node). Summing 10^5 terms of order 1 leaves rounding of order
/// 1e-9 in the absolute gap (seen on some inputs), so the absolute 1e-9 of
/// the small-n tests does not transfer to this size.
constexpr double kMassGapRel = 1e-12;
constexpr std::size_t kTriples = 3;

gossip::ShardedGossipConfig workload_config(std::uint64_t seed, std::size_t threads) {
  gossip::ShardedGossipConfig cfg;
  cfg.components = kComponents;
  cfg.period = 1.0;
  cfg.base_latency = 0.25;
  cfg.jitter = 0.1;
  cfg.epsilon = kEpsilon;
  cfg.stable_rounds = 3;
  cfg.horizon = 200.0;
  cfg.seed = gt::mix64(seed, 31);
  cfg.shards = kShards;  // fixed grid: the trajectory is thread-count-invariant
  cfg.threads = threads;
  cfg.sample_every = 16;
  return cfg;
}

struct Rep {
  double er_s = 0.0, csr_s = 0.0, init_s = 0.0, run_s = 0.0;
  double setup_s() const { return er_s + csr_s + init_s; }
  gossip::ShardedGossipResult res;
  double max_gap = 0.0;
  std::size_t state_bytes = 0, csr_bytes = 0;
};

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

Rep run_rep(std::uint64_t seed, std::size_t threads, Tracer& t, std::uint64_t trace_id) {
  Rep r;
  Scope rep(t, "pushsum.rep", trace_id);
  std::int64_t t0 = now_ns();
  gt::graph::Graph g;
  {
    Scope s(t, "graph.er_build", trace_id, rep.id());
    gt::Rng grng(gt::mix64(seed, 30));
    g = gt::graph::make_erdos_renyi(kN, kN * 3, grng);
  }
  r.er_s = seconds_since(t0);
  t0 = now_ns();
  std::optional<gt::graph::CsrView> csr;
  {
    Scope s(t, "graph.csr_build", trace_id, rep.id());
    csr.emplace(g);
  }
  r.csr_s = seconds_since(t0);
  t0 = now_ns();
  std::optional<gossip::ShardedGossip> eng;
  {
    Scope s(t, "pushsum.init", trace_id, rep.id());
    eng.emplace(*csr, workload_config(seed, threads));
    eng->initialize_fig3(gt::mix64(seed, 32));
  }
  r.init_s = seconds_since(t0);
  t0 = now_ns();
  {
    Scope s(t, "pushsum.run", trace_id, rep.id());
    r.res = eng->run();
  }
  r.run_s = seconds_since(t0);
  r.max_gap = eng->mass_summary().max_gap();
  r.state_bytes = eng->state_bytes();
  r.csr_bytes = csr->storage_bytes();
  return r;
}

std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

void check_rep(const Rep& r, std::uint64_t expect_events, Report& report) {
  const double err = r.res.error_curve.empty() ? 1.0 : r.res.error_curve.back().second;
  const bool ok =
      report.check(r.res.converged, "pushsum.converged", "run hit the horizon") &
      report.check(r.max_gap <= kMassGapRel * static_cast<double>(kN), "pushsum.mass_gap",
                   "mass_summary().max_gap() = " + fmt_g(r.max_gap) + " > " +
                       fmt_g(kMassGapRel * static_cast<double>(kN))) &
      report.check(err <= kEpsilon, "pushsum.final_error",
                   "final mean |estimate - truth| = " + std::to_string(err)) &
      report.check(expect_events == 0 || r.res.events == expect_events,
                   "pushsum.deterministic",
                   "rep executed " + std::to_string(r.res.events) + " events, expected " +
                       std::to_string(expect_events));
  report.count(1, ok ? 0 : 1);
}

/// A scheduler event that re-arms itself one push period later until the
/// shared budget is spent: the engine's per-node push loop without the
/// gossip work.
struct SchedulerBench {
  gt::sim::Scheduler sched;
  gt::Rng rng{7};
  std::size_t budget = 0;
  void arm(double when) {
    sched.schedule_at(when, [this] {
      if (budget == 0) return;
      --budget;
      arm(sched.now() + 1.0 + 0.1 * rng.next_double());
    });
  }
};

/// ns per executed event at `depth` pending events.
double scheduler_ns_per_event(std::size_t depth, std::size_t events) {
  SchedulerBench b;
  b.budget = events;
  for (std::size_t i = 0; i < depth; ++i) b.arm(b.rng.next_double());
  const std::int64_t t0 = now_ns();
  const std::size_t ran = b.sched.run_until();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(ran);
}

/// ns per K-slot (halve + accumulate) pair over n nodes' SoA slots.
double simd_sweep_ns_per_slot() {
  const gt::simd::Kernels& kn = gt::simd::kernels(gt::simd::SimdLevel::kAuto);
  gt::simd::aligned_vector<double> x(gt::simd::padded_size(kN * kComponents), 1.0);
  gt::simd::aligned_vector<double> w(x.size(), 1.0), src(x.size(), 0.5);
  constexpr int kPasses = 20;
  const std::int64_t t0 = now_ns();
  for (int p = 0; p < kPasses; ++p) {
    for (std::size_t i = 0; i < kN; ++i) {
      kn.halve(x.data() + i * kComponents, kComponents);
      kn.accumulate_scaled(w.data() + i * kComponents, src.data() + i * kComponents, 0.5,
                           kComponents);
    }
  }
  const double ns = static_cast<double>(now_ns() - t0);
  volatile double sink = x[kN] + w[kN];  // keep the sweeps observable
  (void)sink;
  return ns / (static_cast<double>(kPasses) * static_cast<double>(kN * kComponents));
}

/// Sets GT_SIMD for the engines constructed next ("" restores the caller's).
class SimdEnv {
 public:
  SimdEnv() {
    const char* v = std::getenv("GT_SIMD");
    had_ = v != nullptr;
    if (had_) saved_ = v;
  }
  ~SimdEnv() { set(""); }
  void set(const char* level) {
    if (*level) ::setenv("GT_SIMD", level, 1);
    else if (had_) ::setenv("GT_SIMD", saved_.c_str(), 1);
    else ::unsetenv("GT_SIMD");
  }

 private:
  bool had_ = false;
  std::string saved_;
};

}  // namespace

void run_sharded_pushsum(const Args& a, Report& report) {
  if (!a.trace) {
    // Each rep aggregates its own input, derived from the seed: convergence
    // takes 310-350 windows depending on the overlay drawn, and the median
    // over several inputs varies less from seed to seed than one input
    // does. An unreported warm-up rep first lets the allocator settle.
    Tracer off(false);
    std::vector<double> setup, run;
    run_rep(gt::mix64(a.seed, 100), kThreads, off, 0);
    const std::int64_t t0 = now_ns();
    do {
      const Rep r = run_rep(gt::mix64(a.seed, 100 + run.size()), kThreads, off, 0);
      check_rep(r, 0, report);
      setup.push_back(r.setup_s());
      run.push_back(r.run_s);
      std::fprintf(stderr, "perfbench: sharded-pushsum rep %zu: setup %.3f s, run %.3f s, "
                   "%llu events, %llu windows\n",
                   run.size(), r.setup_s(), r.run_s,
                   static_cast<unsigned long long>(r.res.events),
                   static_cast<unsigned long long>(r.res.windows));
    } while (seconds_since(t0) < a.seconds || run.size() < 3);
    std::vector<double> run_copy = run;
    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
    report.metric("latency_p50_ms", median(run) * 1e3, "ms");
    report.metric("latency_p90_ms", percentile(run_copy, 90.0) * 1e3, "ms");
    return;
  }

  Tracer tracer(true);
  trace_sharded_pushsum(a.seed, trace_deadline_ns(a), tracer, report);
  report.metric("fail_frac", report.fail_frac(), "ratio");
  report.check(tracer.write(span_path(a)), "trace.write", "cannot write " + span_path(a));
}

void trace_sharded_pushsum(std::uint64_t seed, std::int64_t deadline_ns, Tracer& tracer,
                           Report& report) {
  SimdEnv env;
  std::vector<double> simd_speedup, thread_speedup, ns_1t;
  std::vector<Rep> auto_reps;
  std::uint64_t events = 0, trace_id = 0;
  auto rep = [&](const char* simd, std::size_t threads) {
    env.set(simd);
    Rep r = run_rep(seed, threads, tracer, ++trace_id);
    env.set("");
    check_rep(r, events, report);
    events = r.res.events;
    std::fprintf(stderr, "perfbench: sharded-pushsum simd=%s threads=%zu: run %.3f s\n",
                 simd, threads, r.run_s);
    return r;
  };
  // Triples alternate their order so neither side of a pair always runs
  // first: (off, auto, 1t), (1t, auto, off), ...; auto on 2 threads is the
  // workload configuration. A triple starts only if, at the last one's
  // pace (with a quarter to spare), it ends before the deadline.
  std::int64_t last_triple_ns = 0;
  for (std::size_t i = 0; i < kTriples; ++i) {
    const std::int64_t t0 = now_ns();
    if (i > 0 && t0 + last_triple_ns + last_triple_ns / 4 > deadline_ns) {
      std::fprintf(stderr,
                   "perfbench: sharded-pushsum stops after %zu triples: the next would end "
                   "past the run budget\n",
                   i);
      break;
    }
    const bool fwd = i % 2 == 0;
    Rep first = fwd ? rep("off", kThreads) : rep("auto", 1);
    Rep mid = rep("auto", kThreads);
    Rep last = fwd ? rep("auto", 1) : rep("off", kThreads);
    const Rep& off_rep = fwd ? first : last;
    const Rep& one_rep = fwd ? last : first;
    simd_speedup.push_back(off_rep.run_s / mid.run_s);
    thread_speedup.push_back(one_rep.run_s / mid.run_s);
    ns_1t.push_back(one_rep.run_s * 1e9 / static_cast<double>(one_rep.res.events));
    auto_reps.push_back(std::move(mid));
    last_triple_ns = now_ns() - t0;
  }
  const Rep& ref = auto_reps.front();
  const double n = static_cast<double>(kN);
  const double events_d = static_cast<double>(ref.res.events);
  std::vector<double> ns_event, er, csr, init;
  for (const Rep& r : auto_reps) {
    ns_event.push_back(r.run_s * 1e9 / static_cast<double>(r.res.events));
    er.push_back(r.er_s);
    csr.push_back(r.csr_s);
    init.push_back(r.init_s);
  }
  // Per-shard queue depth: one pending push per node plus the messages in
  // flight, (base_latency + jitter / 2) / period of a push each.
  const auto cfg = workload_config(seed, kThreads);
  const std::size_t depth = static_cast<std::size_t>(
      n / kShards * (1.0 + (cfg.base_latency + cfg.jitter / 2) / cfg.period));
  const double sched_ns = scheduler_ns_per_event(depth, 4'000'000);
  const double pushsum_ns_1t = median(ns_1t);
  const Quartiles sq = quartiles(simd_speedup);
  const Quartiles tq = quartiles(thread_speedup);

  report.metric("graph.er_build_s", median(er), "s");
  report.metric("graph.csr_build_s", median(csr), "s");
  report.metric("pushsum.init_s", median(init), "s");
  report.metric("pushsum.ns_per_event", median(ns_event), "ns");
  report.metric("pushsum.events", events_d, "count");
  report.metric("pushsum.windows", static_cast<double>(ref.res.windows), "count");
  report.metric("pushsum.events_per_window",
                events_d / static_cast<double>(ref.res.windows), "count");
  report.metric("pushsum.wire_bytes_per_node", static_cast<double>(ref.res.wire_bytes) / n,
                "B");
  report.metric("pushsum.bytes_per_node",
                static_cast<double>(ref.state_bytes + ref.csr_bytes) / n, "B");
  report.metric("sim.scheduler.ns_per_event", sched_ns, "ns");
  report.metric("pushsum.ns_per_event_1t", pushsum_ns_1t, "ns");
  report.metric("pushsum.loop_share", sched_ns / pushsum_ns_1t, "ratio");
  report.metric("simd.sweep_ns_per_slot", simd_sweep_ns_per_slot(), "ns");
  report.metric("pushsum.simd_speedup", sq.q2, "ratio");
  report.metric("pushsum.simd_speedup_q1", sq.q1, "ratio");
  report.metric("pushsum.simd_speedup_q3", sq.q3, "ratio");
  report.metric("pushsum.thread_speedup_2t", tq.q2, "ratio");
  report.metric("pushsum.thread_speedup_2t_q1", tq.q1, "ratio");
  report.metric("pushsum.thread_speedup_2t_q3", tq.q3, "ratio");
  report.metric("pushsum.triples", static_cast<double>(auto_reps.size()), "count");
  std::fprintf(stderr,
               "perfbench: sharded-pushsum simd speedup %.3f [%.3f, %.3f], "
               "2-thread speedup %.3f [%.3f, %.3f], loop share %.3f\n",
               sq.q2, sq.q1, sq.q3, tq.q2, tq.q1, tq.q3, sched_ns / pushsum_ns_1t);
}

}  // namespace pb
