// The perfbench workloads. Each reads its inputs from Args::seed, measures
// for about Args::seconds, checks its outputs, and fills a Report: the
// end-to-end metrics when untraced, the per-layer metrics of its own layers
// when traced (perfbench/run.py zero-fills the layers a workload does not
// exercise and orders everything as BENCHMARK.json lists it).
//
// serve-lookup and serve-freshness are the gated workloads. sharded-pushsum
// runs by name but is not gated: its wall time follows host contention on a
// shared VM. The traced serve-freshness pass also runs
// trace_sharded_pushsum, so the sim, graph, simd and sharded gossip layers
// are still measured.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "spans.hpp"

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string repserved;  ///< path of the repserved binary
  std::string out_dir;    ///< where the traced pass writes its span file
  std::int64_t started_ns = now_ns();  ///< process start, for run budgets
};

/// A traced run starts no push-sum triple it does not expect to finish
/// within this many seconds of process start: run.py gives a run 175 s.
inline constexpr double kTraceBudgetS = 150.0;

void run_serve_lookup(const Args& args, Report& report);
void run_serve_freshness(const Args& args, Report& report);
void run_sharded_pushsum(const Args& args, Report& report);

/// The sharded push-sum path's per-layer metrics (graph.*, sim.*, simd.*,
/// pushsum.*): alternating GT_SIMD=off / auto / 1-thread triples of reps at
/// n = 10^5 with spans around each set-up call and run(), a standalone
/// sim::Scheduler at the engine's queue depth, and the simd::Kernels sweep.
/// After the first triple, a further one starts only if, at the pace of the
/// last, it ends before `deadline_ns`; pushsum.triples reports how many ran.
void trace_sharded_pushsum(std::uint64_t seed, std::int64_t deadline_ns, Tracer& tracer,
                           Report& report);

/// The deadline trace_sharded_pushsum gets in a traced run.
inline std::int64_t trace_deadline_ns(const Args& a) {
  return a.started_ns + static_cast<std::int64_t>(kTraceBudgetS * 1e9);
}

/// Span file path for this run: <out_dir>/spans-<workload>-<seed>.txt.
std::string span_path(const Args& args);

}  // namespace pb
