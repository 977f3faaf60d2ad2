// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every bench runs standalone with no arguments, prints the paper-style
// table/series, and honors:
//   GT_QUICK=1        -> shrink sweeps (CI smoke run)
//   GT_SEEDS=k        -> simulation runs averaged per data point (default 10/3)
//   GT_SEED=s         -> base seed
//   GT_THREADS=t      -> gossip kernel lanes (default 1; 0 = one per CPU
//                        in the affinity mask)
//   GT_TELEMETRY=path -> write a JSONL event log next to the table output
//                        (equivalent: --telemetry <path> on the command line;
//                        fold it into tables with scripts/report.py)
//   GT_TRACE=path     -> record a binary causal trace (equivalent: --trace
//                        <path>; inspect with tools/trace_analyze, export to
//                        Perfetto with its --perfetto flag)
//   GT_SIMD=level     -> gossip kernel ISA: off|scalar|auto|avx2|avx512|neon
//                        (default auto = best the CPU supports; results are
//                        bit-identical at every level — this only moves
//                        speed, which is exactly what the scalar-vs-SIMD
//                        bench pairs measure)
#pragma once

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "telemetry/event_log.hpp"
#include "trace/trace.hpp"
#include "threat/models.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::bench {

/// Paper section 6.1 workload: power-law feedback with d_max=200, d_avg=20
/// (clamped for small n), honest counterfactual + attacked ledger pair.
struct ThreatWorkload {
  std::vector<threat::PeerProfile> peers;
  trust::SparseMatrix honest;    ///< normalized matrix, truthful ratings
  trust::SparseMatrix attacked;  ///< normalized matrix, threat ratings
  trust::FeedbackLedger attacked_ledger;

  static ThreatWorkload make(std::size_t n, double malicious_fraction,
                             bool collusive, std::size_t group_size,
                             std::uint64_t seed) {
    Rng rng(seed);
    threat::ThreatConfig tcfg;
    tcfg.n = n;
    tcfg.malicious_fraction = malicious_fraction;
    tcfg.collusive = collusive;
    tcfg.collusion_group_size = group_size;
    auto peers = threat::make_population(tcfg, rng);

    trust::FeedbackGenConfig gen;
    gen.n = n;
    gen.d_max = std::min<std::size_t>(200, n / 2);
    gen.d_avg = std::min(20.0, static_cast<double>(n) / 4.0);

    trust::FeedbackLedger honest_ledger(n);
    trust::FeedbackLedger attacked_ledger(n);
    threat::generate_honest_counterfactual(honest_ledger, peers, tcfg, gen,
                                           Rng(seed + 1));
    threat::generate_threat_feedback(attacked_ledger, peers, tcfg, gen,
                                     Rng(seed + 1));
    return ThreatWorkload{std::move(peers), honest_ledger.normalized_matrix(),
                          attacked_ledger.normalized_matrix(),
                          std::move(attacked_ledger)};
  }

  /// Honest-only workload (no attack; honest == attacked).
  static ThreatWorkload make_clean(std::size_t n, std::uint64_t seed) {
    return make(n, 0.0, false, 5, seed);
  }
};

/// Gossip kernel lanes for engine-driven benches (GT_THREADS, default 1 so
/// published numbers stay single-thread comparable; 0 = one per CPU in the
/// affinity mask).
inline std::size_t gossip_threads() { return env_size("GT_THREADS", 1); }

namespace detail {
inline std::unique_ptr<telemetry::EventLog>& event_log_storage() {
  static std::unique_ptr<telemetry::EventLog> log;
  return log;
}
// Declared after the event-log storage so static destruction runs the
// trace sink first: its finish() may still mirror nothing, but keeping the
// log alive across the sink's teardown makes the ordering obviously safe.
inline std::unique_ptr<trace::TraceSink>& trace_sink_storage() {
  static std::unique_ptr<trace::TraceSink> sink;
  return sink;
}
}  // namespace detail

/// The bench-wide JSONL event log; null until telemetry_init() enables it.
inline telemetry::EventLog* event_log() { return detail::event_log_storage().get(); }

/// The bench-wide binary trace sink; null until telemetry_init() enables it.
inline trace::TraceSink* trace_sink() { return detail::trace_sink_storage().get(); }

/// Enables the JSONL event log when `--telemetry <path>` was passed or
/// GT_TELEMETRY is set, and the binary causal trace when `--trace <path>`
/// or GT_TRACE is set (flags win). Call once at the top of main with the
/// bench's name; returns the log (null = disabled). Both sinks flush and
/// close at process exit; when both are enabled, trace records are also
/// mirrored into the JSONL log as `trace`/`probe` records.
inline telemetry::EventLog* telemetry_init(const char* bench_name, int argc,
                                           char** argv) {
  std::string path = env_string("GT_TELEMETRY", "");
  std::string trace_path = env_string("GT_TRACE", "");
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry") == 0) path = argv[i + 1];
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
  }
  auto& log = detail::event_log_storage();
  if (!path.empty()) {
    telemetry::EventLogConfig cfg;
    cfg.path = path;
    log = std::make_unique<telemetry::EventLog>(cfg);
    if (!log->enabled()) {
      log.reset();
    } else {
      log->set_context("bench", std::string(bench_name));
      log->set_context("threads", static_cast<std::uint64_t>(gossip_threads()));
      log->set_context("seed", base_seed());
      log->set_context(
          "simd",
          std::string(simd::level_name(simd::resolve_level(simd::SimdLevel::kAuto))));
      std::printf("[telemetry -> %s]\n", path.c_str());
    }
  }
  if (!trace_path.empty()) {
    trace::TraceConfig tcfg;
    tcfg.path = trace_path;
    auto& sink = detail::trace_sink_storage();
    sink = std::make_unique<trace::TraceSink>(tcfg);
    if (log) sink->set_event_log(log.get());
    std::printf("[trace -> %s]\n", trace_path.c_str());
  }
  return log.get();
}

/// Wires the bench event log and trace sink into an engine (no-op when
/// disabled). Sampled gossip-step records default to every 16th step to
/// bound log volume.
inline void attach_engine(core::GossipTrustEngine& engine,
                          std::size_t step_sample_every = 16) {
  if (auto* log = event_log()) engine.set_event_log(log, step_sample_every);
  if (auto* sink = trace_sink()) engine.set_trace(sink);
}

/// Seeds for one data point.
inline std::vector<std::uint64_t> point_seeds() {
  std::vector<std::uint64_t> seeds;
  const auto base = base_seed();
  for (std::size_t k = 0; k < runs_per_point(); ++k)
    seeds.push_back(base + 1000 * (k + 1));
  return seeds;
}

/// Prints the table and, when GT_CSV_DIR is set, also writes
/// <dir>/<name>.csv for plotting scripts.
inline void emit(const Table& table, const char* name) {
  table.print(std::cout);
  const auto dir = env_string("GT_CSV_DIR", "");
  if (!dir.empty()) {
    const std::string path = dir + "/" + name + ".csv";
    std::ofstream csv(path);
    if (csv) {
      table.write_csv(csv);
      std::printf("[csv written to %s]\n", path.c_str());
    } else {
      std::printf("[failed to open %s]\n", path.c_str());
    }
  }
}

inline void print_preamble(const char* experiment, const char* paper_artifact) {
  std::printf("== %s ==\n", experiment);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("runs per data point: %zu%s (GT_SEEDS overrides; GT_QUICK=1 "
              "shrinks the sweep)\n\n",
              runs_per_point(), quick_mode() ? " [quick mode]" : "");
}

}  // namespace gt::bench
