// Causal tracing layer: sink/ring mechanics, file round trip, analyzer
// detectors, Perfetto export, and the two contracts everything else rests
// on — tracing is observational (bit-identical gossip with tracing on or
// off, at any thread count) and deterministic (same seed -> byte-identical
// trace files).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "fault/fault_injector.hpp"
#include "gossip/async_gossip.hpp"
#include "gossip/vector_gossip.hpp"
#include "telemetry/event_log.hpp"
#include "trace/analyzer.hpp"
#include "trace/perfetto.hpp"
#include "trace/trace.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::trace {
namespace {

std::string temp_path(const char* tag) {
  return testing::TempDir() + "gt_trace_" + tag + ".bin";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool has_anomaly(const TraceSummary& s, Anomaly::Type type) {
  for (const auto& a : s.anomalies)
    if (a.type == type) return true;
  return false;
}

TraceRecord instant(SpanKind kind, double t, std::uint64_t trace_id,
                    std::uint64_t span_id) {
  TraceRecord r;
  r.t_start = r.t_end = t;
  r.trace_id = trace_id;
  r.span_id = span_id;
  r.kind = static_cast<std::uint32_t>(kind);
  return r;
}

// ---------------------------------------------------------------------------
// TraceSink mechanics

TEST(TraceSink, DisabledSinkIsANoOp) {
  TraceSink sink;  // default: no path, disabled
  EXPECT_FALSE(sink.enabled());
  sink.emit(instant(SpanKind::kMsgSend, 1.0, 1, 1));
  sink.probe(1, 0, 1.0, 0, 1.0, 0.0, 0.0, 0.0, 0.0);
  EXPECT_EQ(sink.records_emitted(), 0u);
  EXPECT_TRUE(sink.records().empty());
  EXPECT_TRUE(sink.finish());  // nothing to write
}

TEST(TraceSink, RingOverflowIsReportedNotSilent) {
  const std::string path = temp_path("overflow");
  TraceConfig cfg;
  cfg.path = path;
  cfg.ring_capacity = 8;
  TraceSink sink(cfg);
  ASSERT_TRUE(sink.enabled());
  for (int i = 0; i < 20; ++i)
    sink.emit(instant(SpanKind::kMsgSend, static_cast<double>(i),
                      sink.alloc_trace(), sink.alloc_span()));
  EXPECT_EQ(sink.records_emitted(), 20u);
  EXPECT_EQ(sink.records_dropped(), 12u);
  const auto retained = sink.records();
  ASSERT_EQ(retained.size(), 8u);
  // Oldest-first window holding the 8 most recent emissions.
  EXPECT_DOUBLE_EQ(retained.front().t_start, 12.0);
  EXPECT_DOUBLE_EQ(retained.back().t_start, 19.0);
  ASSERT_TRUE(sink.finish());

  TraceFileHeader header;
  std::vector<TraceRecord> records;
  ASSERT_TRUE(read_trace_file(path, header, records));
  EXPECT_EQ(header.records_emitted, 20u);
  EXPECT_EQ(header.record_count, 8u);
  const auto summary = analyze_trace(header, records);
  EXPECT_TRUE(has_anomaly(summary, Anomaly::Type::kRingOverflow));
  std::remove(path.c_str());
}

TEST(TraceSink, FileRoundTripPreservesRecordsBitwise) {
  const std::string path = temp_path("roundtrip");
  TraceConfig cfg;
  cfg.path = path;
  TraceSink sink(cfg);
  std::vector<TraceRecord> emitted;
  for (int i = 0; i < 5; ++i) {
    TraceRecord r = instant(SpanKind::kRetransmit, 0.25 * i,
                            sink.alloc_trace(), sink.alloc_span());
    r.parent_id = r.span_id - 1;
    r.node = static_cast<std::uint32_t>(i);
    r.peer = static_cast<std::uint32_t>(i + 1);
    r.flags = static_cast<std::uint32_t>(i);
    r.value = 1.0 / (i + 1);
    sink.emit(r);
    emitted.push_back(r);
  }
  ASSERT_TRUE(sink.finish());
  TraceFileHeader header;
  std::vector<TraceRecord> records;
  ASSERT_TRUE(read_trace_file(path, header, records));
  ASSERT_EQ(records.size(), emitted.size());
  EXPECT_EQ(std::memcmp(records.data(), emitted.data(),
                        records.size() * sizeof(TraceRecord)),
            0);
  EXPECT_EQ(header.node_count, 6u);  // max real id 5 (a peer) + 1
  std::remove(path.c_str());
}

TEST(TraceSink, ReadRejectsNonTraceFile) {
  const std::string path = temp_path("garbage");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a trace file, padded to header size............";
  }
  TraceFileHeader header;
  std::vector<TraceRecord> records;
  EXPECT_FALSE(read_trace_file(path, header, records));
  EXPECT_FALSE(read_trace_file(testing::TempDir() + "gt_no_such_file.bin",
                               header, records));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Analyzer detectors on synthetic records

TEST(Analyzer, SyntheticMassLeakAndConvergenceStallDetected) {
  TraceConfig cfg;
  cfg.path = temp_path("synthetic");
  TraceSink sink(cfg);
  // Sweep 0: small deltas, clean residuals.
  const auto t0 = sink.alloc_trace();
  for (std::uint32_t node = 0; node < 4; ++node)
    sink.probe(t0, 0, 1.0, node, 1.0, 0.0, 1e-3, 0.25, 0.0);
  // Sweep 1: mean |dV| grows 10x (> growth_threshold 5) and node 2 leaks
  // mass beyond the 1e-6 tolerance.
  const auto t1 = sink.alloc_trace();
  for (std::uint32_t node = 0; node < 4; ++node)
    sink.probe(t1, 1, 2.0, node, 1.0, node == 2 ? 1e-3 : 0.0, 1e-2, 0.25, 0.0);

  const auto summary = analyze_trace(TraceFileHeader{}, sink.records());
  EXPECT_TRUE(has_anomaly(summary, Anomaly::Type::kMassLeak));
  EXPECT_TRUE(has_anomaly(summary, Anomaly::Type::kConvergenceStall));
  for (const auto& a : summary.anomalies) {
    if (a.type == Anomaly::Type::kMassLeak) {
      EXPECT_EQ(a.node, 2u);
    }
    if (a.type == Anomaly::Type::kConvergenceStall) {
      EXPECT_NEAR(a.value, 10.0, 1e-9);
    }
  }
  sink.finish();
  std::remove(cfg.path.c_str());
}

TEST(Analyzer, DecayingSeriesIsClean) {
  TraceConfig cfg;
  cfg.path = temp_path("decay");
  TraceSink sink(cfg);
  double dv = 1e-2;
  for (std::uint64_t series = 0; series < 5; ++series, dv *= 0.5) {
    const auto tid = sink.alloc_trace();
    for (std::uint32_t node = 0; node < 3; ++node)
      sink.probe(tid, series, 1.0 + static_cast<double>(series), node, 1.0,
                 0.0, dv, 1.0 / 3.0, 0.0);
  }
  const auto summary = analyze_trace(TraceFileHeader{}, sink.records());
  EXPECT_TRUE(summary.anomalies.empty());
  // The same geometric decay is too slow against a strict expected rate.
  AnalyzerConfig strict;
  strict.expected_rate = 0.01;  // sqrt -> 0.1 per sweep; we decay at 0.5
  const auto strict_summary =
      analyze_trace(TraceFileHeader{}, sink.records(), strict);
  EXPECT_TRUE(has_anomaly(strict_summary, Anomaly::Type::kConvergenceStall));
  sink.finish();
  std::remove(cfg.path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end: self-healing async push-sum under the chaos scenario

trust::SparseMatrix make_matrix(std::size_t n, std::uint64_t seed) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(40, n - 1);
  cfg.d_avg = std::min(10.0, static_cast<double>(n) / 3.0);
  Rng rng(seed);
  const std::vector<double> quality(n, 0.9);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

struct ChaosOutcome {
  gossip::AsyncGossipResult stats;
  std::vector<double> probe_view;
};

/// The PR-3 chaos acceptance scenario (crash 10% at t=5, bisect [10, 60),
/// heal), optionally traced. Identical seeds regardless of tracing.
ChaosOutcome run_chaos(TraceSink* sink, bool with_faults = true) {
  const std::size_t n = 30;
  sim::Scheduler sched;
  net::NetworkConfig ncfg;
  ncfg.base_latency = 0.2;
  ncfg.jitter = 0.1;
  net::Network network(sched, n, ncfg, Rng(21));
  if (sink != nullptr) network.attach_trace(sink);

  gossip::PushSumConfig cfg;
  cfg.epsilon = 1e-7;
  cfg.stable_rounds = 3;

  fault::FaultPlan plan;
  if (with_faults) {
    plan.crash_fraction(5.0, n, n / 10, 0xc0ffee);
    plan.bisect(10.0, 60.0, n, n / 2);
  }
  gossip::AsyncGossip::Timing timing;
  timing.timeout = 600.0;
  timing.min_time = with_faults ? plan.end_time() + 15.0 : 0.0;
  gossip::AsyncGossip::Reliability rel;
  rel.acks = true;
  rel.ack_timeout = 2.0;
  rel.backoff = 2.0;
  rel.max_timeout = 8.0;
  rel.max_retries = 3;
  rel.suspicion_threshold = 2;
  rel.suspicion_ttl = 8.0;
  rel.repair_on_crash = true;

  gossip::AsyncGossip gossip(sched, network, cfg, timing, rel);
  if (sink != nullptr) gossip.set_trace(sink);
  fault::FaultInjector injector(sched, network, plan);
  if (sink != nullptr) injector.set_trace(sink);
  injector.on_crash([&](fault::NodeId v) { gossip.notify_crash(v); });
  injector.on_recover([&](fault::NodeId v) { gossip.notify_recover(v); });
  injector.arm();

  const auto s = make_matrix(n, 2);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  gossip.initialize(s, v);
  Rng rng(5);
  gossip.run(rng);
  sched.run_until();

  ChaosOutcome out;
  out.stats = gossip.stats();
  net::NodeId probe = 0;
  while (!network.is_node_up(probe)) ++probe;
  out.probe_view = gossip.node_view(probe);
  return out;
}

TEST(AsyncTrace, TracingIsObservational) {
  const ChaosOutcome plain = run_chaos(nullptr);
  TraceConfig cfg;
  cfg.path = temp_path("observational");
  TraceSink sink(cfg);
  const ChaosOutcome traced = run_chaos(&sink);
  EXPECT_GT(sink.records_emitted(), 0u);
  // Tracing never schedules, never draws randomness, never touches
  // protocol state: every counter and every double is bit-identical.
  EXPECT_EQ(traced.stats.messages_sent, plain.stats.messages_sent);
  EXPECT_EQ(traced.stats.retransmits, plain.stats.retransmits);
  EXPECT_EQ(traced.stats.mass_reclaims, plain.stats.mass_reclaims);
  EXPECT_EQ(traced.stats.suspicions, plain.stats.suspicions);
  EXPECT_EQ(traced.stats.sim_time, plain.stats.sim_time);
  ASSERT_EQ(traced.probe_view.size(), plain.probe_view.size());
  EXPECT_EQ(std::memcmp(traced.probe_view.data(), plain.probe_view.data(),
                        plain.probe_view.size() * sizeof(double)),
            0);
  sink.finish();
  std::remove(cfg.path.c_str());
}

TEST(AsyncTrace, SameSeedProducesByteIdenticalTraceFiles) {
  const std::string path_a = temp_path("det_a");
  const std::string path_b = temp_path("det_b");
  {
    TraceConfig cfg;
    cfg.path = path_a;
    TraceSink sink(cfg);
    run_chaos(&sink);
    ASSERT_TRUE(sink.finish());
  }
  {
    TraceConfig cfg;
    cfg.path = path_b;
    TraceSink sink(cfg);
    run_chaos(&sink);
    ASSERT_TRUE(sink.finish());
  }
  const std::string a = slurp(path_a);
  const std::string b = slurp(path_b);
  ASSERT_GT(a.size(), sizeof(TraceFileHeader));
  EXPECT_EQ(a, b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(AsyncTrace, ChaosRunPinpointsPartitionAndRetransmitChains) {
  TraceConfig cfg;
  cfg.path = temp_path("chaos");
  TraceSink sink(cfg);
  const ChaosOutcome out = run_chaos(&sink);
  ASSERT_TRUE(out.stats.converged);
  ASSERT_GT(out.stats.retransmits, 0u);

  const auto summary = analyze_trace(TraceFileHeader{}, sink.records());
  // The injected partition window is recovered from the fault markers,
  // with the partitioned drops counted inside it.
  ASSERT_EQ(summary.partitions.size(), 1u);
  EXPECT_DOUBLE_EQ(summary.partitions[0].t_start, 10.0);
  EXPECT_DOUBLE_EQ(summary.partitions[0].t_end, 60.0);
  EXPECT_GT(summary.partitions[0].drops, 0u);
  EXPECT_TRUE(has_anomaly(summary, Anomaly::Type::kPartition));

  // Every retransmission chain is grouped under its message's trace id.
  ASSERT_FALSE(summary.chains.empty());
  std::uint64_t chained = 0;
  for (const auto& c : summary.chains) {
    EXPECT_NE(c.trace_id, 0u);
    EXPECT_GE(c.t_first, 0.0);
    EXPECT_LE(c.t_first, c.t_last);
    chained += c.retransmits;
  }
  EXPECT_EQ(chained, out.stats.retransmits);
  EXPECT_TRUE(has_anomaly(summary, Anomaly::Type::kSuspectedPeer));

  const std::string text = summary_text(summary);
  EXPECT_NE(text.find("partition"), std::string::npos);
  EXPECT_NE(text.find("retransmit chains"), std::string::npos);
  sink.finish();
  std::remove(cfg.path.c_str());
}

TEST(AsyncTrace, FaultFreeRunIsClean) {
  TraceConfig cfg;
  cfg.path = temp_path("clean");
  TraceSink sink(cfg);
  const ChaosOutcome out = run_chaos(&sink, /*with_faults=*/false);
  ASSERT_TRUE(out.stats.converged);
  const auto summary = analyze_trace(TraceFileHeader{}, sink.records());
  EXPECT_TRUE(summary.partitions.empty());
  for (const auto& a : summary.anomalies) ADD_FAILURE() << a.detail;
  EXPECT_NE(summary_text(summary).find("clean"), std::string::npos);
  sink.finish();
  std::remove(cfg.path.c_str());
}

TEST(AsyncTrace, HopChainIsOneCausalTree) {
  TraceConfig cfg;
  cfg.path = temp_path("causal");
  TraceSink sink(cfg);
  run_chaos(&sink);
  const auto records = sink.records();

  // Every record of a message's life carries its trace id; retransmitted
  // hops parent to the previous hop's span, acks to the data hop they
  // confirm. Verify on the longest chain.
  const auto summary = analyze_trace(TraceFileHeader{}, records);
  ASSERT_FALSE(summary.chains.empty());
  const auto longest = std::max_element(
      summary.chains.begin(), summary.chains.end(),
      [](const RetransmitChain& a, const RetransmitChain& b) {
        return a.retransmits < b.retransmits;
      });
  std::vector<TraceRecord> tree;
  for (const auto& r : records)
    if (r.trace_id == longest->trace_id) tree.push_back(r);
  ASSERT_GE(tree.size(), 2u);
  std::vector<std::uint64_t> root_spans;
  std::size_t sim_monotone_violations = 0;
  double last_t = 0.0;
  for (const auto& r : tree) {
    // A hop's send and its outcome share one span; count root *spans*.
    if (r.parent_id == 0 &&
        std::find(root_spans.begin(), root_spans.end(), r.span_id) ==
            root_spans.end())
      root_spans.push_back(r.span_id);
    if (r.t_end < last_t) ++sim_monotone_violations;
    last_t = r.t_end;
    if (r.parent_id != 0) {
      // The parent span exists within the same tree.
      bool found = false;
      for (const auto& p : tree)
        if (p.span_id == r.parent_id) found = true;
      EXPECT_TRUE(found) << "dangling parent " << r.parent_id;
    }
  }
  EXPECT_EQ(root_spans.size(), 1u);  // the first transmission is the only root
  EXPECT_EQ(sim_monotone_violations, 0u);
  sink.finish();
  std::remove(cfg.path.c_str());
}

TEST(AsyncTrace, MirroredJsonlCarriesTraceAndProbeRecords) {
  const std::string log_path = testing::TempDir() + "gt_trace_mirror.jsonl";
  TraceConfig cfg;
  cfg.path = temp_path("mirror");
  {
    telemetry::EventLogConfig lcfg;
    lcfg.path = log_path;
    telemetry::EventLog log(lcfg);
    TraceSink sink(cfg);
    sink.set_event_log(&log);
    run_chaos(&sink);
    sink.finish();
  }
  std::ifstream in(log_path);
  std::string line;
  std::size_t trace_lines = 0, probe_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"trace\"") != std::string::npos) ++trace_lines;
    if (line.find("\"event\":\"probe\"") != std::string::npos) ++probe_lines;
  }
  EXPECT_GT(trace_lines, 0u);
  EXPECT_GT(probe_lines, 0u);
  std::remove(log_path.c_str());
  std::remove(cfg.path.c_str());
}

// ---------------------------------------------------------------------------
// Synchronous kernel + engine

trust::SparseMatrix ring_matrix(std::size_t n) {
  trust::SparseMatrix::Builder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, (i + 1) % n, 0.7);
    b.add(i, (i + 2) % n, 0.3);
  }
  return std::move(b).build().row_normalized();
}

TEST(SyncTrace, ThreadCountInvariantAndObservational) {
  const std::size_t n = 24;
  const auto s = ring_matrix(n);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));

  std::vector<TraceRecord> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    gossip::PushSumConfig cfg;
    cfg.epsilon = 1e-5;
    cfg.stable_rounds = 2;
    cfg.num_threads = threads;

    gossip::VectorGossip plain(n, cfg);
    plain.initialize(s, v);
    Rng r1(99);
    const auto res_plain = plain.run(r1);
    const auto means_plain = plain.consensus_means();

    TraceConfig tcfg;
    tcfg.path = temp_path("sync");
    TraceSink sink(tcfg);
    gossip::VectorGossip traced(n, cfg);
    traced.set_trace(&sink);
    traced.initialize(s, v);
    Rng r2(99);
    const auto res_traced = traced.run(r2);

    // On/off bit-identity at this thread count.
    EXPECT_EQ(res_traced.steps, res_plain.steps);
    EXPECT_EQ(res_traced.messages_sent, res_plain.messages_sent);
    const auto means_traced = traced.consensus_means();
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(means_traced[j], means_plain[j]) << "component " << j;

    // The trace itself is thread-count invariant: emissions happen from
    // the serial orchestration sections only.
    const auto records = sink.records();
    EXPECT_EQ(records.size(), res_traced.steps * 5u);  // step + 4 phases
    if (reference.empty()) {
      reference = records;
    } else {
      ASSERT_EQ(records.size(), reference.size());
      EXPECT_EQ(std::memcmp(records.data(), reference.data(),
                            records.size() * sizeof(TraceRecord)),
                0)
          << "trace diverged at " << threads << " threads";
    }
    sink.finish();
    std::remove(tcfg.path.c_str());
  }
}

TEST(SyncTrace, StepAndPhaseSpansWellFormed) {
  const std::size_t n = 16;
  const auto s = ring_matrix(n);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  gossip::PushSumConfig cfg;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = 2;
  TraceConfig tcfg;
  tcfg.path = temp_path("spans");
  TraceSink sink(tcfg);
  gossip::VectorGossip vg(n, cfg);
  vg.set_trace(&sink);
  vg.initialize(s, v);
  Rng rng(7);
  const auto res = vg.run(rng);

  std::size_t steps = 0, phases = 0;
  std::uint64_t run_trace = 0;
  double prev_step_start = -1.0;
  for (const auto& r : sink.records()) {
    if (r.kind == static_cast<std::uint32_t>(SpanKind::kGossipStep)) {
      ++steps;
      if (run_trace == 0) run_trace = r.trace_id;
      EXPECT_EQ(r.trace_id, run_trace);  // one causal tree per run
      EXPECT_DOUBLE_EQ(r.t_end, r.t_start + 1.0);
      EXPECT_GT(r.t_start, prev_step_start);  // monotone step axis
      prev_step_start = r.t_start;
    } else if (r.kind == static_cast<std::uint32_t>(SpanKind::kPhase)) {
      ++phases;
      EXPECT_NE(r.parent_id, 0u);  // nested under its step span
      EXPECT_LT(r.flags, 4u);      // PhaseId
      EXPECT_LE(r.t_start, r.t_end);
    }
  }
  EXPECT_EQ(steps, res.steps);
  EXPECT_EQ(phases, res.steps * 4u);
  // The time cursor moved past the run so a next kernel appends after it.
  EXPECT_DOUBLE_EQ(sink.time_cursor(), static_cast<double>(res.steps));
  sink.finish();
  std::remove(tcfg.path.c_str());
}

TEST(EngineTrace, CycleSpansProbesAndObservationalResults) {
  const std::size_t n = 32;
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig fcfg;
  fcfg.n = n;
  fcfg.d_max = 20;
  fcfg.d_avg = 8.0;
  Rng wrng(5);
  const auto quality = trust::draw_service_qualities(n, 3, wrng);
  trust::generate_honest_feedback(ledger, quality, fcfg, wrng);
  const auto s = ledger.normalized_matrix();

  core::GossipTrustConfig cfg;
  cfg.delta = 1e-3;
  cfg.epsilon = 1e-5;

  core::GossipTrustEngine plain(n, cfg);
  Rng r1(11);
  const auto res_plain = plain.run(s, r1);

  TraceConfig tcfg;
  tcfg.path = temp_path("engine");
  TraceSink sink(tcfg);
  core::GossipTrustEngine traced(n, cfg);
  traced.set_trace(&sink);
  Rng r2(11);
  const auto res_traced = traced.run(s, r2);

  ASSERT_EQ(res_traced.scores.size(), res_plain.scores.size());
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_EQ(res_traced.scores[j], res_plain.scores[j]);
  EXPECT_EQ(res_traced.num_cycles(), res_plain.num_cycles());

  std::size_t cycles = 0, probes = 0;
  std::uint64_t last_cycle_seq = 0;
  for (const auto& r : sink.records()) {
    if (r.kind == static_cast<std::uint32_t>(SpanKind::kCycle)) {
      last_cycle_seq = r.flags;
      ++cycles;
      EXPECT_EQ(r.node, kGlobalNode);
      EXPECT_LE(r.t_start, r.t_end);
    }
    if (r.kind == static_cast<std::uint32_t>(SpanKind::kProbe)) ++probes;
  }
  EXPECT_EQ(cycles, res_traced.num_cycles());
  EXPECT_EQ(last_cycle_seq + 1, res_traced.num_cycles());
  // One flight-recorder sweep per cycle, three records per live node.
  EXPECT_EQ(probes, res_traced.num_cycles() * n * 5u);
  // Clean engine run: conserved mass, decaying deltas -> no anomalies.
  const auto summary = analyze_trace(TraceFileHeader{}, sink.records());
  for (const auto& a : summary.anomalies) ADD_FAILURE() << a.detail;
  sink.finish();
  std::remove(tcfg.path.c_str());
}

// ---------------------------------------------------------------------------
// Perfetto export

TEST(Perfetto, ExportedJsonIsWellFormedChromeTrace) {
  TraceConfig cfg;
  cfg.path = temp_path("perfetto_src");
  TraceSink sink(cfg);
  run_chaos(&sink);
  const auto records = sink.records();
  TraceFileHeader header;
  header.record_count = records.size();
  header.records_emitted = sink.records_emitted();
  header.node_count = 30;

  const std::string json_path = testing::TempDir() + "gt_trace_perfetto.json";
  ASSERT_TRUE(write_perfetto_json(header, records, json_path));
  const std::string json = slurp(json_path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.rfind("{", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // slices
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // probe counters
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("drop:"), std::string::npos);
  // Balanced document: ends with the closing of traceEvents + object.
  const auto tail = json.substr(json.size() - std::min<std::size_t>(8, json.size()));
  EXPECT_NE(tail.find("]"), std::string::npos);
  EXPECT_NE(tail.find("}"), std::string::npos);
  sink.finish();
  std::remove(cfg.path.c_str());
  std::remove(json_path.c_str());
}

}  // namespace
}  // namespace gt::trace
