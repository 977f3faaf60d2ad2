// Column-block width invariance: VectorGossip runs every block of B
// columns through one shared per-step route schedule, and each column's
// trajectory depends only on that column and the schedule, so the block
// width may change wall time and nothing else. Every run below is compared
// bit for bit against the derived width on one lane: estimates, column
// masses, consensus means, supports, every VectorGossipResult counter, the
// trace records, the event-log lines (wall-clock fields stripped) and the
// next draw of the caller's RNG. n = 67 leaves a narrow last block at
// every forced width; n = 512 splits into many blocks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gossip/vector_gossip.hpp"
#include "graph/topology.hpp"
#include "telemetry/event_log.hpp"
#include "trace/trace.hpp"
#include "trust/matrix.hpp"

namespace gt {
namespace {

struct WidthScenario {
  const char* name;
  std::size_t stable_rounds = 2;
  double loss = 0.0;
  bool adversary = false;  ///< x-scale liars plus share withholders
  bool churn = false;      ///< a participants mask with dead nodes
  bool overlay = false;    ///< neighbors_only over an ER overlay
  bool dangling = false;   ///< rows of S with no feedback
  std::size_t max_steps = 400;
  std::size_t steps_first = 0;  ///< step() calls before the run() calls
  std::size_t runs = 1;         ///< run() calls
};

const WidthScenario kScenarios[] = {
    {.name = "plain"},
    {.name = "churn", .churn = true},
    {.name = "churn_overlay", .churn = true, .overlay = true},
    {.name = "loss", .loss = 0.05},
    // Minted x mass never stabilises: the run hits max_steps, and 150
    // steps wrap the schedule's window more than once.
    {.name = "adversary", .adversary = true, .max_steps = 150},
    {.name = "stable0", .stable_rounds = 0},
    {.name = "stable1", .stable_rounds = 1},
    {.name = "stable3", .stable_rounds = 3},
    {.name = "dangling", .dangling = true},
    {.name = "max_steps", .max_steps = 9},
    {.name = "steps", .steps_first = 6, .runs = 0},
    {.name = "run_after_step", .steps_first = 3},
    {.name = "repeated_run", .loss = 0.05, .runs = 3},
};

/// Sparse pseudo-random row-normalized S; with `dangling`, every seventh
/// row is left empty.
trust::SparseMatrix width_matrix(std::size_t n, bool dangling) {
  trust::SparseMatrix::Builder b(n);
  Rng rng(0xb10c + n);
  for (gossip::NodeId i = 0; i < n; ++i) {
    if (dangling && i % 7 == 3) continue;
    const std::size_t degree = 1 + rng.next_below(std::min<std::size_t>(n, 12));
    for (std::size_t k = 0; k < degree; ++k)
      b.add(i, rng.next_below(n), rng.next_double(0.1, 1.0));
  }
  return std::move(b).build().row_normalized();
}

struct Outcome {
  std::vector<std::uint64_t> counters;
  std::vector<double> values;
  std::vector<trace::TraceRecord> trace;
  std::vector<std::string> events;
};

void add_result(Outcome& out, const gossip::VectorGossipResult& r) {
  out.counters.insert(out.counters.end(),
                      {r.steps, r.converged ? 1u : 0u, r.messages_sent,
                       r.messages_lost, r.triplets_sent, r.active_triplets,
                       r.zero_components_skipped});
}

Outcome run_width(const WidthScenario& sc, std::size_t n, std::size_t width,
                  std::size_t threads) {
  const auto s = width_matrix(n, sc.dangling);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = (1.0 + static_cast<double>(i % 5)) / static_cast<double>(3 * n);
  gossip::PushSumConfig cfg;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = sc.stable_rounds;
  cfg.max_steps = sc.max_steps;
  cfg.loss_probability = sc.loss;
  cfg.neighbors_only = sc.overlay;
  cfg.num_threads = threads;
  gossip::VectorGossip vg(n, cfg, nullptr, width);
  if (width != 0) {
    EXPECT_EQ(vg.block_width(), std::min(width, n));
  }

  if (sc.churn) {
    std::vector<std::uint8_t> alive(n, 1);
    for (std::size_t i = 0; i < n; i += 5) alive[i] = 0;
    vg.set_participants(alive);
  }
  if (sc.adversary) {
    std::vector<double> scale(n, 1.0);
    std::vector<std::uint8_t> withhold(n, 0);
    scale[3] = 1.5;
    scale[10] = 0.5;
    withhold[5] = 1;
    withhold[10] = 1;
    withhold[20] = 1;
    vg.set_adversary(scale, withhold);
  }
  graph::Graph g(n);
  if (sc.overlay) {
    Rng grng(0x0fe7 + n);
    g = graph::make_erdos_renyi(n, n * 3, grng);
    graph::make_connected(g, grng);
  }

  const std::string stem = ::testing::TempDir() + "gt_width_" +
                           std::to_string(::getpid()) + "_" + sc.name + "_" +
                           std::to_string(n) + "_" + std::to_string(width) +
                           "_" + std::to_string(threads);
  trace::TraceConfig tcfg;
  tcfg.path = stem + ".trace";
  trace::TraceSink sink(tcfg);
  telemetry::EventLogConfig lcfg;
  lcfg.path = stem + ".jsonl";
  lcfg.deterministic_ts = true;

  Outcome out;
  Rng rng(0x5eed + n);
  {
    telemetry::EventLog log(lcfg);
    vg.set_trace(&sink);
    vg.set_event_log(&log, 3);
    vg.initialize(s, v);
    gossip::VectorGossipResult stepped;
    for (std::size_t k = 0; k < sc.steps_first; ++k) {
      vg.step(rng, &g, stepped);
      add_result(out, stepped);
    }
    for (std::size_t k = 0; k < sc.runs; ++k) add_result(out, vg.run(rng, &g));
  }
  out.counters.push_back(rng.next_u64());
  for (gossip::NodeId i = 0; i < n; ++i)
    out.counters.push_back(vg.active_components(i));

  for (gossip::NodeId i = 0; i < n; ++i)
    for (gossip::NodeId j = 0; j < n; ++j) out.values.push_back(vg.estimate(i, j));
  for (gossip::NodeId j = 0; j < n; ++j) {
    out.values.push_back(vg.column_x_mass(j));
    out.values.push_back(vg.column_w_mass(j));
  }
  const auto means = vg.consensus_means();
  out.values.insert(out.values.end(), means.begin(), means.end());

  out.trace = sink.records();
  sink.finish();
  std::remove(tcfg.path.c_str());

  // The gossip_run record's phase seconds are wall-clock readings.
  std::ifstream in(lcfg.path);
  for (std::string line; std::getline(in, line);) {
    for (const char* key :
         {"\"send_phase_seconds\":", "\"bookkeeping_phase_seconds\":"}) {
      const std::size_t at = line.find(key);
      if (at != std::string::npos)
        line.erase(at, line.find_first_of(",}", at) - at);
    }
    out.events.push_back(line);
  }
  std::remove(lcfg.path.c_str());
  return out;
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& what) {
  EXPECT_EQ(got.counters, want.counters) << what;
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        got.values.size() * sizeof(double)),
            0)
      << what << ": estimates, column masses or consensus means differ";
  ASSERT_EQ(got.trace.size(), want.trace.size()) << what;
  if (!got.trace.empty()) {
    EXPECT_EQ(std::memcmp(got.trace.data(), want.trace.data(),
                          got.trace.size() * sizeof(trace::TraceRecord)),
              0)
        << what << ": trace records differ";
  }
  EXPECT_EQ(got.events, want.events) << what;
}

void check_widths(std::size_t n) {
  for (const WidthScenario& sc : kScenarios) {
    const Outcome want = run_width(sc, n, 0, 1);
    if (sc.runs > 0) {  // only run() emits trace and event records
      ASSERT_FALSE(want.trace.empty()) << sc.name;
      ASSERT_FALSE(want.events.empty()) << sc.name;
    }
    for (const std::size_t threads : {1, 8}) {
      for (const std::size_t width : {std::size_t{8}, std::size_t{16},
                                      std::size_t{24}, n, std::size_t{0}}) {
        if (threads == 1 && width == 0) continue;  // the reference itself
        expect_same(run_width(sc, n, width, threads), want,
                    std::string(sc.name) + " n=" + std::to_string(n) +
                        " width=" + std::to_string(width) +
                        " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(BitIdentityGate, BlockWidthInvarianceN67) { check_widths(67); }

TEST(BitIdentityGate, BlockWidthInvarianceN512) { check_widths(512); }

TEST(VectorGossipBlocks, DerivedWidthFitsHalfOfL2) {
  for (const std::size_t n : {1, 7, 16, 67, 300, 512, 2048, 8192}) {
    const std::size_t b = gossip::VectorGossip::derived_block_width(n);
    EXPECT_GE(b, std::min<std::size_t>(16, n)) << n;
    EXPECT_LE(b, n) << n;
    if (b < n) {
      EXPECT_EQ(b % 8, 0u) << n;
    }
  }
  gossip::VectorGossip vg(67, gossip::PushSumConfig{}, nullptr, 1000);
  EXPECT_EQ(vg.block_width(), 67u);  // a forced width is capped at n
}

}  // namespace
}  // namespace gt
