// attack_campaign: seeded attack x alpha matrix over the GossipTrust engine.
//
//   attack_campaign [--seed S] [--out campaign.jsonl] [--trace-dir DIR]
//                   [--n N] [--cycles C] [--threads K] [--alphas a,b,...]
//                   [--attacks name,name,...] [--quick] [--require-detect]
//
// For every (attack archetype, greedy factor alpha) cell the driver runs a
// full aggregation: a seeded honest population transacts each cycle, an
// AttackPlan replayed cycle-by-cycle through an AttackState perturbs the
// run (collusive slander rings, Sybil whitewashing, on-off oscillators,
// gossip-layer liars/withholders), and the engine aggregates under the
// attack. The honest counterfactual ledger (same partner/outcome stream,
// truthful ratings, no ledger wipes) run through fixed power iteration
// with the attacked run's power-node set gives the reference scores, so
// the reported ranking error is attack-induced error, not power-set
// mismatch. Per cell the tool reports Kendall tau, honest RMS error
// (Eq. 8 over never-adversarial peers), malicious reputation gain, the
// power-node capture rate, and whether the trace analyzer's manipulation
// detectors flagged the cell — all into JSONL (`attack_campaign` records,
// deterministic timestamps: same seed => byte-identical file) consumed by
// scripts/report.py --attacks. Exit codes: 0 ok, 2 usage/config error,
// 4 --require-detect mismatch (a seeded attack went undetected or the
// clean control raised a manipulation anomaly).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "attack/attack_plan.hpp"
#include "attack/attack_state.hpp"
#include "attack/detect.hpp"
#include "baseline/power_iteration.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/engine.hpp"
#include "telemetry/event_log.hpp"
#include "threat/models.hpp"
#include "trace/analyzer.hpp"
#include "trace/trace.hpp"
#include "trust/feedback.hpp"

namespace {

using gt::Rng;
using gt::mix64;

struct Options {
  std::uint64_t seed = 42;
  std::string out = "attack_campaign.jsonl";
  std::string trace_dir;
  std::size_t n = 192;
  std::size_t cycles = 24;
  std::size_t threads = 1;
  std::vector<double> alphas{0.0, 0.15};
  std::vector<std::string> attacks{"clean", "slander_ring", "sybil_whitewash",
                                   "on_off", "gossip_inflate"};
  bool require_detect = false;
};

struct CellResult {
  double kendall = 0.0;
  double rms = 0.0;
  double gain = 0.0;
  double capture = 0.0;
  std::size_t attackers = 0;
  std::size_t attack_events = 0;
  bool detected = false;
  std::string detected_types;  // comma-joined manipulation anomaly names
};

/// The manipulation signature each archetype is expected to leave
/// (empty = the control must stay clean).
const char* expected_signature(const std::string& attack) {
  if (attack == "slander_ring") return "feedback_ring";
  if (attack == "sybil_whitewash") return "rank_anomaly";
  if (attack == "on_off") return "rank_anomaly";
  if (attack == "gossip_inflate") return "mass_inflation";
  return "";
}

gt::attack::AttackPlan make_plan(const std::string& attack, std::size_t n,
                                 std::size_t cycles, std::uint64_t seed) {
  using gt::attack::AttackPlan;
  const double start = static_cast<double>(cycles) / 3.0;
  const double end = static_cast<double>(cycles);
  AttackPlan plan;
  if (attack == "clean") return plan;
  if (attack == "slander_ring") {
    gt::attack::RingSpec spec;
    spec.start = start;
    spec.end = end;
    spec.rings = 2;
    spec.ring_size = 6;
    return AttackPlan::random_rings(n, spec, seed);
  }
  if (attack == "sybil_whitewash") {
    Rng rng(mix64(seed, 0x5b11ULL));
    for (const auto node : rng.sample_without_replacement(n, 4))
      plan.sybil_whitewash(start, std::min(start + 6.0, end - 2.0), node);
    return plan;
  }
  if (attack == "on_off") {
    Rng rng(mix64(seed, 0x0501ULL));
    for (const auto node : rng.sample_without_replacement(n, 4))
      plan.oscillator(node, start, end, 6.0, 0.5);
    return plan;
  }
  if (attack == "gossip_inflate") {
    Rng rng(mix64(seed, 0x11a2ULL));
    const auto nodes = rng.sample_without_replacement(n, 4);
    for (std::size_t k = 0; k + 1 < nodes.size(); ++k)
      plan.liar(start, end, nodes[k], 2.5);
    plan.withhold(start, end, nodes.back());
    return plan;
  }
  throw std::invalid_argument("unknown attack archetype: " + attack);
}

/// One transaction both worlds observe: the attacked ledger gets the
/// manipulated rating, the honest counterfactual the truthful one.
void transact(gt::trust::FeedbackLedger& attacked,
              gt::trust::FeedbackLedger& honest,
              gt::trust::FeedbackLedger& burst,
              const gt::attack::AttackState& state,
              const std::vector<double>& quality, std::size_t rater,
              std::size_t ratee) {
  // Defection degrades the delivered service; that part is real, so the
  // truthful rating reflects it too.
  const double outcome =
      quality[ratee] * (state.defecting(ratee) ? 0.15 : 1.0);
  double rating = outcome;
  if (state.colluding(rater))
    rating = state.same_ring(rater, ratee) ? 1.0 : 0.0;
  attacked.record(rater, ratee, rating);
  honest.record(rater, ratee, outcome);
  // The burst ledger holds only this cycle's ratings: slander bias wants
  // fresh per-cycle evidence, not magnitudes confounded by aging.
  burst.record(rater, ratee, rating);
}

CellResult run_cell(const Options& opt, const std::string& attack,
                    double alpha, gt::telemetry::EventLog& events) {
  const std::size_t n = opt.n;
  const std::size_t cycles = opt.cycles;

  gt::attack::AttackPlan plan = make_plan(attack, n, cycles, opt.seed);
  const std::string problem = plan.validate(n);
  if (!problem.empty())
    throw std::invalid_argument("attack plan for " + attack +
                                " failed validation: " + problem);
  gt::attack::AttackState state(n);
  std::size_t next_event = 0;

  // Per-cell seeded streams: population, feedback, and the engine each get
  // an independent substream so archetypes differ only where they attack.
  Rng feed_rng(mix64(opt.seed, mix64(0xfeedULL, std::hash<std::string>{}(attack))));
  Rng engine_rng(mix64(opt.seed, 0xe291e ^ static_cast<std::uint64_t>(alpha * 1e6)));

  std::vector<double> quality(n);
  for (auto& q : quality) q = feed_rng.next_double(0.8, 1.0);

  // Fixed interaction graph, drawn once per cell: each peer re-rates the
  // same partners every cycle. A stationary clean matrix means stationary
  // clean scores — the manipulation detectors then see attack-induced
  // movement, not partner-sampling noise.
  std::vector<std::vector<std::size_t>> partners(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto j : feed_rng.sample_without_replacement(n, 5))
      if (j != i && partners[i].size() < 4) partners[i].push_back(j);
  }

  gt::trust::FeedbackLedger attacked(n), honest(n);
  std::vector<std::uint8_t> alive(n, 1);

  char trace_name[128];
  std::snprintf(trace_name, sizeof(trace_name), "attack_%s_a%g.trace.bin",
                attack.c_str(), alpha);
  const std::filesystem::path trace_path =
      (opt.trace_dir.empty() ? std::filesystem::temp_directory_path()
                             : std::filesystem::path(opt.trace_dir)) /
      trace_name;
  gt::trace::TraceConfig tcfg;
  tcfg.path = trace_path.string();
  tcfg.ring_capacity = std::size_t{1} << 18;
  gt::trace::TraceSink sink(tcfg);

  gt::core::GossipTrustConfig cfg;
  cfg.alpha = alpha;
  cfg.num_threads = opt.threads;
  // Note: the engine's own event log is deliberately NOT attached — its
  // per-cycle records carry wall-clock phase timings, and the campaign
  // JSONL must be byte-identical across same-seed runs.
  gt::core::GossipTrustEngine engine(n, cfg);
  engine.set_trace(&sink);

  std::vector<double> v = engine.initial_scores();
  std::vector<gt::core::NodeId> power;
  std::size_t applied = 0;

  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    // 1. Replay every attack event due at this cycle boundary.
    const auto& evs = plan.events();
    while (next_event < evs.size() &&
           evs[next_event].time <= static_cast<double>(cycle)) {
      const gt::attack::AttackEvent& e = evs[next_event];
      state.apply(e);
      if (e.kind == gt::attack::AttackKind::kSybilLeave) {
        alive[e.a] = 0;
      } else if (e.kind == gt::attack::AttackKind::kSybilRejoin) {
        alive[e.a] = 1;
        // The whitewash: the rejoining identity presents a clean history.
        // Only the attacked world forgets — the wipe IS the manipulation.
        if (e.rate != 0.0) attacked.forget_peer(e.a);
      }
      events.record("attack")
          .field("sim_time", static_cast<double>(cycle))
          .field("index", applied)
          .field("kind", gt::attack::to_string(e.kind))
          .field("node", e.a)
          .field("archetype", attack)
          .field("alpha", alpha);
      ++applied;
      ++next_event;
    }

    // 2. Feedback burst: every live peer re-rates its fixed partners;
    //    colluders additionally flood their ring mates (that extra burst
    //    is the ring's own signature). Both worlds age first —
    //    exponential decay keeps scores tracking *recent* behavior,
    //    which is exactly what an on-off oscillator tries to exploit.
    attacked.decay(0.5, 1e-6);
    honest.decay(0.5, 1e-6);
    gt::trust::FeedbackLedger burst(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i] || state.departed(i)) continue;
      for (const std::size_t j : partners[i]) {
        if (!alive[j] || state.departed(j)) continue;
        transact(attacked, honest, burst, state, quality, i, j);
      }
      if (state.colluding(i)) {
        for (std::size_t m = 0; m < n; ++m)
          if (m != i && state.same_ring(i, m) && alive[m])
            transact(attacked, honest, burst, state, quality, i, m);
      }
    }

    // 3. Mirror the slander-bias series into the trace (same series index
    //    as the engine's probe sweep for this cycle).
    const auto bias = gt::attack::slander_bias(burst, 2);
    gt::attack::emit_rating_bias(sink, cycle, static_cast<double>(cycle),
                                 bias);

    // 4. Aggregate one cycle under the attack.
    const gt::trust::SparseMatrix s = attacked.normalized_matrix();
    engine.set_gossip_adversary(
        state.any_liar() ? state.x_scale() : std::span<const double>{},
        state.any_withholder() ? state.withhold_mask()
                               : std::span<const std::uint8_t>{});
    engine.run_cycle(s, v, power, engine_rng, nullptr, &alive);
  }

  // Ground truth: the honest counterfactual, anchored on the power nodes
  // the attacked system actually chose.
  const auto reference = gt::baseline::fixed_power_iteration(
      honest.normalized_matrix(), alpha, power);

  std::vector<gt::threat::PeerProfile> peers(n);
  for (std::size_t i = 0; i < n; ++i) {
    peers[i].service_quality = quality[i];
    if (state.ever_adversarial(i))
      peers[i].type = gt::threat::PeerType::kIndependentMalicious;
  }

  CellResult res;
  res.attackers = state.num_ever_adversarial();
  res.attack_events = applied;
  res.kendall = gt::kendall_tau(reference.scores, v);
  res.rms = gt::threat::honest_rms_error(peers, reference.scores, v);
  res.gain = gt::threat::malicious_reputation_gain(peers, reference.scores, v);
  std::size_t captured = 0;
  for (const auto p : power)
    if (state.ever_adversarial(p)) ++captured;
  res.capture = power.empty()
                    ? 0.0
                    : static_cast<double>(captured) /
                          static_cast<double>(power.size());

  // In-process manipulation detection on the cell's own trace.
  gt::trace::TraceFileHeader header{};
  header.record_count = sink.records().size();
  header.records_emitted = sink.records_emitted();
  header.node_count = static_cast<std::uint32_t>(n);
  gt::trace::AnalyzerConfig acfg;
  // Skip the convergence transient: scores still re-rank for a couple of
  // sweeps past the attack onset at cycles/3, and a clean alpha-mixed run
  // shows the same settling jumps there.
  acfg.rank_warmup = cycles / 3 + 2;
  const auto summary = gt::trace::analyze_trace(header, sink.records(), acfg);
  std::set<std::string> types;
  for (const auto& a : summary.anomalies) {
    if (a.type == gt::trace::Anomaly::Type::kMassInflation ||
        a.type == gt::trace::Anomaly::Type::kRankAnomaly ||
        a.type == gt::trace::Anomaly::Type::kFeedbackRing)
      types.insert(gt::trace::anomaly_type_name(a.type));
  }
  res.detected = !types.empty();
  for (const auto& t : types) {
    if (!res.detected_types.empty()) res.detected_types += ',';
    res.detected_types += t;
  }
  sink.finish();

  events.record("attack_campaign")
      .field("archetype", attack)
      .field("alpha", alpha)
      .field("n", static_cast<std::uint64_t>(n))
      .field("cycles", static_cast<std::uint64_t>(cycles))
      .field("attackers", static_cast<std::uint64_t>(res.attackers))
      .field("attack_events", static_cast<std::uint64_t>(res.attack_events))
      .field("kendall_tau", res.kendall)
      .field("honest_rms_error", res.rms)
      .field("malicious_gain", std::isfinite(res.gain) ? res.gain : -1.0)
      .field("capture_rate", res.capture)
      .field("detected", res.detected ? 1 : 0)
      .field("detected_types", res.detected_types)
      .field("trace", trace_path.string());
  return res;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] [--out FILE.jsonl] [--trace-dir DIR] "
               "[--n N] [--cycles C] [--threads K] [--alphas a,b] "
               "[--attacks name,name] [--quick] [--require-detect]\n",
               argv0);
  return 2;
}

std::vector<std::string> split_csv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur += *p;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (std::strcmp(arg, "--trace-dir") == 0 && i + 1 < argc) {
      opt.trace_dir = argv[++i];
    } else if (std::strcmp(arg, "--n") == 0 && i + 1 < argc) {
      opt.n = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--cycles") == 0 && i + 1 < argc) {
      opt.cycles = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      opt.threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--alphas") == 0 && i + 1 < argc) {
      opt.alphas.clear();
      for (const auto& tok : split_csv(argv[++i]))
        opt.alphas.push_back(std::strtod(tok.c_str(), nullptr));
    } else if (std::strcmp(arg, "--attacks") == 0 && i + 1 < argc) {
      opt.attacks = split_csv(argv[++i]);
    } else if (std::strcmp(arg, "--quick") == 0) {
      opt.n = 96;
      opt.cycles = 18;
    } else if (std::strcmp(arg, "--require-detect") == 0) {
      opt.require_detect = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.n < 16 || opt.cycles < 6 || opt.alphas.empty() ||
      opt.attacks.empty()) {
    std::fprintf(stderr, "attack_campaign: need n >= 16, cycles >= 6, and "
                         "non-empty --alphas/--attacks\n");
    return 2;
  }
  if (!opt.trace_dir.empty())
    std::filesystem::create_directories(opt.trace_dir);

  gt::telemetry::EventLogConfig lcfg;
  lcfg.path = opt.out;
  lcfg.deterministic_ts = true;  // same seed => byte-identical JSONL
  gt::telemetry::EventLog events(lcfg);
  events.set_context("tool", std::string("attack_campaign"));
  events.set_context("seed", opt.seed);

  bool detect_ok = true;
  std::printf("attack campaign: seed=%llu n=%zu cycles=%zu threads=%zu\n",
              static_cast<unsigned long long>(opt.seed), opt.n, opt.cycles,
              opt.threads);
  std::printf("%-16s %6s %8s %8s %8s %8s %8s  %s\n", "attack", "alpha",
              "tau", "rms", "gain", "capture", "detect", "signatures");
  for (const std::string& attack : opt.attacks) {
    for (const double alpha : opt.alphas) {
      CellResult r;
      try {
        r = run_cell(opt, attack, alpha, events);
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "attack_campaign: cell (%s, %g) failed: %s\n",
                     attack.c_str(), alpha, ex.what());
        return 2;
      }
      std::printf("%-16s %6g %8.4f %8.4f %8.3f %8.2f %8s  %s\n",
                  attack.c_str(), alpha, r.kendall, r.rms, r.gain, r.capture,
                  r.detected ? "yes" : "no",
                  r.detected_types.empty() ? "-" : r.detected_types.c_str());
      const std::string want = expected_signature(attack);
      if (want.empty()) {
        if (r.detected) {
          std::fprintf(stderr,
                       "FAIL: clean control (%s, alpha=%g) raised "
                       "manipulation anomalies: %s\n",
                       attack.c_str(), alpha, r.detected_types.c_str());
          detect_ok = false;
        }
      } else if (r.detected_types.find(want) == std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: attack (%s, alpha=%g) left no %s signature "
                     "(found: %s)\n",
                     attack.c_str(), alpha, want.c_str(),
                     r.detected_types.empty() ? "none"
                                              : r.detected_types.c_str());
        detect_ok = false;
      }
    }
  }
  events.flush();
  std::printf("campaign jsonl -> %s\n", opt.out.c_str());
  if (opt.require_detect && !detect_ok) return 4;
  return 0;
}
