// serve-freshness: ingest-to-visible latency through the stock repserved
// daemon (n = 512, the real fold loop: ledger -> S build ->
// GossipTrustEngine refold -> snapshot publish).
//
// Two client connections, one thread each:
//   * ingest: open-loop INGEST frames at a fixed rate; between sends it
//     polls HEALTH every 5 ms. An INGEST counts as visible at the first
//     HEALTH reply whose folded-through count (ingest_enqueued -
//     staleness_frames) covers its position, confirmed by a LOOKUP of its
//     ratee at that epoch or later. After the measured stream, unmeasured
//     INGESTs keep the fold loop turning until every measured one is seen.
//   * lookup: a fixed-rate open-loop BATCH_LOOKUP stream beside the
//     writes while the fold loop keeps publishing.
// repserved runs on CPUs 0-1, the ingest thread on CPU 2, the lookup
// thread on CPU 3. The daemon's seed ledger is the same in every run
// (kLedgerSeed); --seed draws the INGEST and lookup streams. The cold
// aggregation takes 10 to 15 cycles depending on the ledger, so a
// per-seed ledger would make set-up differ in work from seed to seed.
// Checks: every HEALTH mass gap <= 1e-9; every read of all scores comes
// from one epoch and sums to 1 within 1e-9; the startup publish matches
// baseline::power_iteration on the seed ledger within engine_test's bounds
// (RMS relative error < 0.05, Kendall tau > 0.9); the run_cycle replay loop
// reproduces GossipTrustEngine::run bit for bit. The agreement of the final,
// warm-refolded scores with power iteration on the replayed ledger is
// measured and reported (fresh.final_*), not gated: see final_agreement().
//
// Traced pass: the live run, plus an in-process replay of the daemon's
// first refolds (the seed ledger and the INGESTs each fold covered, as
// HEALTH reported them) with a span around every layer call of a fold,
// then trace_sharded_pushsum (see workloads.hpp). fold.coverage compares
// the replay's layer spans with the live folds' own wall time from HEALTH.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>
#include <unistd.h>

#include "baseline/power_iteration.hpp"
#include "client.hpp"
#include "common/powerlaw.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/engine.hpp"
#include "core/power_nodes.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"
#include "spans.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace serve = gt::serve;
namespace core = gt::core;

constexpr std::size_t kN = 512;
constexpr std::uint64_t kLedgerSeed = 1;  ///< repserved --seed: the seed ledger
constexpr std::size_t kRefold = 250;
constexpr double kIngestRate = 500.0;     ///< INGEST frames/s
constexpr double kLookupRate = 1000.0;    ///< background BATCH_LOOKUP frames/s
constexpr std::size_t kBatch = 64;
constexpr double kZipf = 0.8;
constexpr double kPollS = 0.005;          ///< HEALTH poll interval
constexpr double kDrainTimeoutS = 40.0;
constexpr std::size_t kSetups = 9;        ///< daemon starts; setup_s is their median
constexpr std::size_t kCheckN = 128;      ///< size of the bit-identity check
/// Live refolds the traced replay redoes (about 0.4 s each). fold.coverage
/// is the median over them of replayed span time / live fold time.
constexpr std::size_t kReplayFolds = 7;
constexpr double kMassGapLimit = 1e-9;

struct Ingest {
  std::uint64_t rater = 0, ratee = 0;
  double value = 0.0;
};

std::vector<Ingest> make_ingests(std::uint64_t seed, std::size_t n,
                                 std::size_t count) {
  gt::Rng rng(gt::mix64(seed, 21));
  std::vector<Ingest> out(count);
  for (auto& in : out) {
    in.rater = rng.next_below(n);
    in.ratee = rng.next_below(n - 1);
    if (in.ratee >= in.rater) ++in.ratee;  // never a self-rating
    in.value = rng.next_double();
  }
  return out;
}

/// The seed state repserved builds from --seed: same generator calls, same
/// order, so the ledger and the RNG position match the daemon's.
void seed_ledger(std::size_t n, std::uint64_t seed, gt::trust::FeedbackLedger& ledger,
                 gt::Rng& rng) {
  rng = gt::Rng(seed);
  const std::vector<double> qualities =
      gt::trust::draw_service_qualities(n, n / 10, rng);
  gt::trust::FeedbackGenConfig gen;
  gen.n = n;
  gt::trust::generate_honest_feedback(ledger, qualities, gen, rng);
}

struct FoldOutcome {
  std::vector<double> v;
  std::vector<core::CycleStats> cycles;
  bool converged = false;
};

/// GossipTrustEngine::run's loop, re-driven through the public run_cycle
/// API so each cycle gets its own span.
FoldOutcome fold_cycles(core::GossipTrustEngine& engine,
                        const gt::trust::SparseMatrix& s, std::vector<double> warm,
                        gt::Rng& rng, Tracer& t, const char* span,
                        std::uint64_t trace_id, std::int64_t parent) {
  FoldOutcome out;
  out.v = std::move(warm);
  std::vector<core::NodeId> power;
  for (std::size_t c = 0; c < engine.config().max_cycles; ++c) {
    Scope sc(t, span, trace_id, parent);
    const core::CycleStats st = engine.run_cycle(s, out.v, power, rng);
    out.cycles.push_back(st);
    if (!st.degraded && st.change_from_previous < engine.config().delta) {
      out.converged = true;
      break;
    }
  }
  return out;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs GossipTrustEngine::run and fold_cycles from the same state and
/// compares scores, cycle count and the RNG position afterwards.
bool replay_matches_run(std::size_t n, const gt::trust::SparseMatrix& s,
                        const std::vector<double>& warm, const gt::Rng& rng,
                        std::string* detail) {
  core::GossipTrustEngine a(n, core::GossipTrustConfig{});
  core::GossipTrustEngine b(n, core::GossipTrustConfig{});
  gt::Rng ra = rng, rb = rng;
  const core::AggregationResult ref = a.run(s, ra, nullptr, warm);
  Tracer off(false);
  const FoldOutcome mine = fold_cycles(b, s, warm, rb, off, "check", 0, -1);
  const bool ok = bits_equal(ref.scores, mine.v) &&
                  ref.cycles.size() == mine.cycles.size() &&
                  ra.next_u64() == rb.next_u64();
  *detail = "n=" + std::to_string(n) + ": run() took " +
            std::to_string(ref.cycles.size()) + " cycles, replay " +
            std::to_string(mine.cycles.size());
  return ok;
}

/// The small-n bit-identity check every run makes: a cold fold and one
/// warm fold after a batch of ingests.
void check_replay_small(std::uint64_t seed, Report& report) {
  gt::trust::FeedbackLedger ledger(kCheckN);
  gt::Rng rng;
  seed_ledger(kCheckN, seed, ledger, rng);
  const auto s0 = ledger.normalized_matrix();
  core::GossipTrustEngine engine(kCheckN, core::GossipTrustConfig{});
  std::string detail;
  report.check(replay_matches_run(kCheckN, s0, engine.initial_scores(), rng, &detail),
               "fresh.replay_bit_identical_cold", detail);
  const core::AggregationResult cold = engine.run(s0, rng);
  for (const Ingest& in : make_ingests(seed, kCheckN, kRefold))
    ledger.record(in.rater, in.ratee, in.value);
  report.check(replay_matches_run(kCheckN, ledger.normalized_matrix(), cold.scores,
                                  rng, &detail),
               "fresh.replay_bit_identical_warm", detail);
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t left = t - now_ns();
  if (left > 200'000)
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
  while (now_ns() < t) {
  }
}

bool fetch_health(int fd, serve::HealthPayload* h) {
  std::vector<std::uint8_t> req, payload;
  serve::encode_health(req);
  return request(fd, req, serve::Op::kHealthResp, payload) &&
         serve::decode_health_resp(payload.data(), payload.size(), h);
}

bool fetch_metrics(int fd, serve::MetricsPayload* m) {
  std::vector<std::uint8_t> req, payload;
  serve::encode_metrics(req);
  return request(fd, req, serve::Op::kMetricsResp, payload) &&
         serve::decode_metrics_resp(payload.data(), payload.size(), m);
}

/// BATCH_LOOKUP of `ids`; fills (epoch, score) per id.
bool batch_lookup(int fd, const std::vector<std::uint64_t>& ids,
                  std::vector<serve::LookupResp>* out) {
  std::vector<std::uint8_t> req, payload;
  serve::encode_batch_lookup(req, ids.data(), ids.size());
  if (!request(fd, req, serve::Op::kBatchLookupResp, payload)) return false;
  std::uint32_t count = 0;
  const std::uint8_t* e = serve::decode_batch_resp(payload.data(), payload.size(), &count);
  if (e == nullptr || count != ids.size()) return false;
  out->resize(count);
  for (std::uint32_t i = 0; i < count; ++i, e += 16)
    (*out)[i] = {serve::get_u64(e), serve::get_f64(e + 8)};
  return true;
}

struct IngestSide {
  std::vector<double> fresh_ms;  ///< per measured INGEST
  std::vector<LiveFold> folds;   ///< every refold seen, in order
  Lateness lateness;
  std::uint64_t measured = 0;    ///< measured INGESTs sent
  std::uint64_t sent = 0;        ///< all INGESTs sent (measured + flush)
  std::uint64_t invisible = 0;   ///< measured INGESTs never seen
  std::uint64_t unconfirmed = 0; ///< LOOKUP below the covering epoch
  std::uint64_t out_of_order = 0;
  std::uint64_t polls = 0;
  double max_mass_gap = 0.0;
  std::uint64_t limbo_max = 0;
  bool io_error = false;
};

IngestSide run_ingest_side(int fd, const std::vector<Ingest>& ingests,
                           double seconds, bool poll_metrics) {
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  IngestSide r;
  r.measured = static_cast<std::uint64_t>(std::llround(kIngestRate * seconds));
  FreshnessMatcher matcher;
  std::vector<FreshnessMatcher::Pending> released;
  std::vector<std::uint64_t> ratees;
  std::vector<serve::LookupResp> confirm;
  std::vector<std::uint8_t> req, payload;
  const OpenLoopSchedule sched(now_ns() + 1'000'000, kIngestRate);
  const std::int64_t poll_ns = static_cast<std::int64_t>(kPollS * 1e9);
  const std::int64_t give_up =
      sched.due_ns(r.measured) + static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
  std::int64_t next_poll = sched.due_ns(0);
  LiveFold prev_fold;

  while (!r.io_error) {
    const bool flushing = r.sent >= r.measured;
    if (flushing && matcher.pending() == 0) break;
    if (now_ns() > give_up || r.sent >= ingests.size()) break;
    const std::int64_t due = sched.due_ns(r.sent);
    if (due <= next_poll) {
      sleep_until_ns(due);
      const Ingest& in = ingests[r.sent];
      req.clear();
      serve::encode_ingest(req, in.rater, in.ratee, in.value);
      const std::int64_t t_send = now_ns();
      std::uint64_t position = 0;
      if (!request(fd, req, serve::Op::kIngestResp, payload) ||
          !serve::decode_ingest_resp(payload.data(), payload.size(), &position)) {
        r.io_error = true;
        break;
      }
      if (position != r.sent + 1) ++r.out_of_order;
      if (r.sent < r.measured) {
        r.lateness.record(due, t_send);
        matcher.add({position, in.ratee, due});
      }
      ++r.sent;
      continue;
    }
    sleep_until_ns(next_poll);
    next_poll = std::max(next_poll + poll_ns, now_ns());
    serve::HealthPayload h;
    if (!fetch_health(fd, &h)) {
      r.io_error = true;
      break;
    }
    const std::int64_t t_reply = now_ns();
    ++r.polls;
    r.max_mass_gap = std::max(r.max_mass_gap, h.mass_gap);
    // The fold loop writes a fold's HEALTH fields one relaxed atomic at a
    // time, so one reply may mix two folds; a fold is taken from two
    // replies in a row that agree. The startup publish reports 0 s.
    const LiveFold fold{h.refolds,
                        FreshnessMatcher::folded_through(h.ingest_enqueued,
                                                         h.staleness_frames),
                        h.last_fold_seconds};
    if (fold.seconds > 0.0 && fold == prev_fold &&
        (r.folds.empty() || fold.refold != r.folds.back().refold))
      r.folds.push_back(fold);
    prev_fold = fold;
    if (poll_metrics && r.polls % 20 == 0) {
      serve::MetricsPayload m;
      if (fetch_metrics(fd, &m))
        r.limbo_max = std::max(r.limbo_max, m.counter(serve::MetricsCounter::kLimboSize));
    }
    released.clear();
    if (matcher.match(h.ingest_enqueued, h.staleness_frames, released) == 0) continue;
    ratees.clear();
    for (const auto& p : released) ratees.push_back(p.ratee);
    if (!batch_lookup(fd, ratees, &confirm)) {
      r.io_error = true;
      break;
    }
    for (std::size_t i = 0; i < released.size(); ++i) {
      if (confirm[i].epoch < h.published_epoch) ++r.unconfirmed;
      r.fresh_ms.push_back(static_cast<double>(t_reply - released[i].due_ns) * 1e-6);
    }
  }
  r.invisible = matcher.pending() + (r.measured > r.sent ? r.measured - r.sent : 0);
  return r;
}

struct Agreement {
  double rms = 0.0;  ///< RMS relative error (paper Eq. 8)
  double tau = 0.0;  ///< Kendall tau
};

struct Live {
  IngestSide ingest;
  OpenLoopResult lookup;
  double peak_rss_mb = 0.0;
  std::vector<double> setup_s;
  std::uint64_t reclaimed = 0;
  Agreement final;
};

/// Served scores against baseline::power_iteration on `ledger`.
Agreement agreement(const gt::trust::FeedbackLedger& ledger,
                    const std::vector<double>& served) {
  const core::GossipTrustConfig cfg;
  const auto exact = gt::baseline::power_iteration(ledger.normalized_matrix(), cfg.alpha,
                                                   cfg.power_node_fraction);
  return {gt::rms_relative_error(exact.scores, served),
          gt::kendall_tau(exact.scores, served)};
}

/// BATCH_LOOKUP of every node. Every score must come from `epoch`, and the
/// scores of one epoch must sum to 1 within the mass-gap limit.
bool read_all_scores(int fd, std::uint64_t epoch, std::vector<double>* served,
                     Report& report) {
  std::vector<std::uint64_t> all(kN);
  for (std::size_t i = 0; i < kN; ++i) all[i] = i;
  std::vector<serve::LookupResp> got;
  if (!report.check(batch_lookup(fd, all, &got), "fresh.read_all", "BATCH_LOOKUP failed"))
    return false;
  served->assign(kN, 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    if (!report.check(got[i].epoch == epoch, "fresh.one_epoch",
                      "node " + std::to_string(i) + " served from epoch " +
                          std::to_string(got[i].epoch) + ", expected " +
                          std::to_string(epoch)))
      return false;
    (*served)[i] = got[i].score;
    sum += got[i].score;
  }
  return report.check(std::fabs(sum - 1.0) <= kMassGapLimit, "fresh.served_mass",
                      "served scores sum to 1 + " + std::to_string(sum - 1.0));
}

/// Before any INGEST: the startup publish (cold aggregation of the seed
/// ledger) must agree with power iteration within engine_test's bounds.
void check_cold_publish(int fd, Report& report) {
  serve::HealthPayload h;
  if (!report.check(fetch_health(fd, &h) && h.published_epoch == 1,
                    "fresh.cold_health", "HEALTH before load is not the first publish"))
    return;
  std::vector<double> served;
  if (!read_all_scores(fd, h.published_epoch, &served, report)) return;
  gt::trust::FeedbackLedger ledger(kN);
  gt::Rng rng;
  seed_ledger(kN, kLedgerSeed, ledger, rng);
  const Agreement ag = agreement(ledger, served);
  report.check(ag.rms < 0.05, "fresh.cold_scores_vs_power_iteration_rms",
               "RMS relative error " + std::to_string(ag.rms) + " >= 0.05");
  report.check(ag.tau > 0.9, "fresh.cold_scores_vs_power_iteration_tau",
               "Kendall tau " + std::to_string(ag.tau) + " <= 0.9");
}

/// After the load: waits until no fold is running or pending, reads every
/// score, and measures its agreement with power iteration on the ledger the
/// published epoch covers. Reported, not gated: a warm-started refold
/// (GossipTrustEngine::run with a warm vector, as repserved folds) does not
/// return to the power-iteration fixed point even with no new feedback.
Agreement final_agreement(int fd, const std::vector<Ingest>& ingests, std::uint64_t sent,
                          Report& report) {
  serve::HealthPayload h1, h2;
  const std::int64_t give_up = now_ns() + 30'000'000'000LL;
  for (;;) {
    if (!report.check(fetch_health(fd, &h1), "fresh.final_health", "HEALTH failed"))
      return {};
    // A running fold holds >= kRefold frames unreflected; below that with
    // an empty queue, the fold loop is idle.
    if (h1.staleness_frames < kRefold && h1.ingest_backlog == 0) break;
    if (!report.check(now_ns() < give_up, "fresh.final_quiesce",
                      "fold loop still busy 30 s after the last INGEST"))
      return {};
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::vector<double> served;
  if (!read_all_scores(fd, h1.published_epoch, &served, report)) return {};
  if (!report.check(fetch_health(fd, &h2) && h1.published_epoch == h2.published_epoch &&
                        h1.refolds == h2.refolds,
                    "fresh.final_quiesce", "a fold published during the final read"))
    return {};
  const std::uint64_t ft =
      FreshnessMatcher::folded_through(h1.ingest_enqueued, h1.staleness_frames);
  if (!report.check(ft <= sent, "fresh.final_folded_through",
                    "folded-through count exceeds INGESTs sent"))
    return {};
  gt::trust::FeedbackLedger ledger(kN);
  gt::Rng rng;
  seed_ledger(kN, kLedgerSeed, ledger, rng);
  for (std::uint64_t i = 0; i < ft; ++i)
    ledger.record(ingests[i].rater, ingests[i].ratee, ingests[i].value);
  const Agreement ag = agreement(ledger, served);
  std::fprintf(stderr,
               "perfbench: serve-freshness final epoch %llu covers %llu INGESTs: "
               "vs power iteration rms rel err %.4f, kendall tau %.4f\n",
               static_cast<unsigned long long>(h1.published_epoch),
               static_cast<unsigned long long>(ft), ag.rms, ag.tau);
  return ag;
}

Live run_live(const Args& a, const std::vector<Ingest>& ingests,
              const std::vector<std::uint64_t>& lookup_ids, Report& report) {
  Live live;
  const std::vector<std::string> args = {
      "--n", std::to_string(kN), "--refold", std::to_string(kRefold),
      "--seed", std::to_string(kLedgerSeed), "--port", "0",
      "--metrics-interval", "0", "--slow-frame-us", "0", "--max-seconds", "170"};
  Repserved daemon;
  for (std::size_t i = 0; i < kSetups; ++i) {
    daemon.stop();
    std::string error;
    if (!report.check(daemon.start(a.repserved, args, 0, 2, 60.0, &error),
                      "fresh.repserved_start", error))
      return live;
    live.setup_s.push_back(daemon.ready_seconds());
  }
  const int fd_ingest = connect_tcp(daemon.port());
  const int fd_lookup = connect_tcp(daemon.port());
  if (!report.check(fd_ingest >= 0 && fd_lookup >= 0, "fresh.connect",
                    "cannot connect to repserved"))
    return live;
  check_cold_publish(fd_ingest, report);

  std::thread lookup_thread([&] {
    pin_this_thread(3);
    const LookupStream stream{&lookup_ids, kBatch, 1};
    const KeyCheck check = [](std::uint64_t id, std::uint64_t epoch, double score) {
      return id < kN && epoch != 0 && std::isfinite(score) && score >= 0.0;
    };
    live.lookup = run_open_loop(fd_lookup, stream, kLookupRate, a.seconds, check);
  });
  pin_this_thread(2);
  live.ingest = run_ingest_side(fd_ingest, ingests, a.seconds, a.trace);
  lookup_thread.join();
  pin_this_thread(0, 4);

  live.final = final_agreement(fd_ingest, ingests, live.ingest.sent, report);
  serve::MetricsPayload m;
  if (report.check(fetch_metrics(fd_ingest, &m), "fresh.metrics_opcode",
                   "METRICS request failed")) {
    live.reclaimed = m.counter(serve::MetricsCounter::kSnapshotsReclaimed);
    live.ingest.limbo_max =
        std::max(live.ingest.limbo_max, m.counter(serve::MetricsCounter::kLimboSize));
  }
  live.peak_rss_mb = daemon.peak_rss_mb();
  ::close(fd_ingest);
  ::close(fd_lookup);
  daemon.stop();
  return live;
}

struct ReplayResult {
  double untraced_s = 0.0;  ///< fold loop wall, tracing off
  double traced_s = 0.0;
  std::vector<core::CycleStats> cycles;  ///< every warm-fold cycle, traced pass
  std::uint64_t ingests = 0;
  std::size_t folds = 0;
};

/// In-process replay: repserved's seed ledger and cold fold, then the live
/// daemon's first warm folds, each over the INGESTs up to that fold's
/// folded-through count. Same ledger, same RNG stream, same warm vector:
/// each replayed fold does the work its live counterpart did. Pass 0 runs
/// untraced (and checks the first warm fold against GossipTrustEngine::run
/// at full n); pass 1 records spans.
ReplayResult replay(const std::vector<Ingest>& ingests,
                    const std::vector<LiveFold>& live_folds, Tracer& tracer,
                    Report& report) {
  ReplayResult rr;
  Tracer off(false);
  const core::GossipTrustConfig cfg;
  for (int pass = 0; pass < 2; ++pass) {
    Tracer& t = pass == 1 ? tracer : off;
    gt::trust::FeedbackLedger ledger(kN);
    gt::Rng rng;
    core::GossipTrustEngine engine(kN, cfg);
    serve::ReputationStore store;
    std::vector<double> scores;
    {
      Scope setup(t, "setup", 0);
      seed_ledger(kN, kLedgerSeed, ledger, rng);
      std::optional<gt::trust::SparseMatrix> s;
      {
        Scope sb(t, "setup.s_build", 0, setup.id());
        s.emplace(ledger.normalized_matrix());
      }
      scores = fold_cycles(engine, *s, engine.initial_scores(), rng, t, "setup.cycle", 0,
                           setup.id())
                   .v;
      Scope pub(t, "setup.publish", 0, setup.id());
      store.publish(scores);
    }
    std::vector<serve::FeedbackUpdate> drained;
    std::int64_t t0 = now_ns();
    for (std::size_t f = 0; f < live_folds.size(); ++f) {
      const std::uint64_t id = f + 1;
      {
        Scope enq(t, "serve.ingest.enqueue", id);
        for (std::size_t i = f == 0 ? 0 : live_folds[f - 1].folded_through;
             i < live_folds[f].folded_through; ++i)
          store.enqueue_feedback({ingests[i].rater, ingests[i].ratee, ingests[i].value});
      }
      std::optional<gt::trust::SparseMatrix> check_s;
      std::vector<double> check_warm;
      gt::Rng check_rng;
      {
        Scope fold(t, "fold", id);
        {
          Scope s(t, "serve.ingest.drain", id, fold.id());
          store.drain_feedback(drained);
        }
        {
          Scope s(t, "trust.ledger.record", id, fold.id());
          for (const auto& d : drained)
            ledger.record(static_cast<gt::trust::NodeId>(d.rater),
                          static_cast<gt::trust::NodeId>(d.ratee), d.value);
        }
        std::optional<gt::trust::SparseMatrix> s;
        {
          Scope sb(t, "trust.s_build", id, fold.id());
          s.emplace(ledger.normalized_matrix());
        }
        if (pass == 0 && f == 0) {  // state for the full-n identity check
          check_s = s;
          check_warm = scores;
          check_rng = rng;
        }
        FoldOutcome out = fold_cycles(engine, *s, scores, rng, t, "core.cycle", id, fold.id());
        scores = std::move(out.v);
        if (pass == 1)
          rr.cycles.insert(rr.cycles.end(), out.cycles.begin(), out.cycles.end());
        Scope pub(t, "serve.store.publish", id, fold.id());
        store.publish(scores);
      }
      {
        Scope mix(t, "core.mix", id);
        const auto power = core::select_power_nodes(scores, cfg.power_node_fraction);
        std::vector<double> mixed = scores;
        core::apply_power_node_mix(mixed, power, cfg.alpha);
      }
      if (check_s) {
        const std::int64_t paused = now_ns();
        std::string detail;
        report.check(replay_matches_run(kN, *check_s, check_warm, check_rng, &detail),
                     "fresh.replay_bit_identical_full", detail);
        t0 += now_ns() - paused;  // the check is not part of the fold loop's time
      }
    }
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    (pass == 1 ? rr.traced_s : rr.untraced_s) = wall;
  }
  rr.ingests = live_folds.empty() ? 0 : live_folds.back().folded_through;
  rr.folds = live_folds.size();
  return rr;
}

}  // namespace

void run_serve_freshness(const Args& a, Report& report) {
  check_replay_small(a.seed, report);

  // Enough INGESTs for the measured stream plus the unmeasured flush tail.
  const std::vector<Ingest> ingests = make_ingests(
      a.seed, kN, static_cast<std::size_t>(kIngestRate * (a.seconds + kDrainTimeoutS + 5)));
  gt::Rng lrng(gt::mix64(a.seed, 22));
  const gt::ZipfSampler zipf(kN, kZipf);
  std::vector<std::uint64_t> lookup_ids(kBatch * 4096);
  for (auto& id : lookup_ids) id = zipf.sample(lrng);

  Live live = run_live(a, ingests, lookup_ids, report);
  const IngestSide& in = live.ingest;
  const OpenLoopResult& lk = live.lookup;
  report.count(in.measured + lk.frames,
               in.invisible + in.unconfirmed + (lk.frames - lk.answered) + lk.bad_frames);
  if (live.setup_s.size() < kSetups) return;  // repserved never came up
  report.check(!in.io_error && !lk.io_error, "fresh.io",
               "connection error during the run");
  report.check(in.invisible == 0, "fresh.all_visible",
               std::to_string(in.invisible) + " INGESTs never became visible");
  report.check(in.unconfirmed == 0, "fresh.lookup_confirms",
               std::to_string(in.unconfirmed) +
                   " LOOKUPs answered below the epoch HEALTH reported");
  report.check(in.out_of_order == 0, "fresh.ingest_order",
               "INGEST positions not consecutive");
  report.check(in.max_mass_gap <= kMassGapLimit, "fresh.health_mass_gap",
               "HEALTH mass gap " + std::to_string(in.max_mass_gap) + " > 1e-9");
  report.check(lk.bad_keys == 0, "fresh.lookup_found",
               "background lookups missed keys");

  std::vector<double> fresh = in.fresh_ms;
  const double p50_ms = percentile(fresh, 50.0);
  const double p90_ms = percentile(fresh, 90.0);
  const double p99_ms = percentile(fresh, 99.0);
  const double fold_rate = fold_ingests_per_s(in.folds);
  std::vector<double> lat = lk.latency_us;
  const double lookup_p50_us = percentile(lat, 50.0);
  const double lookup_p99_us = percentile(lat, 99.0);
  std::fprintf(stderr,
               "perfbench: serve-freshness %zu INGESTs, fresh p50 %.1f ms p90 %.1f ms "
               "p99 %.1f ms (HEALTH poll %.0f ms); lookups p50 %.1f us p99 %.1f us; "
               "fold loop folds %.0f INGESTs/s of fold time\n",
               in.fresh_ms.size(), p50_ms, p90_ms, p99_ms, kPollS * 1e3, lookup_p50_us,
               lookup_p99_us, fold_rate);

  if (!a.trace) {
    report.metric("setup_s", median(live.setup_s), "s");
    report.metric("peak_rss_mb", live.peak_rss_mb, "MiB");
    report.metric("latency_p50_ms", p50_ms, "ms");
    report.metric("latency_p90_ms", p90_ms, "ms");
    return;
  }

  // --- traced pass: in-process replay of the fold ------------------------------
  // The replay chains its folds, so it needs the first ones without a gap.
  // HEALTH counts the startup publish as refold 1.
  bool first_folds_seen = in.folds.size() >= kReplayFolds;
  for (std::size_t k = 0; first_folds_seen && k < kReplayFolds; ++k)
    first_folds_seen = in.folds[k].refold == k + 2;
  if (!report.check(first_folds_seen, "fold.live_folds",
                    "HEALTH did not show each of the first " + std::to_string(kReplayFolds) +
                        " refolds (" + std::to_string(in.folds.size()) + " seen)"))
    return;
  const std::vector<LiveFold> replayed(in.folds.begin(), in.folds.begin() + kReplayFolds);
  Tracer tracer(true);
  pin_this_thread(0);  // the CPU repserved's fold loop ran on
  const ReplayResult rr = replay(ingests, replayed, tracer, report);
  pin_this_thread(0, 4);
  const auto tot = tracer.totals();
  auto total = [&tot](const char* name) {
    const auto it = tot.find(name);
    return it == tot.end() ? Tracer::Totals{} : it->second;
  };
  const double folds = static_cast<double>(rr.folds);
  const double ncycles = static_cast<double>(rr.cycles.size());
  double steps = 0, send_s = 0, book_s = 0, read_s = 0, triplets = 0;
  for (const auto& c : rr.cycles) {
    steps += static_cast<double>(c.gossip_steps);
    send_s += c.send_phase_seconds;
    book_s += c.bookkeeping_phase_seconds;
    read_s += c.readout_seconds;
    triplets += static_cast<double>(c.triplets_sent);
  }
  // repserved times each fold from normalized_matrix() to publish() and
  // reports it in HEALTH. Per fold, the replay's layer spans over that
  // stretch against the live fold's wall time: live work the spans do not
  // see lowers the ratio. The coverage is the median ratio, so a live fold
  // that a host stall slowed does not decide the check.
  std::vector<double> layer_s(replayed.size(), 0.0), ratio;
  for (const Tracer::Span& s : tracer.spans()) {
    const bool layer = std::strcmp(s.name, "trust.s_build") == 0 ||
                       std::strcmp(s.name, "core.cycle") == 0 ||
                       std::strcmp(s.name, "serve.store.publish") == 0;
    if (layer && s.trace_id >= 1 && s.trace_id <= replayed.size())
      layer_s[s.trace_id - 1] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  std::fprintf(stderr, "perfbench: fold replay layer spans / live fold wall (ms):");
  for (std::size_t k = 0; k < replayed.size(); ++k) {
    ratio.push_back(layer_s[k] / replayed[k].seconds);
    std::fprintf(stderr, " %.1f/%.1f", layer_s[k] * 1e3, replayed[k].seconds * 1e3);
  }
  const double coverage = median(ratio);
  std::fprintf(stderr, "; coverage %.4f, unaccounted share %.4f\n", coverage, 1.0 - coverage);
  std::vector<double> live_fold_s;
  for (const LiveFold& f : in.folds) live_fold_s.push_back(f.seconds);
  report.check(coverage >= 0.9, "fold.coverage",
               "layer spans cover " + std::to_string(coverage) +
                   " of the live folds' wall time; " + std::to_string(1.0 - coverage) +
                   " is unaccounted for");
  const double fold_ms = median(live_fold_s) * 1e3;  // every live fold

  report.metric("trust.ledger.record_ns",
                total("trust.ledger.record").total_ns / static_cast<double>(rr.ingests), "ns");
  report.metric("trust.s_build_ms", total("trust.s_build").total_ns / folds * 1e-6, "ms");
  report.metric("core.cycle_ms", total("core.cycle").total_ns / ncycles * 1e-6, "ms");
  report.metric("core.cycles_per_fold", ncycles / folds, "count");
  report.metric("gossip.steps_per_cycle", steps / ncycles, "count");
  report.metric("gossip.send_ms_per_cycle", send_s / ncycles * 1e3, "ms");
  report.metric("gossip.bookkeeping_ms_per_cycle", book_s / ncycles * 1e3, "ms");
  report.metric("gossip.readout_ms_per_cycle", read_s / ncycles * 1e3, "ms");
  report.metric("gossip.wire_bytes_per_cycle", triplets * 24.0 / ncycles, "B");
  report.metric("core.mix_us", total("core.mix").total_ns / folds * 1e-3, "us");
  report.metric("serve.ingest.enqueue_ns",
                total("serve.ingest.enqueue").total_ns / static_cast<double>(rr.ingests), "ns");
  report.metric("serve.ingest.drain_us", total("serve.ingest.drain").total_ns / folds * 1e-3,
                "us");
  report.metric("serve.store.publish_ms",
                total("serve.store.publish").total_ns / folds * 1e-6, "ms");
  report.metric("serve.store.limbo_max", static_cast<double>(in.limbo_max), "count");
  report.metric("serve.store.reclaimed", static_cast<double>(live.reclaimed), "count");
  report.metric("fold.ingests_per_s", fold_rate, "1/s");
  report.metric("fold.ms", fold_ms, "ms");
  report.metric("fold.coverage", coverage, "ratio");
  report.metric("fold.queue_wait_ms", p50_ms - fold_ms, "ms");
  report.metric("setup.cold_fold_ms", total("setup").total_ns * 1e-6, "ms");
  report.metric("fresh.poll_interval_ms", kPollS * 1e3, "ms");
  report.metric("fresh.p99_ms", p99_ms, "ms");
  report.metric("fresh.final_rms_rel_err", live.final.rms, "ratio");
  report.metric("fresh.final_kendall_tau", live.final.tau, "ratio");
  report.metric("fresh.ingest_late_ms_p99", in.lateness.p99_us() * 1e-3, "ms");
  report.metric("serve.lookup_p50_us", lookup_p50_us, "us");
  report.metric("serve.lookup_p99_us", lookup_p99_us, "us");
  report.metric("serve.gen.late_us_p99", lk.lateness.p99_us(), "us");
  report.metric("trace.overhead_frac",
                rr.untraced_s > 0.0 ? rr.traced_s / rr.untraced_s - 1.0 : 0.0, "ratio");
  trace_sharded_pushsum(a.seed, trace_deadline_ns(a), tracer, report);
  report.metric("fail_frac", report.fail_frac(), "ratio");
  report.check(tracer.write(span_path(a)), "trace.write", "cannot write " + span_path(a));
}

}  // namespace pb
