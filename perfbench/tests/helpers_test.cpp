// Tests for perfbench's own measurement helpers on synthetic inputs:
// percentile / quartile math, the open-loop due-time and lateness account,
// the HEALTH folded-through matcher and fold rate, and span self time.
//
//   cmake -S perfbench -B build-perfbench
//   cmake --build build-perfbench --target perfbench_tests
//   ctest --test-dir build-perfbench
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "measure.hpp"
#include "spans.hpp"

namespace pb {
namespace {

TEST(Percentile, NearestRankPicksASample) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.5), 1.0);
  std::vector<double> odd = {5.0, 1.0, 3.0};
  EXPECT_EQ(median(odd), 3.0);
  std::vector<double> one = {7.0};
  EXPECT_EQ(percentile(one, 99.0), 7.0);
  std::vector<double> none;
  EXPECT_TRUE(std::isnan(percentile(none, 50.0)));
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  const Quartiles q = quartiles(ten);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
  const Quartiles three = quartiles({4.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(three.q1, 1.0);
  EXPECT_DOUBLE_EQ(three.q2, 2.0);
  EXPECT_DOUBLE_EQ(three.q3, 4.0);
  // statistics.quantiles([1.0, 3.0], n=4) == [0.5, 2.0, 3.5]
  const Quartiles two = quartiles({3.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.5);
  EXPECT_DOUBLE_EQ(two.q2, 2.0);
  EXPECT_DOUBLE_EQ(two.q3, 3.5);
  const Quartiles single = quartiles({9.0});
  EXPECT_EQ(single.q1, 9.0);
  EXPECT_EQ(single.q3, 9.0);
}

TEST(OpenLoopSchedule, DueTimesDoNotDrift) {
  const OpenLoopSchedule s(1'000, 3.0);  // 333333333.33 ns apart
  EXPECT_EQ(s.due_ns(0), 1'000);
  EXPECT_EQ(s.due_ns(1), 1'000 + 333'333'333);
  EXPECT_EQ(s.due_ns(3), 1'000 + 1'000'000'000);
  // Computed from k, so a million steps land exactly, not k * rounding.
  EXPECT_EQ(s.due_ns(3'000'000), 1'000 + 1'000'000'000'000'000LL);
}

TEST(Lateness, OnlySendsAfterTheirDueTimeAreLate) {
  Lateness l;
  for (int i = 0; i < 98; ++i) l.record(1'000'000, 900'000);  // early: 0 us
  l.record(1'000'000, 1'005'000);                             // 5 us late
  l.record(1'000'000, 1'250'000);                             // 250 us late
  EXPECT_EQ(l.count(), 100u);
  EXPECT_DOUBLE_EQ(l.p99_us(), 5.0);
  EXPECT_DOUBLE_EQ(l.max_us(), 250.0);
  Lateness none;
  EXPECT_EQ(none.p99_us(), 0.0);
}

TEST(OpenLoop, LatencyIsChargedFromTheDueTime) {
  // A stall makes frame 1 go out 400 us late; its reply 50 us after the
  // send reads 450 us, not 50 us.
  const OpenLoopSchedule s(0, 10'000.0);  // due every 100 us
  const std::int64_t reply = s.due_ns(1) + 400'000 + 50'000;
  EXPECT_DOUBLE_EQ(s.latency_us(1, reply), 450.0);
  // Frame 2, sent in the same burst and answered at the same instant, was
  // due 100 us later and reads 350 us.
  EXPECT_DOUBLE_EQ(s.latency_us(2, reply), 350.0);
  // Far into a run the charge is still exact: due times do not drift.
  EXPECT_DOUBLE_EQ(s.latency_us(10'000'000, 1'000'000'000'000LL + 25'000), 25.0);
}

TEST(FreshnessMatcher, ReleasesExactlyTheCoveredPositions) {
  FreshnessMatcher m;
  for (std::uint64_t p = 1; p <= 10; ++p) m.add({p, 100 + p, static_cast<std::int64_t>(p)});
  std::vector<FreshnessMatcher::Pending> out;
  // 10 accepted, 10 stale: nothing folded yet.
  EXPECT_EQ(m.match(10, 10, out), 0u);
  // 10 accepted, 4 stale: positions 1..6 are folded through.
  EXPECT_EQ(m.match(10, 4, out), 6u);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out.front().position, 1u);
  EXPECT_EQ(out.back().position, 6u);
  EXPECT_EQ(out.back().ratee, 106u);
  EXPECT_EQ(m.pending(), 4u);
  // A later reply with a smaller folded-through count releases nothing.
  EXPECT_EQ(m.match(12, 8, out), 0u);
  // Counts past every pending position release the rest.
  EXPECT_EQ(m.match(15, 0, out), 4u);
  EXPECT_EQ(m.pending(), 0u);
}

TEST(FreshnessMatcher, StalenessAboveEnqueuedCoversNothing) {
  EXPECT_EQ(FreshnessMatcher::folded_through(5, 9), 0u);
  EXPECT_EQ(FreshnessMatcher::folded_through(9, 5), 4u);
  FreshnessMatcher m;
  m.add({1, 0, 0});
  std::vector<FreshnessMatcher::Pending> out;
  EXPECT_EQ(m.match(3, 7, out), 0u);
  EXPECT_EQ(m.pending(), 1u);
}

TEST(FoldRate, CountsFramesOfConsecutiveRefoldsOverTheirTime) {
  // Refold 1 is the startup publish. Refolds 2 and 3 take in 250 and 260
  // frames in 0.4 s and 0.6 s. Refold 4 was never seen, so refold 5's
  // frames span two folds and it is left out.
  const std::vector<LiveFold> folds = {{2, 250, 0.4}, {3, 510, 0.6}, {5, 1020, 0.5}};
  EXPECT_DOUBLE_EQ(fold_ingests_per_s(folds), 510.0);
  // Nothing seen after the startup publish: no rate.
  EXPECT_EQ(fold_ingests_per_s({}), 0.0);
  EXPECT_EQ(fold_ingests_per_s({{4, 900, 0.3}}), 0.0);
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer t(true);
  const auto root = t.add("fold", 1, -1, 0, 100);
  t.add("a", 1, root, 10, 30);
  t.add("b", 1, root, 20, 40);    // overlaps a: union [10, 40]
  t.add("c", 1, root, 90, 120);   // clipped to [90, 100]
  const auto tot = t.totals();
  EXPECT_DOUBLE_EQ(tot.at("fold").total_ns, 100.0);
  EXPECT_DOUBLE_EQ(tot.at("fold").self_ns, 60.0);
  EXPECT_DOUBLE_EQ(tot.at("a").self_ns, 20.0);
  EXPECT_EQ(tot.at("c").count, 1u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(false);
  {
    Scope s(t, "x", 0);
    EXPECT_EQ(s.id(), -1);
  }
  EXPECT_TRUE(t.spans().empty());
  EXPECT_TRUE(t.totals().empty());
}

TEST(Report, JsonCarriesEveryFieldAndFailsOnNonFinite) {
  Report r;
  r.count(10, 1);
  r.metric("latency_p50_ms", 1.25, "ms");
  EXPECT_TRUE(r.correct());
  EXPECT_EQ(r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": "
            "{\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  r.metric("bad", std::nan(""), "ms");
  EXPECT_FALSE(r.correct());
}

}  // namespace
}  // namespace pb
