#include "trust/feedback.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace gt::trust {
namespace {

TEST(FeedbackLedger, RecordsAndAccumulates) {
  FeedbackLedger ledger(3);
  ledger.record(0, 1, 1.0);
  ledger.record(0, 1, 0.5);
  ledger.record(0, 2, 1.0);
  EXPECT_DOUBLE_EQ(ledger.raw_score(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(ledger.raw_score(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(ledger.raw_score(1, 0), 0.0);
  EXPECT_EQ(ledger.num_feedbacks(), 2u);
  EXPECT_EQ(ledger.out_degree(0), 2u);
}

TEST(FeedbackLedger, ClampsRatings) {
  FeedbackLedger ledger(2);
  ledger.record(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(ledger.raw_score(0, 1), 1.0);
  ledger.record(0, 1, -3.0);
  EXPECT_DOUBLE_EQ(ledger.raw_score(0, 1), 1.0);
}

TEST(FeedbackLedger, NaNRatingThrowsAndKeepsTheEdge) {
  FeedbackLedger ledger(2);
  ledger.record(0, 1, 1.0);
  EXPECT_THROW(ledger.record(0, 1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  ledger.record(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(ledger.raw_score(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(ledger.normalized_matrix().at(0, 1), 1.0);
}

TEST(FeedbackLedger, IgnoresSelfRatings) {
  FeedbackLedger ledger(2);
  EXPECT_FALSE(ledger.record(1, 1, 1.0));
  EXPECT_DOUBLE_EQ(ledger.raw_score(1, 1), 0.0);
  EXPECT_EQ(ledger.num_feedbacks(), 0u);
  EXPECT_TRUE(ledger.record(1, 0, 1.0));
}

TEST(FeedbackLedger, OutOfRangeThrows) {
  FeedbackLedger ledger(2);
  EXPECT_THROW(ledger.record(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.record(0, 2, 1.0), std::out_of_range);
}

TEST(FeedbackLedger, RawMatrixReflectsScores) {
  FeedbackLedger ledger(3);
  ledger.record(0, 1, 1.0);
  ledger.record(0, 2, 1.0);
  ledger.record(2, 0, 0.5);
  const auto r = ledger.raw_matrix();
  EXPECT_DOUBLE_EQ(r.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(r.at(2, 0), 0.5);
  EXPECT_EQ(r.nonzeros(), 3u);
}

TEST(FeedbackLedger, NormalizedMatrixIsStochastic) {
  FeedbackLedger ledger(3);
  ledger.record(0, 1, 1.0);
  for (int k = 0; k < 3; ++k) ledger.record(0, 2, 1.0);  // r_02 accumulates to 3
  const auto s = ledger.normalized_matrix();
  EXPECT_TRUE(s.is_row_stochastic());
  EXPECT_DOUBLE_EQ(s.at(0, 1), 0.25);
  EXPECT_DOUBLE_EQ(s.at(0, 2), 0.75);
}

TEST(FeedbackLedger, ZeroValueRatingsDropFromMatrix) {
  FeedbackLedger ledger(2);
  ledger.record(0, 1, 0.0);  // a "rated 0" event: no positive trust
  const auto r = ledger.raw_matrix();
  EXPECT_EQ(r.nonzeros(), 0u);
}

TEST(FeedbackLedger, ForgetPeerDropsBothDirections) {
  FeedbackLedger ledger(3);
  ledger.record(0, 1, 1.0);
  ledger.record(1, 2, 1.0);
  ledger.record(2, 1, 1.0);
  ledger.forget_peer(1);
  EXPECT_DOUBLE_EQ(ledger.raw_score(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(ledger.raw_score(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(ledger.raw_score(2, 1), 0.0);
  EXPECT_EQ(ledger.num_feedbacks(), 0u);
}

TEST(FeedbackLedger, ForgetOutOfRangeThrows) {
  FeedbackLedger ledger(2);
  EXPECT_THROW(ledger.forget_peer(5), std::out_of_range);
}

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Random records, overwrites, decays and departures against a std::map
// model. R and S must match the model bit for bit: R its positive totals,
// S each of them divided by its rater's sum taken in ratee order.
TEST(FeedbackLedger, MatchesMapModel) {
  constexpr std::size_t n = 40;
  FeedbackLedger ledger(n);
  std::map<std::pair<NodeId, NodeId>, double> model;
  Rng rng(23);
  for (int op = 0; op < 4000; ++op) {
    const NodeId i = rng.next_below(n);
    const NodeId j = rng.next_below(n);
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 85) {
      const double value = rng.next_double(-0.2, 1.2);
      ASSERT_EQ(ledger.record(i, j, value), i != j);
      if (i != j) model[{i, j}] += std::clamp(value, 0.0, 1.0);
    } else if (kind < 95) {
      const double value = kind < 88 ? 0.0 : rng.next_double(0.0, 5.0);
      ledger.set_raw(i, j, value);
      if (i != j) model[{i, j}] = value;
    } else if (kind < 98) {
      ledger.decay(0.5, 0.05);
      for (auto it = model.begin(); it != model.end();) {
        it->second *= 0.5;
        it = it->second < 0.05 ? model.erase(it) : std::next(it);
      }
    } else {
      ledger.forget_peer(i);
      std::erase_if(model, [i](const auto& e) {
        return e.first.first == i || e.first.second == i;
      });
    }
  }
  ASSERT_EQ(ledger.num_feedbacks(), model.size());
  for (NodeId i = 0; i < n; ++i) {
    std::size_t degree = 0;
    for (const Feedback& f : ledger.ratings_of(i)) {
      const auto it = model.find({i, f.ratee});
      ASSERT_NE(it, model.end());
      EXPECT_TRUE(bit_equal(f.value, it->second));
      EXPECT_TRUE(bit_equal(ledger.raw_score(i, f.ratee), it->second));
      ++degree;
    }
    EXPECT_EQ(ledger.out_degree(i), degree);
  }
  const SparseMatrix r = ledger.raw_matrix();
  const SparseMatrix s = ledger.normalized_matrix();
  ASSERT_EQ(r.size(), n);
  ASSERT_EQ(s.size(), n);
  for (NodeId i = 0; i < n; ++i) {
    std::vector<Entry> positive;  // the model's row, ascending by ratee
    double sum = 0.0;
    for (auto it = model.lower_bound({i, 0}); it != model.end() && it->first.first == i;
         ++it) {
      if (!(it->second > 0.0)) continue;
      positive.push_back(Entry{it->first.second, it->second});
      sum += it->second;
    }
    const auto raw = r.row(i);
    const auto norm = s.row(i);
    ASSERT_EQ(raw.size(), positive.size());
    ASSERT_EQ(norm.size(), positive.size());
    for (std::size_t k = 0; k < positive.size(); ++k) {
      EXPECT_EQ(raw[k].col, positive[k].col);
      EXPECT_TRUE(bit_equal(raw[k].value, positive[k].value));
      EXPECT_EQ(norm[k].col, positive[k].col);
      EXPECT_TRUE(bit_equal(norm[k].value, positive[k].value / sum));
    }
  }
}

}  // namespace
}  // namespace gt::trust
