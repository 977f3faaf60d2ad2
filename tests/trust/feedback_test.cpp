#include "trust/feedback.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

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
  ledger.record(1, 1, 1.0);
  EXPECT_DOUBLE_EQ(ledger.raw_score(1, 1), 0.0);
  EXPECT_EQ(ledger.num_feedbacks(), 0u);
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

}  // namespace
}  // namespace gt::trust
