#include "trust/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace gt::trust {
namespace {

SparseMatrix small_matrix() {
  SparseMatrix::Builder b(3);
  b.add(0, 1, 2.0);
  b.add(0, 2, 2.0);
  b.add(1, 0, 1.0);
  b.add(2, 0, 3.0);
  b.add(2, 1, 1.0);
  return std::move(b).build();
}

TEST(SparseMatrix, BuildAndAccess) {
  const auto m = small_matrix();
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.nonzeros(), 5u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.row_sum(2), 4.0);
}

TEST(SparseMatrix, BuilderAccumulatesDuplicates) {
  SparseMatrix::Builder b(2);
  b.add(0, 1, 1.0);
  b.add(0, 1, 2.5);
  const auto m = std::move(b).build();
  EXPECT_EQ(m.nonzeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.5);
}

TEST(SparseMatrix, BuilderRejectsOutOfRange) {
  SparseMatrix::Builder b(2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add(0, 5, 1.0), std::out_of_range);
}

TEST(SparseMatrix, RowsSortedByColumn) {
  SparseMatrix::Builder b(3);
  b.add(0, 2, 1.0);
  b.add(0, 0, 1.0);
  const auto m = std::move(b).build();
  const auto row = m.row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].col, 0u);
  EXPECT_EQ(row[1].col, 2u);
}

TEST(SparseMatrix, RowNormalizationEq1) {
  const auto s = small_matrix().row_normalized();
  EXPECT_TRUE(s.is_row_stochastic());
  EXPECT_DOUBLE_EQ(s.at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(s.at(2, 0), 0.75);
  EXPECT_DOUBLE_EQ(s.at(2, 1), 0.25);
}

TEST(SparseMatrix, EmptyRowStaysEmptyAfterNormalize) {
  SparseMatrix::Builder b(3);
  b.add(0, 1, 1.0);
  const auto s = std::move(b).build().row_normalized();
  EXPECT_TRUE(s.row(1).empty());
  EXPECT_TRUE(s.row(2).empty());
  const auto empty = s.empty_rows();
  EXPECT_EQ(empty, (std::vector<NodeId>{1, 2}));
}

// Each row of `s` must be the same row of `raw` divided by raw.row_sum(r),
// bit for bit, and the rows of `raw` that sum to <= 0 must come out empty.
void expect_normalized_bitwise(const SparseMatrix& s, const SparseMatrix& raw) {
  ASSERT_EQ(s.size(), raw.size());
  std::size_t nonzeros = 0;
  for (NodeId r = 0; r < raw.size(); ++r) {
    const double sum = raw.row_sum(r);
    const auto want = raw.row(r);
    const auto got = s.row(r);
    if (sum <= 0.0) {
      EXPECT_TRUE(got.empty()) << "row " << r << " sums to " << sum;
      continue;
    }
    ASSERT_EQ(got.size(), want.size()) << "row " << r;
    nonzeros += got.size();
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].col, want[k].col) << "row " << r;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].value),
                std::bit_cast<std::uint64_t>(want[k].value / sum))
          << "row " << r << " entry " << k;
    }
  }
  EXPECT_EQ(s.nonzeros(), nonzeros);
}

// S built in place from R (the rvalue overload) and the copying overload
// both match that oracle, so they match each other bit for bit.
TEST(SparseMatrix, InPlaceRowNormalizeMatchesCopy) {
  std::vector<SparseMatrix> cases;
  {  // empty first and last rows; zero-sum and negative-sum rows between
    SparseMatrix::Builder b(6);
    b.add(1, 0, 0.1);
    b.add(1, 3, 0.7);
    b.add(1, 5, 1.0 / 3.0);
    b.add(2, 0, 1.0);
    b.add(2, 4, -1.0);  // sums to 0
    b.add(3, 1, -2.0);
    b.add(3, 2, 0.5);  // sums to -1.5
    b.add(4, 0, 3.0);
    b.add(4, 5, 0.2);
    cases.push_back(std::move(b).build());
  }
  {  // n = 1, with and without its one entry
    SparseMatrix::Builder one(1);
    one.add(0, 0, 2.5);
    cases.push_back(std::move(one).build());
    cases.push_back(SparseMatrix::Builder(1).build());
  }
  {  // random weights, some rows non-positive, some empty
    gt::Rng rng(23);
    constexpr std::size_t kN = 50;
    SparseMatrix::Builder b(kN);
    for (NodeId r = 0; r < kN; ++r) {
      if (r % 7 == 0) continue;
      const double sign = r % 5 == 0 ? -1.0 : 1.0;
      for (NodeId c = 0; c < kN; ++c)
        if (rng.next_below(4) == 0) b.add(r, c, sign * rng.next_double(1e-3, 1.0));
    }
    cases.push_back(std::move(b).build());
  }
  for (const SparseMatrix& m : cases) {
    SparseMatrix copy = m;
    expect_normalized_bitwise(std::move(copy).row_normalized(), m);
    expect_normalized_bitwise(m.row_normalized(), m);
  }
}

TEST(SparseMatrix, IsRowStochasticDetectsViolation) {
  const auto raw = small_matrix();
  EXPECT_FALSE(raw.is_row_stochastic());
}

TEST(SparseMatrix, TransposeMultiplyMatchesDense) {
  const auto s = small_matrix().row_normalized();
  const std::vector<double> v{0.5, 0.3, 0.2};
  const auto out = s.transpose_multiply(v);
  const auto dense = s.to_dense();
  for (NodeId j = 0; j < 3; ++j) {
    double expected = 0.0;
    for (NodeId i = 0; i < 3; ++i) expected += v[i] * dense[i][j];
    EXPECT_NEAR(out[j], expected, 1e-15) << "column " << j;
  }
}

TEST(SparseMatrix, TransposeMultiplyPreservesMassWhenStochastic) {
  const auto s = small_matrix().row_normalized();
  const std::vector<double> v{0.2, 0.5, 0.3};
  const auto out = s.transpose_multiply(v);
  double total = 0.0;
  for (const auto x : out) total += x;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(SparseMatrix, DanglingRowSpreadsUniformly) {
  SparseMatrix::Builder b(4);
  b.add(0, 1, 1.0);  // rows 1-3 dangle
  const auto s = std::move(b).build().row_normalized();
  const std::vector<double> v{0.0, 1.0, 0.0, 0.0};
  const auto out = s.transpose_multiply(v);
  for (NodeId j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(out[j], 0.25);
}

TEST(SparseMatrix, TransposeMultiplySizeMismatchThrows) {
  const auto s = small_matrix();
  EXPECT_THROW(s.transpose_multiply(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(SparseMatrix, ToDenseRoundTrip) {
  const auto m = small_matrix();
  const auto dense = m.to_dense();
  for (NodeId i = 0; i < 3; ++i)
    for (NodeId j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(dense[i][j], m.at(i, j));
}

}  // namespace
}  // namespace gt::trust
