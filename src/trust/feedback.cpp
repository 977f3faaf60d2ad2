#include "trust/feedback.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace gt::trust {
namespace {

/// The rating of `ratee` in a rater's row, or where it would be inserted.
template <class Row>
auto find(Row& row, NodeId ratee) {
  return std::lower_bound(row.begin(), row.end(), ratee,
                          [](const auto& r, NodeId id) { return r.ratee < id; });
}

}  // namespace

FeedbackLedger::FeedbackLedger(std::size_t n) : n_(n), outbound_(n) {
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("FeedbackLedger: more peers than 32-bit ids");
}

bool FeedbackLedger::record(NodeId rater, NodeId ratee, double value) {
  if (rater >= n_ || ratee >= n_)
    throw std::out_of_range("FeedbackLedger::record: peer id out of range");
  // clamp passes NaN through, and a NaN total would drop the pair from the
  // matrix and absorb every later rating of it.
  if (std::isnan(value))
    throw std::invalid_argument("FeedbackLedger::record: rating is NaN");
  if (rater == ratee) return false;
  value = std::clamp(value, 0.0, 1.0);
  Row& row = outbound_[rater];
  auto it = find(row, ratee);
  if (it == row.end() || it->ratee != ratee) {
    it = row.insert(it, Rating{static_cast<std::uint32_t>(ratee), 0.0});
    ++count_;
  }
  it->total += value;
  return true;
}

std::vector<Feedback> FeedbackLedger::ratings_of(NodeId rater) const {
  if (rater >= n_) throw std::out_of_range("FeedbackLedger::ratings_of");
  std::vector<Feedback> out;
  out.reserve(outbound_[rater].size());
  for (const Rating& r : outbound_[rater])
    out.push_back(Feedback{rater, r.ratee, r.total});
  return out;
}

double FeedbackLedger::raw_score(NodeId rater, NodeId ratee) const {
  const Row& row = outbound_[rater];
  const auto it = find(row, ratee);
  return it == row.end() || it->ratee != ratee ? 0.0 : it->total;
}

SparseMatrix FeedbackLedger::raw_matrix() const {
  // Rows are already sorted by ratee: write them out as compressed rows.
  std::vector<std::size_t> row_ptr(n_ + 1, 0);
  std::vector<Entry> entries;
  entries.reserve(count_);
  for (NodeId i = 0; i < n_; ++i) {
    row_ptr[i] = entries.size();
    for (const Rating& r : outbound_[i])
      if (r.total > 0.0) entries.push_back(Entry{r.ratee, r.total});
  }
  row_ptr[n_] = entries.size();
  return SparseMatrix::from_csr(std::move(row_ptr), std::move(entries));
}

SparseMatrix FeedbackLedger::normalized_matrix() const {
  return raw_matrix().row_normalized();
}

void FeedbackLedger::set_raw(NodeId rater, NodeId ratee, double value) {
  if (rater >= n_ || ratee >= n_)
    throw std::out_of_range("FeedbackLedger::set_raw: peer id out of range");
  if (rater == ratee) return;
  if (value < 0.0) throw std::invalid_argument("FeedbackLedger::set_raw: negative");
  Row& row = outbound_[rater];
  const auto it = find(row, ratee);
  if (it != row.end() && it->ratee == ratee) {
    it->total = value;
  } else {
    row.insert(it, Rating{static_cast<std::uint32_t>(ratee), value});
    ++count_;
  }
}

void FeedbackLedger::decay(double factor, double floor) {
  if (factor <= 0.0 || factor > 1.0)
    throw std::invalid_argument("FeedbackLedger::decay: factor must be in (0, 1]");
  if (factor == 1.0) return;
  for (Row& row : outbound_) {
    std::size_t kept = 0;
    for (Rating& r : row) {
      r.total *= factor;
      if (!(r.total < floor)) row[kept++] = r;
    }
    count_ -= row.size() - kept;
    row.resize(kept);
  }
}

void FeedbackLedger::forget_peer(NodeId peer) {
  if (peer >= n_) throw std::out_of_range("FeedbackLedger::forget_peer");
  count_ -= outbound_[peer].size();
  outbound_[peer].clear();
  for (Row& row : outbound_) {
    const auto it = find(row, peer);
    if (it == row.end() || it->ratee != peer) continue;
    row.erase(it);
    --count_;
  }
}

}  // namespace gt::trust
