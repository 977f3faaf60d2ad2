#include "trust/feedback.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gt::trust {

void FeedbackLedger::record(NodeId rater, NodeId ratee, double value) {
  if (rater >= n_ || ratee >= n_)
    throw std::out_of_range("FeedbackLedger::record: peer id out of range");
  // clamp passes NaN through, and a NaN total would drop the pair from the
  // matrix and absorb every later rating of it.
  if (std::isnan(value))
    throw std::invalid_argument("FeedbackLedger::record: rating is NaN");
  if (rater == ratee) return;
  value = std::clamp(value, 0.0, 1.0);
  auto [it, inserted] = outbound_[rater].try_emplace(ratee, 0.0);
  it->second += value;
  if (inserted) ++count_;
}

std::vector<Feedback> FeedbackLedger::ratings_of(NodeId rater) const {
  if (rater >= n_) throw std::out_of_range("FeedbackLedger::ratings_of");
  std::vector<Feedback> out;
  out.reserve(outbound_[rater].size());
  for (const auto& [ratee, value] : outbound_[rater])
    out.push_back(Feedback{rater, ratee, value});
  std::sort(out.begin(), out.end(),
            [](const Feedback& a, const Feedback& b) { return a.ratee < b.ratee; });
  return out;
}

double FeedbackLedger::raw_score(NodeId rater, NodeId ratee) const {
  const auto& row = outbound_[rater];
  const auto it = row.find(ratee);
  return it == row.end() ? 0.0 : it->second;
}

SparseMatrix FeedbackLedger::raw_matrix() const {
  SparseMatrix::Builder b(n_);
  for (NodeId i = 0; i < n_; ++i)
    for (const auto& [j, r] : outbound_[i])
      if (r > 0.0) b.add(i, j, r);
  return std::move(b).build();
}

SparseMatrix FeedbackLedger::normalized_matrix() const {
  return raw_matrix().row_normalized();
}

void FeedbackLedger::set_raw(NodeId rater, NodeId ratee, double value) {
  if (rater >= n_ || ratee >= n_)
    throw std::out_of_range("FeedbackLedger::set_raw: peer id out of range");
  if (rater == ratee) return;
  if (value < 0.0) throw std::invalid_argument("FeedbackLedger::set_raw: negative");
  auto [it, inserted] = outbound_[rater].try_emplace(ratee, value);
  if (!inserted) {
    it->second = value;
  } else {
    ++count_;
  }
}

void FeedbackLedger::decay(double factor, double floor) {
  if (factor <= 0.0 || factor > 1.0)
    throw std::invalid_argument("FeedbackLedger::decay: factor must be in (0, 1]");
  if (factor == 1.0) return;
  for (NodeId i = 0; i < n_; ++i) {
    auto& row = outbound_[i];
    for (auto it = row.begin(); it != row.end();) {
      it->second *= factor;
      if (it->second < floor) {
        it = row.erase(it);
        --count_;
      } else {
        ++it;
      }
    }
  }
}

void FeedbackLedger::forget_peer(NodeId peer) {
  if (peer >= n_) throw std::out_of_range("FeedbackLedger::forget_peer");
  count_ -= outbound_[peer].size();
  outbound_[peer].clear();
  for (NodeId i = 0; i < n_; ++i) {
    if (i == peer) continue;
    count_ -= outbound_[i].erase(peer);
  }
}

}  // namespace gt::trust
