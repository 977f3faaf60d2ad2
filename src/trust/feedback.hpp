// Feedback ledger: the raw local trust scores r_ij of Eq. (1).
//
// After every simulated transaction the client peer rates the server peer in
// [0, 1]; ratings accumulate into r_ij. Each rater's totals live in one
// vector sorted by ratee, so the raw trust matrix R is written straight out
// as compressed rows, and SparseMatrix::row_normalized turns it into the
// stochastic S used by aggregation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trust/matrix.hpp"

namespace gt::trust {

/// One recorded rating event.
struct Feedback {
  NodeId rater;
  NodeId ratee;
  double value;  ///< rating in [0, 1]
};

/// Accumulating store of local trust scores r_ij = sum of ratings i -> j.
class FeedbackLedger {
 public:
  explicit FeedbackLedger(std::size_t n);

  std::size_t num_peers() const noexcept { return n_; }

  /// Number of distinct (rater, ratee) pairs with at least one rating.
  std::size_t num_feedbacks() const noexcept { return count_; }

  /// Records one rating; clamps value into [0, 1] and throws
  /// std::invalid_argument on NaN. Self-ratings ignored — s_ii must stay 0
  /// or a peer could vote for itself. Returns whether the rating was
  /// recorded (false for a self-rating).
  bool record(NodeId rater, NodeId ratee, double value);

  /// Raw accumulated score r_ij (0 when never rated).
  double raw_score(NodeId rater, NodeId ratee) const;

  /// Number of distinct peers node i has rated.
  std::size_t out_degree(NodeId rater) const { return outbound_[rater].size(); }

  /// All ratings issued by a peer, sorted by ratee id. Includes pairs whose
  /// accumulated value is 0 (an explicit "rated bad" differs from "never
  /// interacted" — the QoS/QoF extension needs that distinction).
  std::vector<Feedback> ratings_of(NodeId rater) const;

  /// Raw trust matrix R: the positive totals.
  SparseMatrix raw_matrix() const;

  /// Normalized trust matrix S (Eq. 1): raw_matrix().row_normalized(),
  /// which scales R's own rows in place, so R and S are never held at once.
  SparseMatrix normalized_matrix() const;

  /// Drops all feedback issued by or about `peer` (used when a peer leaves
  /// under churn and its transactions age out).
  void forget_peer(NodeId peer);

  /// Directly sets the accumulated score r_ij (no clamping of the total —
  /// accumulated values legitimately exceed 1). Used by deserialization;
  /// prefer record() for live ratings. Self-pairs rejected like record().
  void set_raw(NodeId rater, NodeId ratee, double value);

  /// Exponential aging: multiplies every accumulated score by `factor`
  /// in (0, 1]; entries decayed below `floor` are dropped entirely.
  /// Called once per reputation-update epoch, this makes fresh behaviour
  /// dominate stale history — the standard forgetting scheme reputation
  /// systems need so a peer cannot coast on (or be doomed by) old ratings.
  void decay(double factor, double floor = 1e-6);

 private:
  /// One rater's accumulated score for one ratee.
  struct Rating {
    std::uint32_t ratee;
    double total;
  };
  using Row = std::vector<Rating>;  // sorted by ratee, distinct ratees

  std::size_t n_;
  std::size_t count_ = 0;
  std::vector<Row> outbound_;
};

}  // namespace gt::trust
