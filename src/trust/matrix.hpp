// Sparse trust matrix.
//
// The normalized trust matrix S = (s_ij) of Eq. (1) has one row per rater;
// with power-law feedback (mean ~20 feedbacks per peer at n = 1000) rows are
// sparse, so we store compressed rows. The aggregation iterate of Eq. (2),
// V(t+1) = S^T V(t), is provided both as an exact product (ground truth /
// verification) and consumed entry-wise by the gossip layer.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gt::trust {

using NodeId = std::size_t;

/// One stored entry of a sparse row.
struct Entry {
  NodeId col;
  double value;
};

/// Row-major sparse matrix with CSR-like storage. Immutable after build;
/// construct via Builder, or from_csr() when the rows are already sorted.
class SparseMatrix {
 public:
  class Builder {
   public:
    explicit Builder(std::size_t n) : n_(n), rows_(n) {}

    /// Accumulates `value` into (row, col): duplicate coordinates add up.
    void add(NodeId row, NodeId col, double value);

    /// Finalizes into a SparseMatrix (sorts columns, merges duplicates).
    SparseMatrix build() &&;

   private:
    std::size_t n_;
    std::vector<std::vector<Entry>> rows_;
  };

  /// Takes compressed rows as they are: row r is entries[row_ptr[r],
  /// row_ptr[r + 1]). row_ptr holds n + 1 ascending offsets from 0 to
  /// entries.size(), and each row's columns are ascending, distinct and
  /// below n (checked by assertions only).
  static SparseMatrix from_csr(std::vector<std::size_t> row_ptr,
                               std::vector<Entry> entries);

  std::size_t size() const noexcept { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  std::size_t nonzeros() const noexcept { return entries_.size(); }

  std::span<const Entry> row(NodeId r) const {
    return {entries_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
  }

  double row_sum(NodeId r) const;

  /// Value at (r, c); O(log row-size).
  double at(NodeId r, NodeId c) const;

  /// Every row scaled to sum to 1 (Eq. 1): each entry divided by its
  /// row_sum(). Rows whose sum is <= 0 (peers that issued no feedback) come
  /// out empty; the aggregation layer treats them as uniform via the
  /// dangling mass rule. The rvalue form divides this matrix's own entries
  /// in place and compacts the emptied rows away, so R is never held beside
  /// S; the const form copies and then runs it.
  SparseMatrix row_normalized() &&;
  SparseMatrix row_normalized() const&;

  /// True when every non-empty row sums to 1 within tol.
  bool is_row_stochastic(double tol = 1e-9) const;

  /// Exact transpose product: out_j = sum_i v_i * S_ij, plus uniform
  /// redistribution of "dangling" mass from empty rows — the same rule the
  /// distributed algorithms use, so exact and gossiped results match.
  std::vector<double> transpose_multiply(std::span<const double> v) const;

  /// Indices of rows with no entries (peers with no outbound feedback).
  std::vector<NodeId> empty_rows() const;

  /// Dense copy (tests and tiny examples only).
  std::vector<std::vector<double>> to_dense() const;

 private:
  friend class Builder;
  SparseMatrix() = default;

  std::vector<std::size_t> row_ptr_;
  std::vector<Entry> entries_;
};

}  // namespace gt::trust
