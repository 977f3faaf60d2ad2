#include "trust/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace gt::trust {

void SparseMatrix::Builder::add(NodeId row, NodeId col, double value) {
  if (row >= n_ || col >= n_)
    throw std::out_of_range("SparseMatrix::Builder::add: index out of range");
  rows_[row].push_back(Entry{col, value});
}

SparseMatrix SparseMatrix::Builder::build() && {
  SparseMatrix m;
  m.row_ptr_.resize(n_ + 1, 0);
  std::size_t total = 0;
  for (auto& row : rows_) {
    std::sort(row.begin(), row.end(),
              [](const Entry& a, const Entry& b) { return a.col < b.col; });
    // Merge duplicate columns by accumulation.
    std::size_t w = 0;
    for (std::size_t r = 0; r < row.size(); ++r) {
      if (w > 0 && row[w - 1].col == row[r].col) {
        row[w - 1].value += row[r].value;
      } else {
        row[w++] = row[r];
      }
    }
    row.resize(w);
    total += w;
  }
  m.entries_.reserve(total);
  for (std::size_t r = 0; r < n_; ++r) {
    m.row_ptr_[r] = m.entries_.size();
    m.entries_.insert(m.entries_.end(), rows_[r].begin(), rows_[r].end());
  }
  m.row_ptr_[n_] = m.entries_.size();
  return m;
}

SparseMatrix SparseMatrix::from_csr(std::vector<std::size_t> row_ptr,
                                    std::vector<Entry> entries) {
  assert(!row_ptr.empty() && row_ptr.front() == 0 &&
         row_ptr.back() == entries.size());
  SparseMatrix m;
  m.row_ptr_ = std::move(row_ptr);
  m.entries_ = std::move(entries);
#ifndef NDEBUG
  for (NodeId r = 0; r < m.size(); ++r) {
    assert(m.row_ptr_[r] <= m.row_ptr_[r + 1]);
    const auto row = m.row(r);
    for (std::size_t k = 0; k < row.size(); ++k)
      assert(row[k].col < m.size() && (k == 0 || row[k - 1].col < row[k].col));
  }
#endif
  return m;
}

double SparseMatrix::row_sum(NodeId r) const {
  double s = 0.0;
  for (const auto& e : row(r)) s += e.value;
  return s;
}

double SparseMatrix::at(NodeId r, NodeId c) const {
  const auto entries = row(r);
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), c,
      [](const Entry& e, NodeId col) { return e.col < col; });
  if (it != entries.end() && it->col == c) return it->value;
  return 0.0;
}

SparseMatrix SparseMatrix::row_normalized() && {
  // Rows only shrink, so entry k of a row is read before any write reaches
  // it: the write cursor never passes the read cursor.
  const std::size_t n = size();
  std::size_t out = 0;
  for (NodeId r = 0; r < n; ++r) {
    const std::size_t begin = row_ptr_[r];
    const std::size_t end = row_ptr_[r + 1];
    const double s = row_sum(r);
    row_ptr_[r] = out;
    if (s <= 0.0) continue;
    for (std::size_t k = begin; k < end; ++k)
      entries_[out++] = Entry{entries_[k].col, entries_[k].value / s};
  }
  if (n > 0) row_ptr_[n] = out;
  entries_.resize(out);
  return std::move(*this);
}

SparseMatrix SparseMatrix::row_normalized() const& {
  return SparseMatrix(*this).row_normalized();
}

bool SparseMatrix::is_row_stochastic(double tol) const {
  for (NodeId r = 0; r < size(); ++r) {
    if (row(r).empty()) continue;
    if (std::abs(row_sum(r) - 1.0) > tol) return false;
  }
  return true;
}

std::vector<double> SparseMatrix::transpose_multiply(std::span<const double> v) const {
  const std::size_t n = size();
  if (v.size() != n)
    throw std::invalid_argument("transpose_multiply: vector size mismatch");
  std::vector<double> out(n, 0.0);
  double dangling_mass = 0.0;
  for (NodeId r = 0; r < n; ++r) {
    const auto entries = row(r);
    if (entries.empty()) {
      dangling_mass += v[r];
      continue;
    }
    const double vr = v[r];
    if (vr == 0.0) continue;
    for (const auto& e : entries) out[e.col] += vr * e.value;
  }
  if (dangling_mass > 0.0 && n > 0) {
    const double share = dangling_mass / static_cast<double>(n);
    for (auto& x : out) x += share;
  }
  return out;
}

std::vector<NodeId> SparseMatrix::empty_rows() const {
  std::vector<NodeId> out;
  for (NodeId r = 0; r < size(); ++r)
    if (row(r).empty()) out.push_back(r);
  return out;
}

std::vector<std::vector<double>> SparseMatrix::to_dense() const {
  const std::size_t n = size();
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  for (NodeId r = 0; r < n; ++r)
    for (const auto& e : row(r)) dense[r][e.col] = e.value;
  return dense;
}

}  // namespace gt::trust
