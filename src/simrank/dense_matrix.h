#ifndef SIMRANK_SIMRANK_DENSE_MATRIX_H_
#define SIMRANK_SIMRANK_DENSE_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace simrank {

/// Square row-major dense matrix of doubles. Used by the all-pairs
/// baselines, whose O(n^2) footprint is exactly the scalability wall the
/// paper's Table 4 demonstrates — so this type deliberately stays a plain
/// dense array and reports its own memory use.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  /// Creates an n x n matrix initialized to `fill`.
  explicit DenseMatrix(size_t n, double fill = 0.0)
      : n_(n), data_(n * n, fill) {}

  size_t n() const { return n_; }

  double At(size_t i, size_t j) const {
    SIMRANK_CHECK_LT(i, n_);
    SIMRANK_CHECK_LT(j, n_);
    return data_[i * n_ + j];
  }
  double& At(size_t i, size_t j) {
    SIMRANK_CHECK_LT(i, n_);
    SIMRANK_CHECK_LT(j, n_);
    return data_[i * n_ + j];
  }

  /// Unchecked row access for hot loops.
  const double* Row(size_t i) const { return data_.data() + i * n_; }
  double* Row(size_t i) { return data_.data() + i * n_; }

  void Swap(DenseMatrix& other) {
    std::swap(n_, other.n_);
    data_.swap(other.data_);
  }

  /// Largest absolute entry-wise difference; used by convergence tests.
  double MaxAbsDiff(const DenseMatrix& other) const {
    SIMRANK_CHECK_EQ(n_, other.n_);
    double worst = 0.0;
    for (size_t i = 0; i < data_.size(); ++i) {
      const double diff = data_[i] - other.data_[i];
      worst = std::max(worst, diff < 0 ? -diff : diff);
    }
    return worst;
  }

  uint64_t MemoryBytes() const { return data_.capacity() * sizeof(double); }

 private:
  size_t n_ = 0;
  std::vector<double> data_;
};

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_DENSE_MATRIX_H_
