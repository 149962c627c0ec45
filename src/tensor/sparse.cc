#include "tensor/sparse.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "tensor/occupancy_bitmap.h"

namespace specsync {

void SparseUpdate::Coalesce() {
  if (increasing_) return;  // already canonical
  std::vector<std::pair<std::uint64_t, double>> entries;
  entries.reserve(indices_.size());
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    entries.emplace_back(indices_[i], values_[i]);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Clear();
  for (const auto& [index, value] : entries) {
    if (!indices_.empty() && indices_.back() == index) {
      values_.back() += value;
    } else {
      Add(index, value);
    }
  }
}

void SparseUpdate::AssignOccupied(OccupancyBitmap& occupied,
                                  std::span<const double> acc,
                                  std::size_t width, double scale) {
  SPECSYNC_CHECK_GT(width, 0u);
  const std::size_t nnz = occupied.Count() * width;
  indices_.resize(nnz);
  values_.resize(nnz);
  std::uint64_t* index = indices_.data();
  double* value = values_.data();
  occupied.Drain([&](std::size_t slot) {
    const std::size_t first = slot * width;
    // subspan is bounds-checked under -D_GLIBCXX_ASSERTIONS, free otherwise.
    const std::span<const double> run = acc.subspan(first, width);
    for (std::size_t k = 0; k < width; ++k) {
      index[k] = first + k;
      value[k] = run[k] * scale;
    }
    index += width;
    value += width;
  });
  increasing_ = true;
  block_width_ = width;
}

void SparseUpdate::ScatterAdd(double alpha, std::span<double> dest) const {
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    SPECSYNC_CHECK_LT(indices_[i], dest.size());
    dest[indices_[i]] += alpha * values_[i];
  }
}

void SparseUpdate::ScaleValues(double alpha) {
  for (double& v : values_) v *= alpha;
}

std::vector<double> ToDense(const SparseUpdate& update, std::size_t size) {
  std::vector<double> dense(size, 0.0);
  update.ScatterAdd(1.0, dense);
  return dense;
}

}  // namespace specsync
