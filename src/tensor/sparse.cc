#include "tensor/sparse.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.h"

namespace specsync {

void SparseUpdate::Coalesce() {
  if (std::adjacent_find(indices_.begin(), indices_.end(),
                         std::greater_equal<>()) == indices_.end()) {
    return;  // already canonical
  }
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
