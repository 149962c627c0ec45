#include "models/model.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace specsync {

void Gradient::AddTo(double alpha, std::span<double> dest) const {
  if (is_sparse_) {
    sparse_.ScatterAdd(alpha, dest);
  } else {
    Axpy(alpha, dense_, dest);
  }
}

void Gradient::Clear() {
  if (is_sparse_) {
    sparse_.Clear();
  } else {
    Zero(dense_);
  }
}

SumWorkspace& SumWorkspace::ThisThread() {
  thread_local SumWorkspace workspace;
  return workspace;
}

void Gradient::OpenSum(SumWorkspace& workspace) {
  workspace.occupied.Clear();
  workspace.terms = SumWorkspace::Terms::kNone;
  workspace.max_rows = 0;
  sum_ = &workspace;
}

void Gradient::CloseSum(double weight) {
  SPECSYNC_CHECK(sum_ != nullptr) << "no open sum";
  SumWorkspace& ws = *std::exchange(sum_, nullptr);
  const SumWorkspace::Terms terms =
      std::exchange(ws.terms, SumWorkspace::Terms::kNone);
  SPECSYNC_CHECK(terms != SumWorkspace::Terms::kNone) << "an empty sum";
  if (terms == SumWorkspace::Terms::kDense) {
    if (weight != 1.0) Scale(weight, dense_);
    return;
  }
  ResetSparse();
  sparse_.Reserve(ws.max_rows * ws.width);
  sparse_.AssignOccupied(ws.occupied, ws.acc, ws.width, weight);
}

std::span<double> Gradient::DenseTerms(std::size_t dim) {
  if (sum_ == nullptr || sum_->terms == SumWorkspace::Terms::kNone) {
    ResetDense(dim);
    if (sum_ != nullptr) sum_->terms = SumWorkspace::Terms::kDense;
  } else {
    SPECSYNC_CHECK(sum_->terms == SumWorkspace::Terms::kDense)
        << "dense terms added to a sparse sum";
    SPECSYNC_CHECK_EQ(dense_.size(), dim);
  }
  return dense_;
}

SumWorkspace& Gradient::SparseTerms(std::size_t rows, std::size_t width,
                                    std::size_t new_rows) {
  SPECSYNC_CHECK(sum_ != nullptr) << "no open sum";
  SumWorkspace& ws = *sum_;
  if (ws.terms == SumWorkspace::Terms::kNone) {
    ws.terms = SumWorkspace::Terms::kSparse;
    ws.width = width;
  } else {
    SPECSYNC_CHECK(ws.terms == SumWorkspace::Terms::kSparse)
        << "sparse terms added to a dense sum";
    SPECSYNC_CHECK_EQ(ws.width, width);
  }
  ws.max_rows = std::min(ws.max_rows + new_rows, rows);
  if (ws.acc.size() < rows * width) ws.acc.resize(rows * width);
  ws.occupied.Reserve(rows);
  return ws;
}

double Model::FullLoss(std::span<const double> params,
                       std::size_t max_examples) const {
  const std::size_t n = dataset_size();
  SPECSYNC_CHECK_GT(n, 0u);
  std::size_t use = (max_examples == 0) ? n : std::min(n, max_examples);
  std::vector<std::size_t> indices(use);
  if (use == n) {
    std::iota(indices.begin(), indices.end(), 0u);
  } else {
    // Deterministic strided subsample so successive evaluations are
    // comparable across time.
    const double stride = static_cast<double>(n) / static_cast<double>(use);
    for (std::size_t i = 0; i < use; ++i) {
      indices[i] = static_cast<std::size_t>(static_cast<double>(i) * stride);
    }
  }
  return Loss(params, indices);
}

}  // namespace specsync
