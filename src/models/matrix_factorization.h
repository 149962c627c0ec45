// L2-regularized matrix factorization (the paper's MF / MovieLens workload).
//
// Parameters: [ user factors U (num_users x rank) | item factors V
// (num_items x rank) ] flattened row-major. Loss per rating (u,i,r):
//   0.5 * (r - U_u . V_i)^2 + 0.5 * reg * (|U_u|^2 + |V_i|^2) / n_touch
// Gradients are sparse: only the factor rows present in the batch move.
//
// LossAndGradient is one pass over the batch (DESIGN.md §17). For each
// rating it computes the error and loss term, then adds the rating's
// user-row and item-row contributions into a per-thread dense accumulator
// over factor rows, with an OccupancyBitmap beside it: a row's first
// contribution is assigned, later ones added. Draining the bitmap emits the
// touched rows in index order. User and item rows are disjoint, so each row
// sums its contributions in batch order: the result is canonical
// (index-sorted, no duplicates) and equals appending every per-rating entry
// and coalescing with SparseUpdate::Coalesce's stable rule, bit for bit.
// The loop software-prefetches each rating a fixed distance ahead, and at a
// shorter distance that rating's two parameter rows and two accumulator
// rows, because with many workers' snapshots the rows it reads are cold.
// Every batch index is checked before the accumulator is touched, so a bad
// index throws without leaving the thread's workspace dirty.
#pragma once

#include <memory>

#include "data/dataset.h"
#include "models/model.h"

namespace specsync {

struct MatrixFactorizationConfig {
  std::size_t rank = 16;
  double regularization = 0.01;
  // Parameter init scale (uniform in [-scale, scale]).
  double init_scale = 0.1;
  // Sum (rather than average) the per-rating gradients: with sparse batches a
  // factor row is touched by only a handful of ratings, and summing makes the
  // learning rate act per rating occurrence — the classical Koren-style MF
  // SGD behaviour (and what MXNet's sparse push amounts to).
  bool sum_gradient = true;
};

class MatrixFactorizationModel final : public Model {
 public:
  MatrixFactorizationModel(std::shared_ptr<const RatingsDataset> data,
                           MatrixFactorizationConfig config);

  std::string name() const override { return "matrix_factorization"; }
  std::size_t param_dim() const override;
  std::size_t dataset_size() const override { return data_->size(); }
  void InitParams(std::span<double> params, Rng& rng) const override;
  double LossAndGradient(std::span<const double> params,
                         std::span<const std::size_t> batch,
                         Gradient& grad) const override;
  double Loss(std::span<const double> params,
              std::span<const std::size_t> batch) const override;
  bool prefers_sparse_gradients() const override { return true; }

  std::size_t rank() const { return config_.rank; }
  // Offset of item factor row `item` in the flat parameter vector.
  std::size_t item_offset(std::size_t item) const;
  // Offset of user factor row `user`.
  std::size_t user_offset(std::size_t user) const;

 private:
  std::shared_ptr<const RatingsDataset> data_;
  MatrixFactorizationConfig config_;
};

}  // namespace specsync
