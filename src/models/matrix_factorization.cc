#include "models/matrix_factorization.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace specsync {

MatrixFactorizationModel::MatrixFactorizationModel(
    std::shared_ptr<const RatingsDataset> data,
    MatrixFactorizationConfig config)
    : data_(std::move(data)), config_(config) {
  SPECSYNC_CHECK(data_ != nullptr);
  SPECSYNC_CHECK_GT(config_.rank, 0u);
  SPECSYNC_CHECK_GE(config_.regularization, 0.0);
}

std::size_t MatrixFactorizationModel::param_dim() const {
  return (data_->num_users() + data_->num_items()) * config_.rank;
}

std::size_t MatrixFactorizationModel::user_offset(std::size_t user) const {
  SPECSYNC_CHECK_LT(user, data_->num_users());
  return user * config_.rank;
}

std::size_t MatrixFactorizationModel::item_offset(std::size_t item) const {
  SPECSYNC_CHECK_LT(item, data_->num_items());
  return (data_->num_users() + item) * config_.rank;
}

void MatrixFactorizationModel::InitParams(std::span<double> params,
                                          Rng& rng) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  for (double& v : params) {
    v = rng.Uniform(-config_.init_scale, config_.init_scale);
  }
}

double MatrixFactorizationModel::LossAndGradient(
    std::span<const double> params, std::span<const std::size_t> batch,
    Gradient& grad) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  // Scratch reused across calls: the model is shared read-only by every
  // worker thread, so each thread keeps its own.
  struct Workspace {
    std::vector<double> errors;         // per rating
    std::vector<std::size_t> offsets;   // per key slot: the row's offset
    std::vector<std::uint64_t> keys;    // row * 2n + slot, slot = 2j + side
    std::vector<double> acc;            // one row's rank accumulators
  };
  thread_local Workspace ws;

  const std::size_t n = batch.size();
  const std::size_t r = config_.rank;
  const std::uint64_t slots = 2 * static_cast<std::uint64_t>(n);
  const std::size_t rows = data_->num_users() + data_->num_items();
  SPECSYNC_CHECK_LE(rows, std::numeric_limits<std::uint64_t>::max() / slots);
  const double inv_batch = 1.0 / static_cast<double>(n);
  const double grad_scale = config_.sum_gradient ? 1.0 : inv_batch;
  const double reg = config_.regularization;
  ws.errors.resize(n);
  ws.offsets.resize(2 * n);
  ws.keys.resize(2 * n);
  ws.acc.resize(r);

  // Pass 1: each rating's error and loss term, and one key per (rating,
  // side) naming the factor row it touches. Slot 2j is rating j's user row,
  // slot 2j + 1 its item row.
  double loss = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const Rating& rating = data_->rating(batch[j]);
    const std::size_t uo = user_offset(rating.user);
    const std::size_t io = item_offset(rating.item);
    double dot = 0.0;
    for (std::size_t k = 0; k < r; ++k) dot += params[uo + k] * params[io + k];
    const double err = dot - rating.value;
    double reg_term = 0.0;
    for (std::size_t k = 0; k < r; ++k) {
      const double uk = params[uo + k];
      const double vk = params[io + k];
      reg_term += uk * uk + vk * vk;
    }
    loss += 0.5 * err * err + 0.5 * reg * reg_term;
    ws.errors[j] = err;
    ws.offsets[2 * j] = uo;
    ws.offsets[2 * j + 1] = io;
    ws.keys[2 * j] = rating.user * slots + 2 * j;
    ws.keys[2 * j + 1] = (data_->num_users() + rating.item) * slots + 2 * j + 1;
  }
  // The keys are distinct, so this orders them by row and, within a row, by
  // rating: batch order.
  std::sort(ws.keys.begin(), ws.keys.end());

  // Pass 2: one group of keys per touched row. Each contribution is
  // d/dU_uk = err * V_ik + reg * U_uk (user side) or
  // d/dV_ik = err * U_uk + reg * V_ik (item side), summed in batch order;
  // the first one is assigned rather than added to 0.0, so a lone -0.0
  // keeps its sign as an appended entry would.
  grad.ResetSparse();
  SparseUpdate& out = grad.sparse();
  out.Reserve(2 * n * r);
  for (std::size_t g = 0; g < ws.keys.size();) {
    const std::uint64_t row = ws.keys[g] / slots;
    const std::size_t own = ws.offsets[ws.keys[g] % slots];
    for (bool first = true;
         g < ws.keys.size() && ws.keys[g] / slots == row; ++g, first = false) {
      const auto slot = static_cast<std::size_t>(ws.keys[g] % slots);
      const std::size_t other = ws.offsets[slot ^ 1];
      const double err = ws.errors[slot / 2];
      for (std::size_t k = 0; k < r; ++k) {
        const double c =
            grad_scale * (err * params[other + k] + reg * params[own + k]);
        ws.acc[k] = first ? c : ws.acc[k] + c;
      }
    }
    for (std::size_t k = 0; k < r; ++k) out.Add(own + k, ws.acc[k]);
  }
  return loss * inv_batch;
}

double MatrixFactorizationModel::Loss(std::span<const double> params,
                                      std::span<const std::size_t> batch) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  const std::size_t r = config_.rank;
  double loss = 0.0;
  for (std::size_t idx : batch) {
    const Rating& rating = data_->rating(idx);
    const std::size_t uo = user_offset(rating.user);
    const std::size_t io = item_offset(rating.item);
    double dot = 0.0;
    double reg_term = 0.0;
    for (std::size_t k = 0; k < r; ++k) {
      dot += params[uo + k] * params[io + k];
      reg_term += params[uo + k] * params[uo + k] +
                  params[io + k] * params[io + k];
    }
    const double err = dot - rating.value;
    loss += 0.5 * err * err + 0.5 * config_.regularization * reg_term;
  }
  return loss / static_cast<double>(batch.size());
}

}  // namespace specsync
