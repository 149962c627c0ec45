#include "models/linear_regression.h"

#include "common/check.h"

namespace specsync {

LinearRegressionModel::LinearRegressionModel(
    std::shared_ptr<const ClassificationDataset> data,
    std::vector<double> targets, double regularization)
    : data_(std::move(data)),
      targets_(std::move(targets)),
      regularization_(regularization) {
  SPECSYNC_CHECK(data_ != nullptr);
  SPECSYNC_CHECK_EQ(targets_.size(), data_->size());
  SPECSYNC_CHECK_GE(regularization_, 0.0);
}

void LinearRegressionModel::InitParams(std::span<double> params,
                                       Rng& rng) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  for (double& v : params) v = rng.Normal(0.0, 0.01);
}

double LinearRegressionModel::PredictOne(std::span<const double> params,
                                         const Example& example) const {
  const std::size_t d = data_->feature_dim();
  double z = params[d];  // bias
  for (std::size_t j = 0; j < d; ++j) z += params[j] * example.features[j];
  return z;
}

double LinearRegressionModel::LossAndGradient(
    std::span<const double> params, std::span<const std::size_t> batch,
    Gradient& grad) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  grad.ResetDense(param_dim());
  std::span<double> g = grad.dense();
  const std::size_t d = data_->feature_dim();
  const double inv_batch = 1.0 / static_cast<double>(batch.size());

  double loss = 0.0;
  for (std::size_t idx : batch) {
    const Example& example = data_->example(idx);
    const double err = PredictOne(params, example) - targets_[idx];
    loss += 0.5 * err * err;
    for (std::size_t j = 0; j < d; ++j) {
      g[j] += err * example.features[j] * inv_batch;
    }
    g[d] += err * inv_batch;
  }
  loss *= inv_batch;
  if (regularization_ > 0.0) {
    for (std::size_t j = 0; j < d; ++j) {
      g[j] += regularization_ * params[j];
      loss += 0.5 * regularization_ * params[j] * params[j];
    }
  }
  return loss;
}

double LinearRegressionModel::Loss(std::span<const double> params,
                                   std::span<const std::size_t> batch) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  const std::size_t d = data_->feature_dim();
  double loss = 0.0;
  for (std::size_t idx : batch) {
    const Example& example = data_->example(idx);
    const double err = PredictOne(params, example) - targets_[idx];
    loss += 0.5 * err * err;
  }
  loss /= static_cast<double>(batch.size());
  if (regularization_ > 0.0) {
    for (std::size_t j = 0; j < d; ++j) {
      loss += 0.5 * regularization_ * params[j] * params[j];
    }
  }
  return loss;
}

}  // namespace specsync
