#include "models/softmax_regression.h"

#include "common/check.h"
#include "tensor/nn_ops.h"

namespace specsync {

SoftmaxRegressionModel::SoftmaxRegressionModel(
    std::shared_ptr<const ClassificationDataset> data,
    SoftmaxRegressionConfig config)
    : data_(std::move(data)), config_(config) {
  SPECSYNC_CHECK(data_ != nullptr);
}

std::size_t SoftmaxRegressionModel::param_dim() const {
  return data_->num_classes() * data_->feature_dim() + data_->num_classes();
}

void SoftmaxRegressionModel::InitParams(std::span<double> params,
                                        Rng& rng) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  for (double& v : params) {
    v = rng.Normal(0.0, config_.init_scale);
  }
}

void SoftmaxRegressionModel::Predict(std::span<const double> params,
                                     const Example& example,
                                     std::span<double> probs) const {
  const std::size_t c = data_->num_classes();
  const std::size_t d = data_->feature_dim();
  const std::size_t bias_offset = c * d;
  for (std::size_t k = 0; k < c; ++k) {
    double z = params[bias_offset + k];
    const std::size_t row = k * d;
    for (std::size_t j = 0; j < d; ++j) {
      z += params[row + j] * example.features[j];
    }
    probs[k] = z;
  }
  SoftmaxInPlace(probs);
}

double SoftmaxRegressionModel::LossAndGradient(
    std::span<const double> params, std::span<const std::size_t> batch,
    Gradient& grad) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  grad.ResetDense(param_dim());
  std::span<double> g = grad.dense();

  const std::size_t c = data_->num_classes();
  const std::size_t d = data_->feature_dim();
  const std::size_t bias_offset = c * d;
  const double inv_batch = 1.0 / static_cast<double>(batch.size());

  std::vector<double> probs(c);
  double loss = 0.0;
  for (std::size_t idx : batch) {
    const Example& example = data_->example(idx);
    Predict(params, example, probs);
    loss += CrossEntropy(probs, example.label);
    for (std::size_t k = 0; k < c; ++k) {
      // dL/dz_k = p_k - [k == label]
      const double dz =
          (probs[k] - (k == example.label ? 1.0 : 0.0)) * inv_batch;
      const std::size_t row = k * d;
      for (std::size_t j = 0; j < d; ++j) {
        g[row + j] += dz * example.features[j];
      }
      g[bias_offset + k] += dz;
    }
  }
  loss *= inv_batch;
  // L2 regularization on the weight matrix (not the bias).
  if (config_.regularization > 0.0) {
    for (std::size_t i = 0; i < bias_offset; ++i) {
      g[i] += config_.regularization * params[i];
      loss += 0.5 * config_.regularization * params[i] * params[i];
    }
  }
  return loss;
}

double SoftmaxRegressionModel::Loss(std::span<const double> params,
                                    std::span<const std::size_t> batch) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  const std::size_t c = data_->num_classes();
  std::vector<double> probs(c);
  double loss = 0.0;
  for (std::size_t idx : batch) {
    const Example& example = data_->example(idx);
    Predict(params, example, probs);
    loss += CrossEntropy(probs, example.label);
  }
  loss /= static_cast<double>(batch.size());
  if (config_.regularization > 0.0) {
    const std::size_t bias_offset = c * data_->feature_dim();
    double reg = 0.0;
    for (std::size_t i = 0; i < bias_offset; ++i) reg += params[i] * params[i];
    loss += 0.5 * config_.regularization * reg;
  }
  return loss;
}

double SoftmaxRegressionModel::Accuracy(std::span<const double> params) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  std::vector<double> probs(data_->num_classes());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data_->size(); ++i) {
    const Example& example = data_->example(i);
    Predict(params, example, probs);
    if (ArgMax(probs) == example.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data_->size());
}

}  // namespace specsync
