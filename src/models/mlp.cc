#include "models/mlp.h"

#include <cmath>

#include "common/check.h"
#include "tensor/matrix.h"
#include "tensor/nn_ops.h"

namespace specsync {

MlpClassifierModel::MlpClassifierModel(
    std::shared_ptr<const ClassificationDataset> data, MlpConfig config)
    : data_(std::move(data)), config_(std::move(config)) {
  SPECSYNC_CHECK(data_ != nullptr);
  std::size_t in = data_->feature_dim();
  for (std::size_t width : config_.hidden) {
    SPECSYNC_CHECK_GT(width, 0u);
    layer_in_.push_back(in);
    layer_out_.push_back(width);
    in = width;
  }
  layer_in_.push_back(in);
  layer_out_.push_back(data_->num_classes());

  for (std::size_t l = 0; l < layer_in_.size(); ++l) {
    weight_offsets_.push_back(param_dim_);
    param_dim_ += layer_in_[l] * layer_out_[l];
    bias_offsets_.push_back(param_dim_);
    param_dim_ += layer_out_[l];
  }
}

std::size_t MlpClassifierModel::weight_offset(std::size_t layer) const {
  SPECSYNC_CHECK_LT(layer, weight_offsets_.size());
  return weight_offsets_[layer];
}

std::size_t MlpClassifierModel::bias_offset(std::size_t layer) const {
  SPECSYNC_CHECK_LT(layer, bias_offsets_.size());
  return bias_offsets_[layer];
}

void MlpClassifierModel::InitParams(std::span<double> params, Rng& rng) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim_);
  for (std::size_t l = 0; l < num_layers(); ++l) {
    // He initialization: stddev = sqrt(2 / fan_in).
    const double stddev = std::sqrt(2.0 / static_cast<double>(layer_in_[l]));
    const std::size_t wo = weight_offset(l);
    const std::size_t count = layer_in_[l] * layer_out_[l];
    for (std::size_t i = 0; i < count; ++i) {
      params[wo + i] = rng.Normal(0.0, stddev);
    }
    const std::size_t bo = bias_offset(l);
    for (std::size_t i = 0; i < layer_out_[l]; ++i) params[bo + i] = 0.0;
  }
}

MlpClassifierModel::Workspace MlpClassifierModel::MakeWorkspace() const {
  Workspace ws;
  ws.activations.resize(num_layers() + 1);
  ws.pre_activations.resize(num_layers());
  ws.deltas.resize(num_layers());
  ws.activations[0].resize(data_->feature_dim());
  for (std::size_t l = 0; l < num_layers(); ++l) {
    ws.activations[l + 1].resize(layer_out_[l]);
    ws.pre_activations[l].resize(layer_out_[l]);
    ws.deltas[l].resize(layer_out_[l]);
  }
  return ws;
}

void MlpClassifierModel::Forward(std::span<const double> params,
                                 const Example& example, Workspace& ws) const {
  ws.activations[0] = example.features;
  for (std::size_t l = 0; l < num_layers(); ++l) {
    ConstMatrixView w(params.subspan(weight_offset(l),
                                     layer_in_[l] * layer_out_[l]),
                      layer_out_[l], layer_in_[l]);
    std::span<const double> b = params.subspan(bias_offset(l), layer_out_[l]);
    Gemv(w, ws.activations[l], ws.pre_activations[l]);
    for (std::size_t i = 0; i < layer_out_[l]; ++i) {
      ws.pre_activations[l][i] += b[i];
    }
    if (l + 1 < num_layers()) {
      Relu(ws.pre_activations[l], ws.activations[l + 1]);
    } else {
      ws.activations[l + 1] = ws.pre_activations[l];
      SoftmaxInPlace(ws.activations[l + 1]);
    }
  }
}

double MlpClassifierModel::LossAndGradient(
    std::span<const double> params, std::span<const std::size_t> batch,
    Gradient& grad) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim_);
  SPECSYNC_CHECK(!batch.empty());
  std::span<double> g = grad.DenseTerms(param_dim_);
  Workspace ws = MakeWorkspace();
  const double inv_batch = 1.0 / static_cast<double>(batch.size());
  const std::size_t last = num_layers() - 1;

  double loss = 0.0;
  for (std::size_t idx : batch) {
    const Example& example = data_->example(idx);
    Forward(params, example, ws);
    const std::vector<double>& probs = ws.activations.back();
    loss += CrossEntropy(probs, example.label);

    // Output delta: p - onehot(label).
    for (std::size_t i = 0; i < layer_out_[last]; ++i) {
      ws.deltas[last][i] =
          (probs[i] - (i == example.label ? 1.0 : 0.0)) * inv_batch;
    }
    // Backpropagate.
    for (std::size_t l = last + 1; l-- > 0;) {
      MatrixView gw(g.subspan(weight_offset(l),
                              layer_in_[l] * layer_out_[l]),
                    layer_out_[l], layer_in_[l]);
      std::span<double> gb = g.subspan(bias_offset(l), layer_out_[l]);
      AddOuterProduct(gw, 1.0, ws.deltas[l], ws.activations[l]);
      for (std::size_t i = 0; i < layer_out_[l]; ++i) gb[i] += ws.deltas[l][i];
      if (l > 0) {
        ConstMatrixView w(params.subspan(weight_offset(l),
                                         layer_in_[l] * layer_out_[l]),
                          layer_out_[l], layer_in_[l]);
        // delta_{l-1} = relu'(z_{l-1}) . (W_l^T delta_l)
        std::vector<double> back(layer_in_[l]);
        GemvTransposed(w, ws.deltas[l], back);
        ReluBackward(ws.pre_activations[l - 1], back, ws.deltas[l - 1]);
      }
    }
  }
  loss *= inv_batch;
  if (config_.regularization > 0.0) {
    for (std::size_t l = 0; l < num_layers(); ++l) {
      const std::size_t wo = weight_offset(l);
      const std::size_t count = layer_in_[l] * layer_out_[l];
      for (std::size_t i = 0; i < count; ++i) {
        g[wo + i] += config_.regularization * params[wo + i];
        loss += 0.5 * config_.regularization * params[wo + i] * params[wo + i];
      }
    }
  }
  return loss;
}

double MlpClassifierModel::Loss(std::span<const double> params,
                                std::span<const std::size_t> batch) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim_);
  SPECSYNC_CHECK(!batch.empty());
  Workspace ws = MakeWorkspace();
  double loss = 0.0;
  for (std::size_t idx : batch) {
    const Example& example = data_->example(idx);
    Forward(params, example, ws);
    loss += CrossEntropy(ws.activations.back(), example.label);
  }
  loss /= static_cast<double>(batch.size());
  if (config_.regularization > 0.0) {
    for (std::size_t l = 0; l < num_layers(); ++l) {
      const std::size_t wo = weight_offset(l);
      const std::size_t count = layer_in_[l] * layer_out_[l];
      for (std::size_t i = 0; i < count; ++i) {
        loss += 0.5 * config_.regularization * params[wo + i] * params[wo + i];
      }
    }
  }
  return loss;
}

double MlpClassifierModel::Accuracy(std::span<const double> params) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim_);
  Workspace ws = MakeWorkspace();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data_->size(); ++i) {
    const Example& example = data_->example(i);
    Forward(params, example, ws);
    if (ArgMax(ws.activations.back()) == example.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data_->size());
}

}  // namespace specsync
