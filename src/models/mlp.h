// Multi-layer perceptron classifier — the proxy for the paper's deep residual
// networks (CIFAR-10: ResNet-110, ImageNet: ResNet-18).
//
// Substitution rationale: what SpecSync exercises is SGD on a non-convex,
// over-parameterized model whose convergence degrades under stale gradients;
// an MLP on Gaussian-mixture data reproduces that regime at laptop scale.
// Layer sizes are chosen per workload so the relative model sizes track the
// paper's Table I.
//
// Parameters are flattened layer by layer: for each layer l,
// [ W_l (out_l x in_l) | b_l (out_l) ].
#pragma once

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "models/model.h"

namespace specsync {

struct MlpConfig {
  // Hidden layer widths; empty means softmax regression topology.
  std::vector<std::size_t> hidden = {128};
  double regularization = 1e-4;
};

class MlpClassifierModel final : public Model {
 public:
  MlpClassifierModel(std::shared_ptr<const ClassificationDataset> data,
                     MlpConfig config);

  std::string name() const override { return "mlp_classifier"; }
  std::size_t param_dim() const override { return param_dim_; }
  std::size_t dataset_size() const override { return data_->size(); }
  void InitParams(std::span<double> params, Rng& rng) const override;
  double LossAndGradient(std::span<const double> params,
                         std::span<const std::size_t> batch,
                         Gradient& grad) const override;
  double Loss(std::span<const double> params,
              std::span<const std::size_t> batch) const override;

  double Accuracy(std::span<const double> params) const;

  std::size_t num_layers() const { return layer_in_.size(); }

 private:
  struct Workspace {
    // Per-layer activations (post-nonlinearity) and pre-activations.
    std::vector<std::vector<double>> activations;
    std::vector<std::vector<double>> pre_activations;
    std::vector<std::vector<double>> deltas;
  };

  Workspace MakeWorkspace() const;

  // Forward pass; returns class probabilities in ws.activations.back().
  void Forward(std::span<const double> params, const Example& example,
               Workspace& ws) const;

  std::size_t weight_offset(std::size_t layer) const;
  std::size_t bias_offset(std::size_t layer) const;

  std::shared_ptr<const ClassificationDataset> data_;
  MlpConfig config_;
  std::vector<std::size_t> layer_in_;
  std::vector<std::size_t> layer_out_;
  std::vector<std::size_t> weight_offsets_;
  std::vector<std::size_t> bias_offsets_;
  std::size_t param_dim_ = 0;
};

}  // namespace specsync
