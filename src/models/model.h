// Model abstraction: loss and (mini-batch) gradient against a flat parameter
// vector.
//
// The parameter server owns the canonical flat layout; workers receive
// snapshots of it and hand back gradients. Gradients may be dense (neural
// nets) or sparse (matrix factorization touches only the factor rows present
// in the batch), and both know their wire size for transfer accounting.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/sparse.h"
#include "tensor/vector.h"

namespace specsync {

class Gradient {
 public:
  Gradient() = default;

  static Gradient Dense(std::size_t dim) {
    Gradient g;
    g.dense_.assign(dim, 0.0);
    g.is_sparse_ = false;
    return g;
  }
  static Gradient Sparse() {
    Gradient g;
    g.is_sparse_ = true;
    return g;
  }

  bool is_sparse() const { return is_sparse_; }

  // In-place Dense(dim) / Sparse() that keep the buffers' capacity, so a
  // gradient reused across iterations stops allocating once warmed up.
  void ResetDense(std::size_t dim) {
    dense_.assign(dim, 0.0);
    is_sparse_ = false;
  }
  void ResetSparse() {
    sparse_.Clear();
    is_sparse_ = true;
  }

  DenseVector& dense() { return dense_; }
  const DenseVector& dense() const { return dense_; }
  SparseUpdate& sparse() { return sparse_; }
  const SparseUpdate& sparse() const { return sparse_; }

  // dest += alpha * gradient; dest must have the full parameter dimension.
  void AddTo(double alpha, std::span<double> dest) const;

  // Resets values to zero, keeping the representation.
  void Clear();

  // Bytes this gradient occupies on the wire when pushed.
  std::size_t wire_bytes() const {
    return is_sparse_ ? sparse_.wire_bytes() : dense_.size() * sizeof(double);
  }

 private:
  bool is_sparse_ = false;
  DenseVector dense_;
  SparseUpdate sparse_;
};

// A training model over a fixed dataset. Implementations are immutable after
// construction and safe to share across workers (C.2: class with invariant).
class Model {
 public:
  virtual ~Model() = default;

  virtual std::string name() const = 0;

  // Total number of parameters (the flat vector length).
  virtual std::size_t param_dim() const = 0;

  // Number of examples in the backing dataset.
  virtual std::size_t dataset_size() const = 0;

  // Writes a fresh random initialization into `params`.
  virtual void InitParams(std::span<double> params, Rng& rng) const = 0;

  // Mean loss over `batch` (dataset indices) and gradient of that mean loss.
  // Returns the loss. `grad` is overwritten.
  virtual double LossAndGradient(std::span<const double> params,
                                 std::span<const std::size_t> batch,
                                 Gradient& grad) const = 0;

  // Mean loss over `batch` without computing gradients.
  virtual double Loss(std::span<const double> params,
                      std::span<const std::size_t> batch) const = 0;

  // Mean loss over (a deterministic subsample of) the full dataset —
  // the quantity the paper's learning curves plot.
  double FullLoss(std::span<const double> params,
                  std::size_t max_examples = 0) const;

  // Preferred gradient representation for this model.
  virtual bool prefers_sparse_gradients() const { return false; }
};

}  // namespace specsync
