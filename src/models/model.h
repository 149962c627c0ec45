// Model abstraction: loss and (mini-batch) gradient against a flat parameter
// vector.
//
// The parameter server owns the canonical flat layout; workers receive
// snapshots of it and hand back gradients. Gradients may be dense (neural
// nets) or sparse (matrix factorization touches only the factor rows present
// in the batch), and both know their wire size for transfer accounting.
//
// A Gradient can hold an open sum (DESIGN.md §16): between OpenSum and
// CloseSum, every LossAndGradient call adds its batch's terms into the sum
// instead of overwriting the gradient, and CloseSum emits the sum once,
// scaled by a weight. The runtime computes a mini-batch in chunks this way:
// one sum per batch, one emit. A sparse model adds rows into the
// SumWorkspace that the opener lends; a dense model adds into dense().
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/occupancy_bitmap.h"
#include "tensor/sparse.h"
#include "tensor/vector.h"

namespace specsync {

// What an open sum adds sparse rows into: a dense row accumulator with an
// OccupancyBitmap beside it (DESIGN.md §17), plus the shape of the terms so
// far. Whoever opens a sum lends one; a plain LossAndGradient call sums on
// its thread's own, ThisThread(). A workspace serves one sum at a time. It
// grows to the largest model it has served and never shrinks.
struct SumWorkspace {
  // The calling thread's workspace, the one plain calls sum on.
  static SumWorkspace& ThisThread();

  std::vector<double> acc;   // row s's entries at s * width, where occupied
  OccupancyBitmap occupied;  // one bit per row; empty between sums
  // The open sum's terms: none yet, dense, or sparse rows of `width` entries,
  // at most `max_rows` of them.
  enum class Terms { kNone, kDense, kSparse } terms = Terms::kNone;
  std::size_t width = 0;
  std::size_t max_rows = 0;
};

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

  // Opens a sum on `workspace`, which must outlive it. Discards whatever an
  // earlier sum that was never closed left in the workspace (an aborted
  // attempt), clearing only the bitmap words it touched.
  void OpenSum(SumWorkspace& workspace);
  bool sum_open() const { return sum_ != nullptr; }
  // Emits the open sum scaled by `weight` and closes it. Sparse rows come out
  // index-sorted in one sized write, with block_width() their width; a
  // dense sum is scaled in place. The sum must hold a term.
  void CloseSum(double weight);

  // For models, at each call: the buffer this call's dense terms add into,
  // zeroed to `dim` unless an open sum already holds terms.
  std::span<double> DenseTerms(std::size_t dim);
  // For sparse models, inside an open sum: the workspace this call adds rows
  // of `width` into, grown to `rows` rows. The call may touch at most
  // `new_rows` rows; the close reserves for the sum of these bounds, capped
  // at `rows`, so a reused gradient stops allocating.
  SumWorkspace& SparseTerms(std::size_t rows, std::size_t width,
                            std::size_t new_rows);

  // Bytes this gradient occupies on the wire when pushed.
  std::size_t wire_bytes() const {
    return is_sparse_ ? sparse_.wire_bytes() : dense_.size() * sizeof(double);
  }

 private:
  bool is_sparse_ = false;
  DenseVector dense_;
  SparseUpdate sparse_;
  SumWorkspace* sum_ = nullptr;  // the open sum's workspace
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

  // Mean loss over `batch` (dataset indices) and its gradient (MF: the
  // batch's sum of per-rating gradients). Returns the loss. `grad` is
  // overwritten, or, while it holds an open sum, the call's terms add into
  // the sum.
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
