// Sparse update vector.
//
// Matrix-factorization gradients touch only the rows of the user/item factor
// matrices that appear in the mini-batch (paper Sec. VI-A: "input data of MF
// are user ratings represented by sparse vectors"). A SparseUpdate carries
// (index, value) pairs against a dense destination and knows its own wire
// size so the transfer accounting (Figs. 12-13) can charge it correctly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace specsync {

class SparseUpdate {
 public:
  SparseUpdate() = default;

  void Reserve(std::size_t n) {
    indices_.reserve(n);
    values_.reserve(n);
  }

  void Add(std::uint64_t index, double value) {
    indices_.push_back(index);
    values_.push_back(value);
  }

  std::size_t nnz() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  std::span<const std::uint64_t> indices() const { return indices_; }
  std::span<const double> values() const { return values_; }
  // In-place value rewrites (the gradient codec quantizes without changing
  // the support); indices stay immutable through this accessor.
  std::span<double> mutable_values() { return values_; }

  void Clear() {
    indices_.clear();
    values_.clear();
  }

  // Brings the update to canonical form: sorted by index, no duplicates.
  // Duplicates of an index are summed in entry order (a stable sort, then a
  // left-to-right sum), the one rule ChunkMerger and the MF gradient kernel
  // share, so the result's bits depend only on the entry sequence. Already
  // strictly increasing indices return at once, without allocating.
  void Coalesce();

  // dest[index] += alpha * value for each entry; indices must be < dest size.
  void ScatterAdd(double alpha, std::span<double> dest) const;

  // Multiplies every stored value by alpha.
  void ScaleValues(double alpha);

  // Approximate wire size: 8-byte index + 8-byte value per entry.
  std::size_t wire_bytes() const { return nnz() * 16; }

 private:
  std::vector<std::uint64_t> indices_;
  std::vector<double> values_;
};

// Densifies into a vector of the given size (entries outside are an error).
std::vector<double> ToDense(const SparseUpdate& update, std::size_t size);

}  // namespace specsync
