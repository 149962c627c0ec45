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

class OccupancyBitmap;

class SparseUpdate {
 public:
  SparseUpdate() = default;

  void Reserve(std::size_t n) {
    indices_.reserve(n);
    values_.reserve(n);
  }

  void Add(std::uint64_t index, double value) {
    increasing_ = increasing_ && (indices_.empty() || indices_.back() < index);
    block_width_ = 1;
    indices_.push_back(index);
    values_.push_back(value);
  }

  std::size_t nnz() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  // True when the indices are strictly increasing (canonical form), as they
  // are whenever every entry was added in index order. Add, Clear, Coalesce
  // and AssignOccupied keep it current; it costs one comparison per Add.
  bool strictly_increasing() const { return increasing_; }
  // The row width w its producer guarantees: nnz() % w == 0, and each group
  // of w entries starting at a multiple of w holds w consecutive indices,
  // the first a multiple of w. AssignOccupied sets it; Add, Clear and a
  // Coalesce that rebuilds reset it to 1; value rewrites keep it. The store's
  // apply costs one range check per row.
  std::size_t block_width() const { return block_width_; }
  std::span<const std::uint64_t> indices() const { return indices_; }
  std::span<const double> values() const { return values_; }
  // In-place value rewrites (the gradient codec quantizes without changing
  // the support); indices, and so the row width, stay as they are.
  std::span<double> mutable_values() { return values_; }

  void Clear() {
    indices_.clear();
    values_.clear();
    increasing_ = true;
    block_width_ = 1;
  }

  // Overwrites the update with the occupied runs of a dense accumulator and
  // leaves `occupied` empty: for each occupied slot s, in ascending order,
  // the `width` entries (s * width + k, acc[s * width + k] * scale), k <
  // width (a scale of 1 copies the values bit for bit). Every
  // occupied slot must satisfy (s + 1) * width <= acc.size(). The arrays are
  // sized once and written in place, so nothing allocates when the capacity
  // was reserved. Slots drain in ascending order and their runs are
  // disjoint, so the result is strictly increasing by construction, and its
  // block_width() is `width`.
  void AssignOccupied(OccupancyBitmap& occupied, std::span<const double> acc,
                      std::size_t width, double scale = 1.0);

  // Brings the update to canonical form: sorted by index, no duplicates.
  // Duplicates of an index are summed in entry order (a stable sort, then a
  // left-to-right sum), the rule the MF gradient kernel's row sums follow,
  // so the result's bits depend only on the entry sequence. An update already
  // strictly_increasing() returns at once, without a scan or an allocation.
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
  bool increasing_ = true;
  std::size_t block_width_ = 1;
};

// Densifies into a vector of the given size (entries outside are an error).
std::vector<double> ToDense(const SparseUpdate& update, std::size_t size);

}  // namespace specsync
