#include "models/chunk_merger.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace specsync {

void ChunkMerger::Merge(std::span<const Gradient> chunks, Gradient& out) {
  SPECSYNC_CHECK(!chunks.empty());
  const double weight = 1.0 / static_cast<double>(chunks.size());
  if (chunks.front().is_sparse()) {
    out.ResetSparse();
    MergeSparse(chunks, weight, out.sparse());
    return;
  }
  out.ResetDense(chunks.front().dense().size());
  for (const Gradient& chunk : chunks) {
    SPECSYNC_CHECK(!chunk.is_sparse()) << "mixed dense and sparse chunks";
    Axpy(weight, chunk.dense(), out.dense());
  }
}

void ChunkMerger::MergeSparse(std::span<const Gradient> chunks, double weight,
                              SparseUpdate& out) {
  // Every chunk is checked before the first bit is set, so a bad merge
  // throws with the bitmap still empty and the next merge is unaffected.
  for (const Gradient& chunk : chunks) {
    SPECSYNC_CHECK(chunk.is_sparse()) << "mixed dense and sparse chunks";
    const SparseUpdate& update = chunk.sparse();
    if (update.empty()) continue;
    const auto indices = update.indices();
    // A strictly increasing chunk's last index bounds the others.
    const std::uint64_t max_index =
        update.strictly_increasing()
            ? indices.back()
            : *std::max_element(indices.begin(), indices.end());
    SPECSYNC_CHECK_LT(max_index, dim_);
  }
  if (acc_.empty()) {
    acc_.resize(dim_);
    occupied_.Reserve(dim_);
  }
  // The merge can never exceed dim_ entries: reserving that once makes every
  // later emit into the same `out` allocation-free.
  out.Reserve(dim_);
  for (const Gradient& chunk : chunks) {
    const auto indices = chunk.sparse().indices();
    const auto values = chunk.sparse().values();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const auto index = static_cast<std::size_t>(indices[i]);
      const double value = values[i] * weight;
      if (occupied_.Set(index)) {
        acc_[index] = value;
      } else {
        acc_[index] += value;
      }
    }
  }
  out.AssignOccupied(occupied_, acc_, 1);
}

}  // namespace specsync
