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
  // Every chunk is checked, and the row width fixed, before the first bit is
  // set, so a bad merge throws with the bitmap still empty and the next
  // merge is unaffected.
  std::size_t width = 0;  // 0 until a non-empty chunk is seen
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
    // Chunks that disagree on their row width merge entry by entry.
    width = (width == 0 || width == update.block_width())
                ? update.block_width()
                : 1;
  }
  width = std::max<std::size_t>(width, 1);
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
    // One bit per row of `width` consecutive entries starting at indices[i].
    for (std::size_t i = 0; i < indices.size(); i += width) {
      const auto first = static_cast<std::size_t>(indices[i]);
      double* row = acc_.data() + first;
      const double* value = values.data() + i;
      if (occupied_.Set(first / width)) {
        for (std::size_t k = 0; k < width; ++k) row[k] = value[k] * weight;
      } else {
        for (std::size_t k = 0; k < width; ++k) row[k] += value[k] * weight;
      }
    }
  }
  out.AssignOccupied(occupied_, acc_, width);
}

}  // namespace specsync
