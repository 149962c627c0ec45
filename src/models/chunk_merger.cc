#include "models/chunk_merger.h"

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
  if (acc_.empty()) {
    acc_.resize(dim_);
    occupied_.Reserve(dim_);
  }
  // The merge can never exceed dim_ entries: reserving that once makes every
  // later emit into the same `out` allocation-free.
  out.Reserve(dim_);
  for (const Gradient& chunk : chunks) {
    SPECSYNC_CHECK(chunk.is_sparse()) << "mixed dense and sparse chunks";
    const auto indices = chunk.sparse().indices();
    const auto values = chunk.sparse().values();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const auto index = static_cast<std::size_t>(indices[i]);
      SPECSYNC_CHECK_LT(index, dim_);
      const double value = values[i] * weight;
      if (occupied_.Set(index)) {
        acc_[index] = value;
      } else {
        acc_[index] += value;
      }
    }
  }
  occupied_.Drain([&](std::size_t index) { out.Add(index, acc_[index]); });
}

}  // namespace specsync
