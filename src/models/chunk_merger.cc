#include "models/chunk_merger.h"

#include <algorithm>
#include <bit>

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
    bits_.assign((dim_ + 63) / 64, 0);
  }
  // The merge can never exceed dim_ entries: reserving that once makes every
  // later emit into the same `out` allocation-free.
  out.Reserve(dim_);
  std::size_t first_word = bits_.size();
  std::size_t end_word = 0;
  for (const Gradient& chunk : chunks) {
    SPECSYNC_CHECK(chunk.is_sparse()) << "mixed dense and sparse chunks";
    const auto indices = chunk.sparse().indices();
    const auto values = chunk.sparse().values();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const auto index = static_cast<std::size_t>(indices[i]);
      SPECSYNC_CHECK_LT(index, dim_);
      const double value = values[i] * weight;
      const std::size_t word = index / 64;
      const std::uint64_t bit = std::uint64_t{1} << (index % 64);
      if ((bits_[word] & bit) != 0) {
        acc_[index] += value;
      } else {
        bits_[word] |= bit;
        acc_[index] = value;
      }
      first_word = std::min(first_word, word);
      end_word = std::max(end_word, word + 1);
    }
  }
  for (std::size_t word = first_word; word < end_word; ++word) {
    std::uint64_t bits = bits_[word];
    bits_[word] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t index =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      out.Add(index, acc_[index]);
    }
  }
}

}  // namespace specsync
