// Reusable merger for a mini-batch's per-chunk gradients.
//
// The threaded runtime computes each mini-batch in chunks (so an abort can
// land between them) and pushes the average of the chunk gradients. A worker
// owns one ChunkMerger and one output Gradient for its whole life, so the
// merge allocates nothing once warmed up.
//
// Sparse chunks accumulate into a dense buffer of the parameter dimension
// with an OccupancyBitmap beside it: the first entry for an index sets the
// slot, later ones add to it. The merged gradient is read back in index
// order by draining the bitmap, which clears the bits it read.
// Dense chunks are summed with Axpy into the output's own buffer.
//
// Summation order: duplicates of an index are summed in chunk order, and
// within a chunk in entry order — exactly what a stable sort of the
// concatenated (index, weight * value) entries followed by a left-to-right
// duplicate sum produces, which is the reference the property suite checks
// bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "models/model.h"
#include "tensor/occupancy_bitmap.h"

namespace specsync {

class ChunkMerger {
 public:
  // `dim` bounds every sparse index. The accumulator is sized on the first
  // sparse merge, so dense-only mergers never pay for it.
  explicit ChunkMerger(std::size_t dim) : dim_(dim) {}

  // Overwrites `out` with the mean of `chunks` (each a mean over its chunk):
  // sparse chunks give an index-sorted, duplicate-free sparse gradient, dense
  // chunks a dense one. All chunks must share one representation, and a
  // merge that fails that or the index bound leaves the merger unusable.
  void Merge(std::span<const Gradient> chunks, Gradient& out);

 private:
  void MergeSparse(std::span<const Gradient> chunks, double weight,
                   SparseUpdate& out);

  std::size_t dim_;
  std::vector<double> acc_;   // valid only where occupied_ is set
  OccupancyBitmap occupied_;  // empty between merges
};

}  // namespace specsync
