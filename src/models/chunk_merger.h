// Reusable merger for a mini-batch's per-chunk gradients.
//
// The threaded runtime computes each mini-batch in chunks (so an abort can
// land between them) and pushes the average of the chunk gradients. Each
// worker's WorkerStep owns one ChunkMerger and one output Gradient for its
// whole life, so the merge allocates nothing once warmed up.
//
// Sparse chunks accumulate into a dense buffer of the parameter dimension
// with an OccupancyBitmap beside it, one bit per row: when every non-empty
// chunk has the same SparseUpdate::block_width() w (the MF kernel emits
// whole factor rows), a row's w entries cost one bit and w scaled assigns
// or adds; chunks that disagree merge with w = 1, entry by entry. The first
// write to a row sets its bit and assigns, later ones add. The merged
// gradient is read back in index order in one sized write
// (SparseUpdate::AssignOccupied, width w), which drains the bitmap and
// clears the bits it read.
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

  // Overwrites `out` with the mean of `chunks`, each weighted 1 / size():
  // a mean of chunk sums for MF, of chunk means for the other models
  // (DESIGN.md §16, "Known discrepancy"). Sparse chunks give an
  // index-sorted, duplicate-free sparse gradient, whose block_width() is
  // the chunks' common one, or 1; dense chunks give a dense one. All chunks
  // must share one representation, and every sparse index must be < dim. A
  // merge that fails either throws before it touches the accumulator, so
  // the merger stays usable.
  void Merge(std::span<const Gradient> chunks, Gradient& out);

 private:
  void MergeSparse(std::span<const Gradient> chunks, double weight,
                   SparseUpdate& out);

  std::size_t dim_;
  std::vector<double> acc_;   // valid only where occupied_ is set
  OccupancyBitmap occupied_;  // empty between merges
};

}  // namespace specsync
