// Data-parallel sharding and mini-batch sampling.
//
// Training samples D are partitioned into D_1..D_m, one shard per worker
// (paper Fig. 1); each worker then draws mini-batches from its own shard.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"

namespace specsync {

// Deterministically assigns example indices [0, n) to `num_shards` shards in
// round-robin order (balanced to within one example).
std::vector<std::vector<std::size_t>> ShardIndices(std::size_t n,
                                                   std::size_t num_shards);

// Samples mini-batches (with replacement) from a fixed index shard.
class BatchSampler {
 public:
  BatchSampler(std::vector<std::size_t> shard, std::size_t batch_size, Rng rng);

  // Replaces `batch` with `batch_size` indices drawn uniformly from the
  // shard. A buffer reused across calls stops allocating after the first.
  void NextBatch(std::vector<std::size_t>& batch);

  std::size_t shard_size() const { return shard_.size(); }
  std::size_t batch_size() const { return batch_size_; }

 private:
  std::vector<std::size_t> shard_;
  std::size_t batch_size_;
  Rng rng_;
};

}  // namespace specsync
