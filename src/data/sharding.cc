#include "data/sharding.h"

#include "common/check.h"

namespace specsync {

std::vector<std::vector<std::size_t>> ShardIndices(std::size_t n,
                                                   std::size_t num_shards) {
  SPECSYNC_CHECK_GT(num_shards, 0u);
  std::vector<std::vector<std::size_t>> shards(num_shards);
  for (auto& shard : shards) shard.reserve(n / num_shards + 1);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % num_shards].push_back(i);
  }
  return shards;
}

BatchSampler::BatchSampler(std::vector<std::size_t> shard,
                           std::size_t batch_size, Rng rng)
    : shard_(std::move(shard)), batch_size_(batch_size), rng_(std::move(rng)) {
  SPECSYNC_CHECK(!shard_.empty()) << "worker shard must not be empty";
  SPECSYNC_CHECK_GT(batch_size_, 0u);
}

void BatchSampler::NextBatch(std::vector<std::size_t>& batch) {
  batch.resize(batch_size_);
  for (std::size_t& index : batch) index = shard_[rng_.Index(shard_.size())];
}

}  // namespace specsync
