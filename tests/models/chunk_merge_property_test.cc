// Property suite for ChunkMerger, the runtime's per-worker chunk merge.
//
// Each trial is a sequence of merges pushed through ONE merger and ONE output
// gradient, the way a worker reuses them across iterations. Every merge is
// compared bit for bit against a transparent reference kept here: concatenate
// the chunks' (index, value * weight) entries in chunk order, stable-sort by
// index, and sum duplicates left to right (dense merges: Axpy-style
// accumulation in chunk order). Generated cases cover duplicates inside a
// chunk, empty chunks, one chunk, 8 chunks, index dim-1, bitmap-word
// boundaries and dense chunks; values are non-dyadic so any change of
// summation order shows in the bits.
//
// On failure the harness shrinks the trial (greedy ddmin over merges, then
// chunks, then entries — the compression_property_test recipe) and prints
// it. Two planted bugs must be caught and shrunk: chunks merged in reverse
// order, and an occupancy bitmap that is not reset between merges.
//
// Trials are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "harness/workload.h"
#include "models/chunk_merger.h"
#include "support/property.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() { return PropertySeed(20261017); }

// A dense chunk has no indices and `dim` values.
struct Chunk {
  std::vector<std::uint64_t> indices;
  std::vector<double> values;
};

struct MergeCase {
  bool dense = false;
  std::vector<Chunk> chunks;  // never empty
};

struct Trial {
  std::size_t dim = 1;
  std::vector<MergeCase> merges;
};

double RandomValue(Rng& rng) {
  constexpr double kSpecial[] = {0.0, -0.0, 1e20, -1e20, 1e-300, 0.1, 1.0 / 3};
  if (rng.Index(8) == 0) return kSpecial[rng.Index(std::size(kSpecial))];
  return rng.Uniform(-10.0, 10.0);
}

Chunk RandomSparseChunk(Rng& rng, std::size_t dim) {
  Chunk chunk;
  if (rng.Index(8) == 0) return chunk;  // empty chunk
  // A narrow window makes cross-chunk duplicates common; dim-1 rides along.
  const std::size_t window = 1 + rng.Index(std::min<std::size_t>(dim, 24));
  const std::size_t base = rng.Index(dim - window + 1);
  const std::size_t nnz = 1 + rng.Index(12);
  for (std::size_t i = 0; i < nnz; ++i) {
    std::uint64_t index = base + rng.Index(window);
    if (rng.Index(10) == 0) index = dim - 1;
    if (!chunk.indices.empty() && rng.Index(4) == 0) {
      index = chunk.indices[rng.Index(chunk.indices.size())];  // in-chunk dup
    }
    chunk.indices.push_back(index);
    chunk.values.push_back(RandomValue(rng));
  }
  return chunk;
}

Trial GenerateTrial(std::uint64_t seed) {
  Rng rng(seed);
  Trial t;
  constexpr std::size_t kDims[] = {1, 2, 63, 64, 65, 128, 200, 1000};
  t.dim = rng.Index(2) == 0 ? kDims[rng.Index(std::size(kDims))]
                            : 1 + rng.Index(300);
  const std::size_t num_merges = 1 + rng.Index(5);
  for (std::size_t m = 0; m < num_merges; ++m) {
    MergeCase merge;
    merge.dense = rng.Index(6) == 0;
    constexpr std::size_t kChunkCounts[] = {1, 2, 3, 4, 4, 8};
    const std::size_t num_chunks = kChunkCounts[rng.Index(std::size(kChunkCounts))];
    for (std::size_t c = 0; c < num_chunks; ++c) {
      if (merge.dense) {
        Chunk chunk;
        for (std::size_t i = 0; i < t.dim; ++i) {
          chunk.values.push_back(RandomValue(rng));
        }
        merge.chunks.push_back(std::move(chunk));
      } else {
        merge.chunks.push_back(RandomSparseChunk(rng, t.dim));
      }
    }
    t.merges.push_back(std::move(merge));
  }
  return t;
}

std::vector<Gradient> MakeChunks(const MergeCase& merge, std::size_t dim) {
  std::vector<Gradient> grads;
  for (const Chunk& chunk : merge.chunks) {
    if (merge.dense) {
      Gradient g = Gradient::Dense(dim);
      std::copy(chunk.values.begin(), chunk.values.end(), g.dense().begin());
      grads.push_back(std::move(g));
      continue;
    }
    Gradient g = Gradient::Sparse();
    for (std::size_t i = 0; i < chunk.indices.size(); ++i) {
      g.sparse().Add(chunk.indices[i], chunk.values[i]);
    }
    grads.push_back(std::move(g));
  }
  return grads;
}

std::string FormatTrial(const Trial& t) {
  std::ostringstream out;
  out.precision(17);
  out << "dim=" << t.dim;
  for (const MergeCase& merge : t.merges) {
    out << "\n  merge" << (merge.dense ? " (dense):" : ":");
    for (const Chunk& chunk : merge.chunks) {
      out << " {";
      for (std::size_t i = 0; i < chunk.values.size(); ++i) {
        if (i > 0) out << ',';
        if (!merge.dense) out << chunk.indices[i] << ':';
        out << chunk.values[i];
      }
      out << '}';
    }
  }
  return out.str();
}

// --- reference ---------------------------------------------------------------

Gradient ReferenceMerge(const std::vector<Gradient>& chunks) {
  const double weight = 1.0 / static_cast<double>(chunks.size());
  if (!chunks.front().is_sparse()) {
    Gradient out = Gradient::Dense(chunks.front().dense().size());
    for (const Gradient& chunk : chunks) {
      for (std::size_t i = 0; i < out.dense().size(); ++i) {
        out.dense()[i] += weight * chunk.dense()[i];
      }
    }
    return out;
  }
  std::vector<std::pair<std::uint64_t, double>> entries;
  for (const Gradient& chunk : chunks) {
    for (std::size_t i = 0; i < chunk.sparse().nnz(); ++i) {
      entries.emplace_back(chunk.sparse().indices()[i],
                           chunk.sparse().values()[i] * weight);
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Gradient out = Gradient::Sparse();
  std::vector<std::uint64_t> indices;
  std::vector<double> values;
  for (const auto& [index, value] : entries) {
    if (!indices.empty() && indices.back() == index) {
      values.back() += value;
    } else {
      indices.push_back(index);
      values.push_back(value);
    }
  }
  for (std::size_t i = 0; i < indices.size(); ++i) {
    out.sparse().Add(indices[i], values[i]);
  }
  return out;
}

// --- subjects ----------------------------------------------------------------

enum class SubjectKind {
  kMerger,          // the real ChunkMerger
  kReversedChunks,  // planted: the real merger fed the chunks back to front
  kStaleBitmap,     // planted: the bitmap is never cleared between merges
};

// The kStaleBitmap subject: ChunkMerger's sparse algorithm with the bit
// reset left out of the emit scan, so a merge sees the previous merges'
// occupancy. (Dense merges go to the real merger.)
class StaleBitmapMerger {
 public:
  explicit StaleBitmapMerger(std::size_t dim)
      : acc_(dim), bits_((dim + 63) / 64, 0) {}

  void MergeSparse(const std::vector<Gradient>& chunks, Gradient& out) {
    const double weight = 1.0 / static_cast<double>(chunks.size());
    out.ResetSparse();
    for (const Gradient& chunk : chunks) {
      for (std::size_t i = 0; i < chunk.sparse().nnz(); ++i) {
        const auto index = static_cast<std::size_t>(chunk.sparse().indices()[i]);
        const double value = chunk.sparse().values()[i] * weight;
        const std::uint64_t bit = std::uint64_t{1} << (index % 64);
        if ((bits_[index / 64] & bit) != 0) {
          acc_[index] += value;
        } else {
          bits_[index / 64] |= bit;
          acc_[index] = value;
        }
      }
    }
    for (std::size_t word = 0; word < bits_.size(); ++word) {
      for (std::uint64_t bits = bits_[word]; bits != 0; bits &= bits - 1) {
        const std::size_t index =
            word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        out.sparse().Add(index, acc_[index]);
      }
    }
  }

 private:
  std::vector<double> acc_;
  std::vector<std::uint64_t> bits_;
};

bool SameBits(double a, double b) {
  std::uint64_t bits_a = 0;
  std::uint64_t bits_b = 0;
  std::memcpy(&bits_a, &a, sizeof(a));
  std::memcpy(&bits_b, &b, sizeof(b));
  return bits_a == bits_b;
}

std::optional<std::string> Compare(const Gradient& got, const Gradient& want) {
  if (got.is_sparse() != want.is_sparse()) return "representation differs";
  if (!got.is_sparse()) {
    if (got.dense().size() != want.dense().size()) return "dense size differs";
    for (std::size_t i = 0; i < want.dense().size(); ++i) {
      if (!SameBits(got.dense()[i], want.dense()[i])) {
        return "dense value bits differ at coord " + std::to_string(i);
      }
    }
    return std::nullopt;
  }
  const SparseUpdate& g = got.sparse();
  const SparseUpdate& w = want.sparse();
  if (g.nnz() != w.nnz()) {
    return "nnz " + std::to_string(g.nnz()) + ", want " +
           std::to_string(w.nnz());
  }
  for (std::size_t i = 0; i < w.nnz(); ++i) {
    if (g.indices()[i] != w.indices()[i]) {
      return "index differs at entry " + std::to_string(i);
    }
    if (!SameBits(g.values()[i], w.values()[i])) {
      return "value bits differ at index " + std::to_string(w.indices()[i]);
    }
  }
  return std::nullopt;
}

std::optional<std::string> RunTrial(const Trial& trial, SubjectKind kind) {
  ChunkMerger merger(trial.dim);
  StaleBitmapMerger stale(trial.dim);
  Gradient out;  // reused across merges, like the runtime's
  for (std::size_t m = 0; m < trial.merges.size(); ++m) {
    std::vector<Gradient> chunks = MakeChunks(trial.merges[m], trial.dim);
    const Gradient want = ReferenceMerge(chunks);
    switch (kind) {
      case SubjectKind::kMerger:
        merger.Merge(chunks, out);
        break;
      case SubjectKind::kReversedChunks:
        std::reverse(chunks.begin(), chunks.end());
        merger.Merge(chunks, out);
        break;
      case SubjectKind::kStaleBitmap:
        if (trial.merges[m].dense) {
          merger.Merge(chunks, out);
        } else {
          stale.MergeSparse(chunks, out);
        }
        break;
    }
    if (auto diff = Compare(out, want)) {
      return "merge " + std::to_string(m) + ": " + *diff;
    }
  }
  return std::nullopt;
}

Trial ShrinkTrial(Trial trial, SubjectKind kind) {
  const auto fails = [&](const Trial& candidate) {
    return RunTrial(candidate, kind).has_value();
  };
  ShrinkList(trial.merges, 1, [&](const std::vector<MergeCase>& merges) {
    Trial candidate = trial;
    candidate.merges = merges;
    return fails(candidate);
  });
  for (std::size_t m = 0; m < trial.merges.size(); ++m) {
    ShrinkList(trial.merges[m].chunks, 1,
               [&](const std::vector<Chunk>& chunks) {
                 Trial candidate = trial;
                 candidate.merges[m].chunks = chunks;
                 return fails(candidate);
               });
    if (trial.merges[m].dense) continue;  // dense chunks keep all dim values
    for (std::size_t c = 0; c < trial.merges[m].chunks.size(); ++c) {
      Chunk& chunk = trial.merges[m].chunks[c];
      std::vector<std::size_t> entries(chunk.indices.size());
      for (std::size_t i = 0; i < entries.size(); ++i) entries[i] = i;
      const auto project = [&](const std::vector<std::size_t>& kept) {
        Chunk out;
        for (const std::size_t i : kept) {
          out.indices.push_back(chunk.indices[i]);
          out.values.push_back(chunk.values[i]);
        }
        return out;
      };
      ShrinkList(entries, 0, [&](const std::vector<std::size_t>& kept) {
        Trial candidate = trial;
        candidate.merges[m].chunks[c] = project(kept);
        return fails(candidate);
      });
      chunk = project(entries);
    }
  }
  return trial;
}

TEST(ChunkMergePropertyTest, MergerMatchesStableSortReference) {
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t trial_idx = 0; trial_idx < 400; ++trial_idx) {
    const Trial trial = GenerateTrial(base + trial_idx);
    const auto failure = RunTrial(trial, SubjectKind::kMerger);
    if (failure.has_value()) {
      const Trial minimal = ShrinkTrial(trial, SubjectKind::kMerger);
      FAIL() << *failure << "\nseed " << base + trial_idx
             << "\nminimal counterexample: " << FormatTrial(minimal);
    }
  }
}

// The harness has teeth: each planted bug is caught within a few trials and
// shrinks to a small witness.
TEST(ChunkMergePropertyTest, PlantedBugsAreCaughtAndShrunk) {
  const std::uint64_t base = BaseSeed();
  for (const SubjectKind kind :
       {SubjectKind::kReversedChunks, SubjectKind::kStaleBitmap}) {
    bool caught = false;
    for (std::uint64_t trial_idx = 0; trial_idx < 200 && !caught;
         ++trial_idx) {
      const Trial trial = GenerateTrial(base + trial_idx);
      if (!RunTrial(trial, kind).has_value()) continue;
      caught = true;
      const Trial minimal = ShrinkTrial(trial, kind);
      EXPECT_TRUE(RunTrial(minimal, kind).has_value());
      // Reversal needs one merge; a stale bitmap needs a second merge to
      // read the first one's leftovers.
      const std::size_t max_merges =
          kind == SubjectKind::kReversedChunks ? 1u : 2u;
      EXPECT_LE(minimal.merges.size(), max_merges)
          << "shrink left a large witness: " << FormatTrial(minimal);
      std::size_t entries = 0;
      for (const MergeCase& merge : minimal.merges) {
        for (const Chunk& chunk : merge.chunks) entries += chunk.values.size();
      }
      if (!minimal.merges.front().dense) {
        EXPECT_LE(entries, 4u)
            << "shrink left a large witness: " << FormatTrial(minimal);
      }
    }
    EXPECT_TRUE(caught) << "planted bug survived 200 trials";
  }
}

// The runtime's own input: four MF chunk gradients per mini-batch, merged by
// one reused merger, equal the reference on every batch.
TEST(ChunkMergePropertyTest, MfChunkGradientsMatchReference) {
  const Workload mf = MakeMfWorkload(/*seed=*/1);
  const std::size_t dim = mf.model->param_dim();
  std::vector<double> params(dim);
  Rng rng(BaseSeed());
  mf.model->InitParams(params, rng);
  ChunkMerger merger(dim);
  Gradient out;
  for (int batch = 0; batch < 20; ++batch) {
    const std::vector<std::size_t> indices =
        rng.SampleIndices(mf.model->dataset_size(), mf.batch_size);
    std::vector<Gradient> chunks(4);
    const std::size_t chunk_size = indices.size() / chunks.size();
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      mf.model->LossAndGradient(
          params, std::span(indices).subspan(c * chunk_size, chunk_size),
          chunks[c]);
    }
    merger.Merge(chunks, out);
    const auto diff = Compare(out, ReferenceMerge(chunks));
    EXPECT_FALSE(diff.has_value()) << "batch " << batch << ": " << *diff;
  }
}

}  // namespace
}  // namespace specsync
