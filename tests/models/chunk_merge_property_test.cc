// Property suite for the open gradient sum (Gradient::OpenSum/CloseSum in
// models/model.h), the way the runtime computes a mini-batch in chunks: one
// sum per batch, each chunk added into it, one emit at the close.
//
// Each trial is a sequence of sums pushed through ONE workspace and ONE
// output gradient, the way a runtime worker reuses them across attempts, on
// one model: matrix factorization, softmax regression or an MLP. A sum cuts
// its batch anywhere into 1 to 8 non-empty chunks and is either closed, with
// weight 1 or 1/C for C chunks, or abandoned after some of its chunks, as an
// aborted attempt is. Every closed sum is compared against one-call
// gradients of the same parameters:
//  - MF, bit for bit: the close equals the one-call gradient of the whole
//    batch times the weight, entry by entry, for any cut and any weight,
//    with block_width() the rank. Each factor row sums its contributions in
//    batch order however the batch was cut, and the close scales each sum
//    once. (mf_gradient_property_test pins the one-call gradient against the
//    stable-sort reference.)
//  - dense models, to rounding: the close equals the sum over chunks of
//    weight times the chunk's own one-call gradient. The chunks add into one
//    buffer, so the rounding differs from that of separate chunk gradients.
// Parameters are random and non-dyadic, and weights 1/3, 1/5, 1/6 and 1/7
// are not powers of two, so any change of summation or scaling order shows
// in the MF bits.
//
// On failure the harness shrinks the trial (greedy ddmin over sums, then
// chunks, then samples, the compression_property_test recipe) and prints it.
// Three planted bugs must be caught and shrunk: a cut that drops the batch's
// last sample, a weight applied to each chunk before it joins the sum, and
// an abandoned sum whose rows leak into the next one. A chunk with an index
// past the dataset must throw, and the next sum must come out clean.
//
// The case names are the ones this suite had when a separate merger summed
// the chunk gradients; the open sum replaced it.
//
// Trials are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "harness/workload.h"
#include "models/matrix_factorization.h"
#include "models/mlp.h"
#include "models/model.h"
#include "models/softmax_regression.h"
#include "support/property.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() { return PropertySeed(20261017); }

enum class ModelKind { kMf, kSoftmax, kMlp };

// Small models, so that a short batch revisits its factor rows often.
const Model& TrialModel(ModelKind kind) {
  static const std::shared_ptr<const Model> mf = [] {
    Rng rng(11);
    RatingsSpec spec;
    spec.num_users = 12;
    spec.num_items = 9;
    spec.num_ratings = 200;
    spec.true_rank = 3;
    return std::make_shared<MatrixFactorizationModel>(
        std::make_shared<RatingsDataset>(GenerateRatings(spec, rng)),
        MatrixFactorizationConfig{.rank = 3});
  }();
  static const auto classification = [] {
    Rng rng(12);
    ClassificationSpec spec;
    spec.num_examples = 120;
    spec.feature_dim = 4;
    spec.num_classes = 3;
    return std::make_shared<ClassificationDataset>(
        GenerateClassification(spec, rng));
  }();
  static const std::shared_ptr<const Model> softmax =
      std::make_shared<SoftmaxRegressionModel>(classification,
                                               SoftmaxRegressionConfig{});
  static const std::shared_ptr<const Model> mlp =
      std::make_shared<MlpClassifierModel>(classification,
                                           MlpConfig{.hidden = {5}});
  switch (kind) {
    case ModelKind::kMf:
      return *mf;
    case ModelKind::kSoftmax:
      return *softmax;
    case ModelKind::kMlp:
      return *mlp;
  }
  return *mf;
}

struct SumCase {
  std::vector<std::vector<std::size_t>> chunks;  // the batch, cut; none empty
  bool unit_weight = true;                       // else 1 / chunks.size()
  std::size_t abandon_after = 0;  // > 0: abandoned after this many chunks

  double weight() const {
    return unit_weight ? 1.0 : 1.0 / static_cast<double>(chunks.size());
  }
  std::vector<std::size_t> batch() const {
    std::vector<std::size_t> all;
    for (const auto& chunk : chunks) all.insert(all.end(), chunk.begin(), chunk.end());
    return all;
  }
};

struct Trial {
  ModelKind model = ModelKind::kMf;
  std::uint64_t params_seed = 0;
  std::vector<SumCase> sums;
};

Trial GenerateTrial(std::uint64_t seed) {
  Rng rng(seed);
  Trial t;
  const std::size_t pick = rng.Index(4);
  t.model = pick < 2 ? ModelKind::kMf
                     : (pick == 2 ? ModelKind::kSoftmax : ModelKind::kMlp);
  t.params_seed = seed;
  const std::size_t examples = TrialModel(t.model).dataset_size();
  const std::size_t num_sums = 1 + rng.Index(5);
  for (std::size_t s = 0; s < num_sums; ++s) {
    SumCase sum;
    const std::size_t num_chunks = 1 + rng.Index(8);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      // Ragged cuts: chunks of 1 to 6 samples.
      sum.chunks.push_back(rng.SampleIndices(examples, 1 + rng.Index(6)));
    }
    sum.unit_weight = rng.Index(3) == 0;
    if (rng.Index(4) == 0) sum.abandon_after = 1 + rng.Index(num_chunks);
    t.sums.push_back(std::move(sum));
  }
  return t;
}

std::vector<double> TrialParams(const Trial& t) {
  const Model& model = TrialModel(t.model);
  std::vector<double> params(model.param_dim());
  Rng rng(t.params_seed);
  model.InitParams(params, rng);
  return params;
}

std::string FormatTrial(const Trial& t) {
  std::ostringstream out;
  out << "model=" << static_cast<int>(t.model)
      << " params_seed=" << t.params_seed;
  for (const SumCase& sum : t.sums) {
    out << "\n  sum";
    if (sum.abandon_after > 0) {
      out << " (abandoned after " << sum.abandon_after << ")";
    } else {
      out << " (weight " << (sum.unit_weight ? "1" : "1/C") << ")";
    }
    out << ':';
    for (const auto& chunk : sum.chunks) {
      out << " {";
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        out << (i > 0 ? "," : "") << chunk[i];
      }
      out << '}';
    }
  }
  return out.str();
}

std::size_t Samples(const Trial& t) {
  std::size_t samples = 0;
  for (const SumCase& sum : t.sums) samples += sum.batch().size();
  return samples;
}

// --- references --------------------------------------------------------------

Gradient OneCall(const Model& model, std::span<const double> params,
                 std::span<const std::size_t> batch) {
  Gradient g;
  model.LossAndGradient(params, batch, g);
  return g;
}

// MF: the whole batch's one-call gradient, times the weight. Dense: the
// weighted sum of the chunks' one-call gradients.
Gradient Reference(const Model& model, std::span<const double> params,
                   const SumCase& sum) {
  if (model.prefers_sparse_gradients()) {
    Gradient g = OneCall(model, params, sum.batch());
    g.sparse().ScaleValues(sum.weight());
    return g;
  }
  Gradient g = Gradient::Dense(model.param_dim());
  for (const auto& chunk : sum.chunks) {
    Axpy(sum.weight(), OneCall(model, params, chunk).dense(), g.dense());
  }
  return g;
}

bool SameBits(double a, double b) {
  std::uint64_t bits_a = 0;
  std::uint64_t bits_b = 0;
  std::memcpy(&bits_a, &a, sizeof(a));
  std::memcpy(&bits_b, &b, sizeof(b));
  return bits_a == bits_b;
}

std::optional<std::string> Compare(const Model& model, const Gradient& got,
                                   const Gradient& want) {
  if (got.is_sparse() != want.is_sparse()) return "representation differs";
  if (!got.is_sparse()) {
    if (got.dense().size() != want.dense().size()) return "dense size differs";
    for (std::size_t i = 0; i < want.dense().size(); ++i) {
      const double g = got.dense()[i];
      const double w = want.dense()[i];
      if (!(std::abs(g - w) <= 1e-12 * (1.0 + std::abs(w)))) {
        return "dense value differs at coord " + std::to_string(i);
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
  const auto rank =
      static_cast<const MatrixFactorizationModel&>(model).rank();
  if (!g.strictly_increasing() || g.block_width() != rank) {
    return "block_width " + std::to_string(g.block_width()) + ", want " +
           std::to_string(rank);
  }
  return std::nullopt;
}

// --- subjects ----------------------------------------------------------------

enum class SubjectKind {
  kOpenSum,         // the real open sum
  kDroppedSample,   // planted: the cut loses the batch's last sample
  kPerChunkWeight,  // planted: each chunk weighted before it joins the sum
  kLeakyAbort,      // planted: an abandoned sum is not reopened, so its
                    // rows join the next one
};

// The kPerChunkWeight subject: each chunk's one-call gradient, times the
// weight, added into a map of entries in chunk order.
Gradient PerChunkWeightedSum(const Model& model,
                             std::span<const double> params,
                             const SumCase& sum) {
  if (!model.prefers_sparse_gradients()) return Reference(model, params, sum);
  std::vector<double> acc(model.param_dim());
  std::vector<bool> set(model.param_dim(), false);
  for (const auto& chunk : sum.chunks) {
    const Gradient g = OneCall(model, params, chunk);
    for (std::size_t i = 0; i < g.sparse().nnz(); ++i) {
      const auto index = static_cast<std::size_t>(g.sparse().indices()[i]);
      const double value = g.sparse().values()[i] * sum.weight();
      acc[index] = set[index] ? acc[index] + value : value;
      set[index] = true;
    }
  }
  Gradient out = Gradient::Sparse();
  for (std::size_t i = 0; i < acc.size(); ++i) {
    if (set[i]) out.sparse().Add(i, acc[i]);
  }
  return out;
}

// Runs one sum through `out` on `workspace`: closes it, or abandons it
// after its first abandon_after chunks.
void RunSum(const Model& model, std::span<const double> params,
            const SumCase& sum, SubjectKind kind, SumWorkspace& workspace,
            Gradient& out) {
  if (kind == SubjectKind::kPerChunkWeight && sum.abandon_after == 0) {
    out = PerChunkWeightedSum(model, params, sum);
    return;
  }
  if (kind != SubjectKind::kLeakyAbort || !out.sum_open()) {
    out.OpenSum(workspace);
  }
  const std::size_t count =
      sum.abandon_after > 0 ? sum.abandon_after : sum.chunks.size();
  for (std::size_t c = 0; c < count; ++c) {
    std::span<const std::size_t> chunk = sum.chunks[c];
    if (kind == SubjectKind::kDroppedSample && c + 1 == sum.chunks.size()) {
      chunk = chunk.first(chunk.size() - 1);
      if (chunk.empty()) continue;
    }
    model.LossAndGradient(params, chunk, out);
  }
  if (sum.abandon_after == 0) out.CloseSum(sum.weight());
}

std::optional<std::string> RunTrial(const Trial& trial, SubjectKind kind) {
  const Model& model = TrialModel(trial.model);
  const std::vector<double> params = TrialParams(trial);
  SumWorkspace workspace;
  Gradient out;  // reused across sums, like the runtime's
  for (std::size_t s = 0; s < trial.sums.size(); ++s) {
    const SumCase& sum = trial.sums[s];
    try {
      RunSum(model, params, sum, kind, workspace, out);
    } catch (const CheckError& e) {
      return "sum " + std::to_string(s) + " threw: " + e.what();
    }
    if (sum.abandon_after > 0) continue;
    if (auto diff = Compare(model, out, Reference(model, params, sum))) {
      return "sum " + std::to_string(s) + ": " + *diff;
    }
  }
  return std::nullopt;
}

Trial ShrinkTrial(Trial trial, SubjectKind kind) {
  const auto fails = [&](const Trial& candidate) {
    return RunTrial(candidate, kind).has_value();
  };
  ShrinkList(trial.sums, 1, [&](const std::vector<SumCase>& sums) {
    Trial candidate = trial;
    candidate.sums = sums;
    return fails(candidate);
  });
  for (std::size_t s = 0; s < trial.sums.size(); ++s) {
    const auto with_chunks = [&](std::vector<std::vector<std::size_t>> chunks) {
      Trial candidate = trial;
      SumCase& sum = candidate.sums[s];
      sum.chunks = std::move(chunks);
      sum.abandon_after = std::min(sum.abandon_after, sum.chunks.size());
      return candidate;
    };
    ShrinkList(trial.sums[s].chunks, 1,
               [&](const std::vector<std::vector<std::size_t>>& chunks) {
                 return fails(with_chunks(chunks));
               });
    trial = with_chunks(trial.sums[s].chunks);
    for (std::size_t c = 0; c < trial.sums[s].chunks.size(); ++c) {
      ShrinkList(trial.sums[s].chunks[c], 1,
                 [&](const std::vector<std::size_t>& samples) {
                   Trial candidate = trial;
                   candidate.sums[s].chunks[c] = samples;
                   return fails(candidate);
                 });
    }
  }
  return trial;
}

TEST(ChunkMergePropertyTest, MergerMatchesStableSortReference) {
  const std::uint64_t base = BaseSeed();
  // Non-vacuity: MF sums with ragged cuts, with weights that are not powers
  // of two, and closed right after an abandoned sum; dense closed sums.
  std::size_t ragged_mf = 0;
  std::size_t odd_weight_mf = 0;
  std::size_t after_abandon_mf = 0;
  std::size_t dense = 0;
  for (std::uint64_t trial_idx = 0; trial_idx < 400; ++trial_idx) {
    const Trial trial = GenerateTrial(base + trial_idx);
    for (std::size_t s = 0; s < trial.sums.size(); ++s) {
      const SumCase& sum = trial.sums[s];
      if (sum.abandon_after > 0) continue;
      if (trial.model != ModelKind::kMf) {
        ++dense;
        continue;
      }
      const std::size_t chunks = sum.chunks.size();
      bool ragged = false;
      for (const auto& chunk : sum.chunks) {
        ragged = ragged || chunk.size() != sum.chunks.front().size();
      }
      ragged_mf += ragged;
      odd_weight_mf += !sum.unit_weight && (chunks & (chunks - 1)) != 0;
      after_abandon_mf += s > 0 && trial.sums[s - 1].abandon_after > 0;
    }
    const auto failure = RunTrial(trial, SubjectKind::kOpenSum);
    if (failure.has_value()) {
      const Trial minimal = ShrinkTrial(trial, SubjectKind::kOpenSum);
      FAIL() << *failure << "\nseed " << base + trial_idx
             << "\nminimal counterexample: " << FormatTrial(minimal);
    }
  }
  EXPECT_GT(ragged_mf, 0u);
  EXPECT_GT(odd_weight_mf, 0u);
  EXPECT_GT(after_abandon_mf, 0u);
  EXPECT_GT(dense, 0u);
}

// The harness has teeth: each planted bug is caught within a few trials and
// shrinks to a small witness.
TEST(ChunkMergePropertyTest, PlantedBugsAreCaughtAndShrunk) {
  const std::uint64_t base = BaseSeed();
  for (const SubjectKind kind :
       {SubjectKind::kDroppedSample, SubjectKind::kPerChunkWeight,
        SubjectKind::kLeakyAbort}) {
    bool caught = false;
    for (std::uint64_t trial_idx = 0; trial_idx < 200 && !caught;
         ++trial_idx) {
      const Trial trial = GenerateTrial(base + trial_idx);
      if (!RunTrial(trial, kind).has_value()) continue;
      caught = true;
      const Trial minimal = ShrinkTrial(trial, kind);
      EXPECT_TRUE(RunTrial(minimal, kind).has_value());
      // A leak needs the abandoned sum and the one it leaks into; the other
      // bugs show in one sum.
      const std::size_t max_sums = kind == SubjectKind::kLeakyAbort ? 2u : 1u;
      EXPECT_LE(minimal.sums.size(), max_sums)
          << "shrink left a large witness: " << FormatTrial(minimal);
      EXPECT_LE(Samples(minimal), 8u)
          << "shrink left a large witness: " << FormatTrial(minimal);
    }
    EXPECT_TRUE(caught) << "planted bug " << static_cast<int>(kind)
                        << " survived 200 trials";
  }
}

// A chunk with an index past the dataset throws, whether it comes first or
// after others were added, and the next sum on the same workspace and
// gradient must still equal the reference. A plain call with a bad index
// throws too and leaves no sum open.
TEST(ChunkMergePropertyTest, ThrowingMergeLeavesMergerUsable) {
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t trial_idx = 0; trial_idx < 100; ++trial_idx) {
    const Trial trial = GenerateTrial(base + trial_idx);
    const Model& model = TrialModel(trial.model);
    const std::vector<double> params = TrialParams(trial);
    Rng rng(base + trial_idx);
    SumWorkspace workspace;
    Gradient out;
    for (std::size_t s = 0; s < trial.sums.size(); ++s) {
      const SumCase& sum = trial.sums[s];
      std::vector<std::size_t> bad = sum.chunks.back();
      bad[rng.Index(bad.size())] = model.dataset_size();
      out.OpenSum(workspace);
      const std::size_t good = rng.Index(sum.chunks.size());
      for (std::size_t c = 0; c < good; ++c) {
        model.LossAndGradient(params, sum.chunks[c], out);
      }
      EXPECT_THROW(model.LossAndGradient(params, bad, out), CheckError);
      Gradient plain;
      EXPECT_THROW(model.LossAndGradient(params, bad, plain), CheckError);
      EXPECT_FALSE(plain.sum_open());

      SumCase closed = sum;
      closed.abandon_after = 0;
      RunSum(model, params, closed, SubjectKind::kOpenSum, workspace, out);
      const auto diff = Compare(model, out, Reference(model, params, closed));
      ASSERT_FALSE(diff.has_value())
          << "seed " << base + trial_idx << ", sum " << s << " after "
          << good << " good chunks: " << *diff;
    }
  }
}

// The runtime's own input: 200-rating MF batches in four 50-rating chunks
// through one reused workspace and gradient, every other batch first
// abandoned after two chunks, as an aborted attempt is. Each close at 1/4
// equals the batch's one-call gradient times 1/4, bit for bit.
TEST(ChunkMergePropertyTest, MfChunkGradientsMatchReference) {
  const Workload mf = MakeMfWorkload(/*seed=*/1);
  std::vector<double> params(mf.model->param_dim());
  Rng rng(BaseSeed());
  mf.model->InitParams(params, rng);
  SumWorkspace workspace;
  Gradient out;
  for (int batch = 0; batch < 20; ++batch) {
    SumCase sum;
    const std::vector<std::size_t> indices =
        rng.SampleIndices(mf.model->dataset_size(), mf.batch_size);
    const std::size_t chunk_size = indices.size() / 4;
    for (std::size_t c = 0; c < 4; ++c) {
      sum.chunks.emplace_back(indices.begin() + c * chunk_size,
                              indices.begin() + (c + 1) * chunk_size);
    }
    sum.unit_weight = false;
    if (batch % 2 == 1) {
      SumCase aborted = sum;
      aborted.abandon_after = 2;
      RunSum(*mf.model, params, aborted, SubjectKind::kOpenSum, workspace, out);
    }
    RunSum(*mf.model, params, sum, SubjectKind::kOpenSum, workspace, out);
    const auto diff =
        Compare(*mf.model, out, Reference(*mf.model, params, sum));
    EXPECT_FALSE(diff.has_value()) << "batch " << batch << ": " << *diff;
  }
}

}  // namespace
}  // namespace specsync
