// Property suite for the matrix-factorization gradient kernel.
//
// MatrixFactorizationModel::LossAndGradient sums each factor row's
// contributions in batch order, in one pass, into a per-thread accumulator
// with an occupancy bitmap beside it. Every call is compared bit for bit
// (loss, indices, value bits) against a transparent reference kept here:
// append the two rank-long entry runs of every rating in batch order, the
// way the kernel's predecessors did, then stable-sort by index and sum
// duplicates left to right. Each trial is a sequence of batches pushed
// through ONE model and ONE output gradient (which starts out dense), so the
// kernel's reuse of the caller's gradient and of its own workspace is
// covered. Generated cases cover duplicate-heavy tiny datasets (3 users x 2
// items, batch 64), batch size 1, rank 1 and 16, zero regularization,
// parameters that are exactly +-0.0, and both sum_gradient settings; values
// are non-dyadic so any change of summation order shows in the bits. Wide
// trials (more than 128 factor rows) touch rows 63, 64, 127, 128 and the
// last row in every batch, so contributions land on both sides of each
// bitmap word boundary, and they alternate with tiny trials on the same
// thread, so one workspace serves models of very different sizes.
//
// On failure the harness shrinks the trial (greedy ddmin over batches, then
// batch entries — the chunk_merge_property_test recipe) and prints it. Three
// planted bugs must be caught and shrunk: duplicates summed in reverse, a
// row's first contribution dropped, and a row's sum carried over from the
// trial's previous batch (a workspace left dirty between calls).
//
// Trials are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "models/matrix_factorization.h"
#include "support/property.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() { return PropertySeed(20261017); }

struct Trial {
  std::size_t num_users = 1;
  std::size_t num_items = 1;
  std::vector<Rating> ratings;
  MatrixFactorizationConfig config;
  std::vector<double> params;
  std::vector<std::vector<std::size_t>> batches;  // each non-empty
};

double RandomParam(Rng& rng) {
  constexpr double kSpecial[] = {0.0, -0.0, 1.0 / 3, -0.1};
  if (rng.Index(10) == 0) return kSpecial[rng.Index(std::size(kSpecial))];
  return rng.Uniform(-1.0, 1.0);
}

Trial GenerateTrial(std::uint64_t seed) {
  Rng rng(seed);
  Trial t;
  // Shapes: duplicate-heavy tiny, small random, and MF-like sparse.
  const std::size_t shape = rng.Index(3);
  std::size_t max_batch = 0;
  if (shape == 0) {
    t.num_users = 3;
    t.num_items = 2;
    max_batch = 64;
  } else if (shape == 1) {
    t.num_users = 1 + rng.Index(8);
    t.num_items = 1 + rng.Index(8);
    max_batch = 1 + rng.Index(32);
  } else {
    t.num_users = 20 + rng.Index(60);
    t.num_items = 20 + rng.Index(40);
    max_batch = 200;
  }
  constexpr std::size_t kRanks[] = {1, 2, 3, 8, 16};
  t.config.rank = kRanks[rng.Index(std::size(kRanks))];
  constexpr double kRegs[] = {0.0, 0.02, 0.1, 1.0 / 3};
  t.config.regularization = kRegs[rng.Index(std::size(kRegs))];
  t.config.sum_gradient = rng.Index(2) == 0;

  const std::size_t num_ratings = 1 + rng.Index(300);
  for (std::size_t i = 0; i < num_ratings; ++i) {
    t.ratings.push_back(
        Rating{static_cast<std::uint32_t>(rng.Index(t.num_users)),
               static_cast<std::uint32_t>(rng.Index(t.num_items)),
               rng.Uniform(0.0, 5.0)});
  }
  t.params.resize((t.num_users + t.num_items) * t.config.rank);
  for (double& p : t.params) p = RandomParam(rng);

  const std::size_t num_batches = 1 + rng.Index(4);
  for (std::size_t b = 0; b < num_batches; ++b) {
    const std::size_t size =
        rng.Index(4) == 0 ? (rng.Index(2) == 0 ? 1 : max_batch)
                          : 1 + rng.Index(max_batch);
    std::vector<std::size_t> batch;
    for (std::size_t i = 0; i < size; ++i) {
      batch.push_back(rng.Index(num_ratings));  // with replacement
    }
    t.batches.push_back(std::move(batch));
  }
  return t;
}

// More than 128 factor rows (two bitmap words and a bit), with every batch
// touching rows 63, 64, 127, 128 and the last row: the first ratings of the
// trial each touch one of those rows, and every batch holds all of them at
// random places among random others.
Trial GenerateWideTrial(std::uint64_t seed) {
  Rng rng(seed);
  Trial t;
  t.num_users = 20 + rng.Index(140);
  t.num_items = (t.num_users < 129 ? 129 - t.num_users : 1) + rng.Index(100);
  constexpr std::size_t kRanks[] = {1, 3, 8, 16};
  t.config.rank = kRanks[rng.Index(std::size(kRanks))];
  constexpr double kRegs[] = {0.0, 0.02, 1.0 / 3};
  t.config.regularization = kRegs[rng.Index(std::size(kRegs))];
  t.config.sum_gradient = rng.Index(2) == 0;

  const std::size_t rows = t.num_users + t.num_items;
  const auto random_user = [&] {
    return static_cast<std::uint32_t>(rng.Index(t.num_users));
  };
  const auto random_item = [&] {
    return static_cast<std::uint32_t>(rng.Index(t.num_items));
  };
  const std::size_t boundary_rows[] = {63, 64, 127, 128, rows - 1};
  for (const std::size_t row : boundary_rows) {
    Rating rating{random_user(), random_item(), rng.Uniform(0.0, 5.0)};
    if (row < t.num_users) {
      rating.user = static_cast<std::uint32_t>(row);
    } else {
      rating.item = static_cast<std::uint32_t>(row - t.num_users);
    }
    t.ratings.push_back(rating);
  }
  const std::size_t num_ratings = std::size(boundary_rows) + rng.Index(400);
  while (t.ratings.size() < num_ratings) {
    t.ratings.push_back(
        Rating{random_user(), random_item(), rng.Uniform(0.0, 5.0)});
  }
  t.params.resize(rows * t.config.rank);
  for (double& p : t.params) p = RandomParam(rng);

  const std::size_t num_batches = 1 + rng.Index(4);
  for (std::size_t b = 0; b < num_batches; ++b) {
    std::vector<std::size_t> batch;
    for (std::size_t i = 0; i < std::size(boundary_rows); ++i) {
      batch.push_back(i);
    }
    for (std::size_t extra = rng.Index(200); extra > 0; --extra) {
      batch.push_back(rng.Index(num_ratings));
    }
    for (std::size_t i = batch.size(); i > 1; --i) {
      std::swap(batch[i - 1], batch[rng.Index(i)]);
    }
    t.batches.push_back(std::move(batch));
  }
  return t;
}

std::shared_ptr<const RatingsDataset> MakeData(const Trial& t) {
  auto data = std::make_shared<RatingsDataset>(t.num_users, t.num_items);
  for (const Rating& rating : t.ratings) data->Add(rating);
  return data;
}

std::string FormatTrial(const Trial& t) {
  std::ostringstream out;
  out.precision(17);
  out << t.num_users << " users x " << t.num_items << " items, rank "
      << t.config.rank << ", reg " << t.config.regularization
      << ", sum_gradient " << t.config.sum_gradient;
  for (const std::vector<std::size_t>& batch : t.batches) {
    out << "\n  batch:";
    for (const std::size_t idx : batch) {
      const Rating& r = t.ratings[idx];
      out << " (u" << r.user << ",i" << r.item << ',' << r.value << ')';
    }
  }
  return out.str();
}

// --- reference ---------------------------------------------------------------

using Entries = std::vector<std::pair<std::uint64_t, double>>;

// The per-rating Add loop: two rank-long runs per rating, in batch order,
// and the mean loss, in the arithmetic order the kernel must keep.
double ReferenceEntries(const Trial& t, std::span<const std::size_t> batch,
                        Entries& entries) {
  const std::size_t r = t.config.rank;
  const double reg = t.config.regularization;
  const double inv_batch = 1.0 / static_cast<double>(batch.size());
  const double grad_scale = t.config.sum_gradient ? 1.0 : inv_batch;
  entries.clear();
  double loss = 0.0;
  for (const std::size_t idx : batch) {
    const Rating& rating = t.ratings[idx];
    const std::size_t uo = rating.user * r;
    const std::size_t io = (t.num_users + rating.item) * r;
    double dot = 0.0;
    for (std::size_t k = 0; k < r; ++k) {
      dot += t.params[uo + k] * t.params[io + k];
    }
    const double err = dot - rating.value;
    double reg_term = 0.0;
    for (std::size_t k = 0; k < r; ++k) {
      const double uk = t.params[uo + k];
      const double vk = t.params[io + k];
      reg_term += uk * uk + vk * vk;
      entries.emplace_back(uo + k, grad_scale * (err * vk + reg * uk));
      entries.emplace_back(io + k, grad_scale * (err * uk + reg * vk));
    }
    loss += 0.5 * err * err + 0.5 * reg * reg_term;
  }
  return loss * inv_batch;
}

enum class SubjectKind {
  kKernel,              // the real MatrixFactorizationModel
  kReversedDuplicates,  // planted: a row's contributions summed last to first
  kDroppedFirst,        // planted: a row's first contribution is lost
  kCarriedOver,         // planted: a row the previous batch touched starts
                        // from that batch's sum, not from its first entry
};

// The value `carried` holds at `index`, if any (its indices are sorted).
std::optional<double> CarriedValue(const Gradient& carried,
                                   std::uint64_t index) {
  if (!carried.is_sparse()) return std::nullopt;
  const auto indices = carried.sparse().indices();
  const auto it = std::lower_bound(indices.begin(), indices.end(), index);
  if (it == indices.end() || *it != index) return std::nullopt;
  return carried.sparse().values()[static_cast<std::size_t>(
      it - indices.begin())];
}

// Stable-sorts `entries` by index and sums each index's run: left to right
// for the reference, or with one of the planted bugs. `carried` is the
// subject's output for the trial's previous batch (kCarriedOver reads it).
void SumRuns(Entries entries, SubjectKind kind, const Gradient& carried,
             Gradient& out) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  out.ResetSparse();
  for (std::size_t begin = 0; begin < entries.size();) {
    std::size_t end = begin;
    while (end < entries.size() && entries[end].first == entries[begin].first) {
      ++end;
    }
    double sum = 0.0;
    switch (kind) {
      case SubjectKind::kKernel:
        sum = entries[begin].second;
        for (std::size_t i = begin + 1; i < end; ++i) sum += entries[i].second;
        break;
      case SubjectKind::kReversedDuplicates:
        sum = entries[end - 1].second;
        for (std::size_t i = end - 1; i-- > begin;) sum += entries[i].second;
        break;
      case SubjectKind::kDroppedFirst:
        for (std::size_t i = begin + 1; i < end; ++i) sum += entries[i].second;
        break;
      case SubjectKind::kCarriedOver: {
        const std::optional<double> stale =
            CarriedValue(carried, entries[begin].first);
        sum = stale ? *stale + entries[begin].second : entries[begin].second;
        for (std::size_t i = begin + 1; i < end; ++i) sum += entries[i].second;
        break;
      }
    }
    out.sparse().Add(entries[begin].first, sum);
    begin = end;
  }
}

bool SameBits(double a, double b) {
  std::uint64_t bits_a = 0;
  std::uint64_t bits_b = 0;
  std::memcpy(&bits_a, &a, sizeof(a));
  std::memcpy(&bits_b, &b, sizeof(b));
  return bits_a == bits_b;
}

std::optional<std::string> Compare(double got_loss, const Gradient& got,
                                   double want_loss, const Gradient& want) {
  if (!SameBits(got_loss, want_loss)) return "loss bits differ";
  if (!got.is_sparse()) return "gradient is not sparse";
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
  const MatrixFactorizationModel model(MakeData(trial), trial.config);
  Gradient got = Gradient::Dense(5);  // reused: the kernel must reset it
  Gradient want;
  Gradient carried;
  Entries entries;
  for (std::size_t b = 0; b < trial.batches.size(); ++b) {
    const std::vector<std::size_t>& batch = trial.batches[b];
    const double want_loss = ReferenceEntries(trial, batch, entries);
    SumRuns(entries, SubjectKind::kKernel, carried, want);
    double got_loss = want_loss;
    if (kind == SubjectKind::kKernel) {
      got_loss = model.LossAndGradient(trial.params, batch, got);
    } else {
      SumRuns(entries, kind, carried, got);
      carried = got;
    }
    if (auto diff = Compare(got_loss, got, want_loss, want)) {
      return "batch " + std::to_string(b) + ": " + *diff;
    }
  }
  return std::nullopt;
}

Trial ShrinkTrial(Trial trial, SubjectKind kind) {
  const auto fails = [&](const Trial& candidate) {
    return RunTrial(candidate, kind).has_value();
  };
  // Averaged gradients scale every value by 1/batch, so no rating could be
  // removed without moving the rest: prefer summed ones when they still fail.
  if (!trial.config.sum_gradient) {
    Trial candidate = trial;
    candidate.config.sum_gradient = true;
    if (fails(candidate)) trial = std::move(candidate);
  }
  ShrinkList(trial.batches, 1,
             [&](const std::vector<std::vector<std::size_t>>& batches) {
               Trial candidate = trial;
               candidate.batches = batches;
               return fails(candidate);
             });
  for (std::size_t b = 0; b < trial.batches.size(); ++b) {
    ShrinkList(trial.batches[b], 1, [&](const std::vector<std::size_t>& batch) {
      Trial candidate = trial;
      candidate.batches[b] = batch;
      return fails(candidate);
    });
  }
  return trial;
}

std::size_t BatchEntries(const Trial& t) {
  std::size_t entries = 0;
  for (const std::vector<std::size_t>& batch : t.batches) {
    entries += batch.size();
  }
  return entries;
}

TEST(MfGradientPropertyTest, KernelMatchesAppendAndStableCoalesce) {
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t trial_idx = 0; trial_idx < 300; ++trial_idx) {
    const Trial trial = GenerateTrial(base + trial_idx);
    const auto failure = RunTrial(trial, SubjectKind::kKernel);
    if (failure.has_value()) {
      const Trial minimal = ShrinkTrial(trial, SubjectKind::kKernel);
      FAIL() << *failure << "\nseed " << base + trial_idx
             << "\nminimal counterexample: " << FormatTrial(minimal);
    }
  }
}

// The harness has teeth: each planted bug is caught within a few trials and
// shrinks to a small witness. A greedy shrink can stall on a trial where
// every single removal happens to round the bug away, so the smallest of the
// first three caught trials' witnesses is the one held to the bound.
TEST(MfGradientPropertyTest, PlantedBugsAreCaughtAndShrunk) {
  const std::uint64_t base = BaseSeed();
  for (const SubjectKind kind :
       {SubjectKind::kReversedDuplicates, SubjectKind::kDroppedFirst,
        SubjectKind::kCarriedOver}) {
    std::optional<Trial> smallest;
    std::size_t caught = 0;
    for (std::uint64_t trial_idx = 0; trial_idx < 200 && caught < 3;
         ++trial_idx) {
      const Trial trial = GenerateTrial(base + trial_idx);
      if (!RunTrial(trial, kind).has_value()) continue;
      ++caught;
      const Trial minimal = ShrinkTrial(trial, kind);
      EXPECT_TRUE(RunTrial(minimal, kind).has_value());
      if (!smallest || BatchEntries(minimal) < BatchEntries(*smallest)) {
        smallest = minimal;
      }
    }
    ASSERT_TRUE(smallest.has_value()) << "planted bug survived 200 trials";
    // A carried-over sum needs a batch to carry it and a later batch that
    // touches the same row: two batches of one rating each. Reversal shows
    // only once a row sums three contributions (addition of two commutes),
    // which takes at least three ratings; a dropped first contribution shows
    // with one.
    const bool carried = kind == SubjectKind::kCarriedOver;
    EXPECT_EQ(smallest->batches.size(), carried ? 2u : 1u)
        << "shrink left a large witness: " << FormatTrial(*smallest);
    const std::size_t max_entries =
        carried ? 2u : kind == SubjectKind::kReversedDuplicates ? 4u : 1u;
    EXPECT_LE(BatchEntries(*smallest), max_entries)
        << "shrink left a large witness: " << FormatTrial(*smallest);
  }
}

// 3 users x 2 items, rank 2: every batch repeats rows many times.
Trial TinyTrial() {
  Trial t;
  t.num_users = 3;
  t.num_items = 2;
  t.ratings = {{0, 0, 1.0 / 3}, {1, 1, 2.7}, {2, 0, 4.1}, {0, 1, 0.3}};
  t.config.rank = 2;
  t.config.regularization = 0.1;
  t.params = {0.11, -0.7, 1.0 / 3, 0.25, -0.0, 0.9, 0.41, -0.13, 0.6, 0.07};
  t.batches = {{0, 1, 2, 3, 0, 0, 2}, {3}, {1, 1, 0, 2, 3, 3}};
  return t;
}

// The benchmark's own input: an MF-workload-sized dataset (MakeMfWorkload's
// shape, rank and regularization) with batches of 50 (a runtime chunk) and
// 200 (a simulator batch) through one model and one reused gradient.
TEST(MfGradientPropertyTest, MfWorkloadBatchesMatchReference) {
  Rng rng(BaseSeed());
  RatingsSpec spec;
  spec.num_users = 600;
  spec.num_items = 400;
  spec.num_ratings = 60000;
  const RatingsDataset data = GenerateRatings(spec, rng);
  Trial t;
  t.num_users = data.num_users();
  t.num_items = data.num_items();
  for (std::size_t i = 0; i < data.size(); ++i) {
    t.ratings.push_back(data.rating(i));
  }
  t.config.rank = 8;
  t.config.regularization = 0.02;
  t.params.resize((t.num_users + t.num_items) * t.config.rank);
  MatrixFactorizationModel(MakeData(t), t.config).InitParams(t.params, rng);
  for (const std::size_t batch_size : {50u, 200u}) {
    for (int b = 0; b < 10; ++b) {
      t.batches.push_back(rng.SampleIndices(data.size(), batch_size));
    }
  }
  const auto failure = RunTrial(t, SubjectKind::kKernel);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

// Wide trials put contributions on both sides of each bitmap word boundary,
// and each is followed by a tiny trial on the same thread: the workspace
// grown for a model of up to ~260 rows must serve a 5-row one clean, and
// the next wide one after it.
TEST(MfGradientPropertyTest, WideTrialsCrossBitmapWordsAndAlternateWithTiny) {
  const std::uint64_t base = BaseSeed();
  const Trial tiny = TinyTrial();
  for (std::uint64_t trial_idx = 0; trial_idx < 60; ++trial_idx) {
    const Trial wide = GenerateWideTrial(base + trial_idx);
    ASSERT_GT(wide.num_users + wide.num_items, 128u);
    for (const Trial* trial : {&wide, &tiny}) {
      const auto failure = RunTrial(*trial, SubjectKind::kKernel);
      if (failure.has_value()) {
        const Trial minimal = ShrinkTrial(*trial, SubjectKind::kKernel);
        FAIL() << *failure << "\nwide seed " << base + trial_idx
               << "\nminimal counterexample: " << FormatTrial(minimal);
      }
    }
  }
}

// An out-of-range batch index throws before any accumulator row is marked:
// the valid ratings ahead of it in the batch leave nothing behind, so the
// thread's next gradient over the same rows still matches the reference.
TEST(MfGradientPropertyTest, OutOfRangeIndexThrowsAndLeavesWorkspaceClean) {
  const Trial tiny = TinyTrial();
  const MatrixFactorizationModel model(MakeData(tiny), tiny.config);
  Gradient grad;
  const std::vector<std::size_t> bad = {0, 1, 2, 3, tiny.ratings.size()};
  EXPECT_THROW(model.LossAndGradient(tiny.params, bad, grad), CheckError);
  const auto failure = RunTrial(tiny, SubjectKind::kKernel);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

}  // namespace
}  // namespace specsync
