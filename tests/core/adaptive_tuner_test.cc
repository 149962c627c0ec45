// Tests for the SpecSync-Adaptive tuner (paper Algorithm 1).
#include "core/adaptive_tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "tuner_full_replay.h"

namespace specsync {
namespace {

SimTime T(double s) { return SimTime::FromSeconds(s); }
Duration D(double s) { return Duration::Seconds(s); }

// A hand-built epoch: 4 workers with span 10s; worker 0 pulled at t=0 and a
// burst of 3 pushes by others lands at t=1.
TuningInputs BurstyInputs() {
  TuningInputs inputs;
  inputs.num_workers = 4;
  inputs.finished_epoch = 1;
  inputs.epoch_begin = T(0.0);
  inputs.epoch_end = T(20.0);
  inputs.pushes = {
      {T(1.0), 1}, {T(1.01), 2}, {T(1.02), 3},   // burst after worker 0's pull
      {T(9.0), 1}, {T(9.5), 2},  {T(10.0), 3},  {T(10.5), 0},
  };
  inputs.last_pull = {T(0.0), T(8.0), T(8.5), T(9.0)};
  inputs.iteration_span = {D(10.0), D(10.0), D(10.0), D(10.0)};
  return inputs;
}

TEST(AdaptiveTunerTest, GainCountsOnlyOthersPushesInWindow) {
  const TuningInputs inputs = BurstyInputs();
  // Delta = 1.02: worker 0 uncovers the 3-push burst; workers 1..3 uncover
  // pushes within (pull, pull+1.02].
  // worker1 (pull 8.0): pushes in (8, 9.02] by others: t=9.0 is its own -> 0.
  // worker2 (pull 8.5): (8.5, 9.52]: t=9.0 (w1), t=9.5 is own -> 1.
  // worker3 (pull 9.0): (9.0, 10.02]: t=9.5 (w2), t=10.0 own -> 1.
  // Loss per worker: 1.02/10 * 3 = 0.306; total 4*0.306 = 1.224.
  const double f = reference::EstimateImprovement(inputs, D(1.02));
  EXPECT_NEAR(f, (3.0 + 0.0 + 1.0 + 1.0) - 4.0 * 0.306, 1e-9);
}

TEST(AdaptiveTunerTest, LossWeightScalesLinearTerm) {
  const TuningInputs inputs = BurstyInputs();
  const double full = reference::EstimateImprovement(inputs, D(1.02), 1.0);
  const double none = reference::EstimateImprovement(inputs, D(1.02), 0.0);
  EXPECT_NEAR(none - full, 4.0 * 0.306, 1e-9);
}

TEST(AdaptiveTunerTest, CandidatesArePairwiseDifferences) {
  TuningInputs inputs;
  inputs.num_workers = 2;
  inputs.pushes = {{T(1.0), 0}, {T(2.0), 1}, {T(4.0), 0}};
  inputs.last_pull = {T(0.0), T(0.0)};
  inputs.iteration_span = {D(5.0), D(5.0)};
  const auto candidates =
      AdaptiveTuner::CandidateDeltas(inputs, D(100.0), 0);
  // Differences: 1, 3, 2 -> sorted {1, 2, 3}.
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_DOUBLE_EQ(candidates[0].seconds(), 1.0);
  EXPECT_DOUBLE_EQ(candidates[1].seconds(), 2.0);
  EXPECT_DOUBLE_EQ(candidates[2].seconds(), 3.0);
}

TEST(AdaptiveTunerTest, CandidatesRespectMaxDelta) {
  TuningInputs inputs;
  inputs.num_workers = 2;
  inputs.pushes = {{T(1.0), 0}, {T(2.0), 1}, {T(4.0), 0}};
  inputs.last_pull = {T(0.0), T(0.0)};
  inputs.iteration_span = {D(5.0), D(5.0)};
  const auto candidates = AdaptiveTuner::CandidateDeltas(inputs, D(2.5), 0);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_DOUBLE_EQ(candidates.back().seconds(), 2.0);
}

TEST(AdaptiveTunerTest, CandidateCapKeepsRange) {
  TuningInputs inputs;
  inputs.num_workers = 2;
  for (int i = 0; i < 60; ++i) {
    inputs.pushes.emplace_back(T(0.1 * i), i % 2);
  }
  inputs.last_pull = {T(0.0), T(0.0)};
  inputs.iteration_span = {D(5.0), D(5.0)};
  const auto capped = AdaptiveTuner::CandidateDeltas(inputs, D(100.0), 10);
  EXPECT_EQ(capped.size(), 10u);
  EXPECT_TRUE(std::is_sorted(capped.begin(), capped.end()));
}

TEST(AdaptiveTunerTest, PicksWindowCoveringBurst) {
  AdaptiveTuner tuner;
  const SpeculationParams params = tuner.OnEpochEnd(BurstyInputs());
  ASSERT_TRUE(params.enabled());
  // The burst at offset ~1.0 after worker 0's pull dominates the objective;
  // the chosen window must cover it but not extend far beyond (the loss term
  // penalizes longer windows).
  EXPECT_GE(params.abort_time.seconds(), 1.0);
  EXPECT_LE(params.abort_time.seconds(), 10.0);
  // Algorithm 1 line 7: rate = delta*(m-1)/(T*m).
  EXPECT_NEAR(params.abort_rate,
              params.abort_time.seconds() * 3.0 / (10.0 * 4.0), 1e-12);
}

TEST(AdaptiveTunerTest, DisabledWhenNoPositiveImprovement) {
  // Uniform arrivals with no excess: gain ~= loss, noise-free construction
  // where every candidate window's gain is strictly below the loss line.
  TuningInputs inputs;
  inputs.num_workers = 3;
  inputs.epoch_begin = T(0.0);
  inputs.epoch_end = T(30.0);
  // One push by each worker, far apart; pulls just after each worker's push.
  inputs.pushes = {{T(1.0), 0}, {T(11.0), 1}, {T(21.0), 2}};
  inputs.last_pull = {T(1.1), T(11.1), T(21.1)};
  inputs.iteration_span = {D(1.0), D(1.0), D(1.0)};  // harsh loss slope
  AdaptiveTuner tuner;
  const SpeculationParams params = tuner.OnEpochEnd(inputs);
  EXPECT_FALSE(params.enabled());
}

TEST(AdaptiveTunerTest, SingleWorkerDisabled) {
  TuningInputs inputs;
  inputs.num_workers = 1;
  inputs.pushes = {{T(1.0), 0}, {T(2.0), 0}};
  inputs.last_pull = {T(0.0)};
  inputs.iteration_span = {D(1.0)};
  AdaptiveTuner tuner;
  EXPECT_FALSE(tuner.OnEpochEnd(inputs).enabled());
}

TEST(AdaptiveTunerTest, FewerThanTwoPushesDisabled) {
  TuningInputs inputs;
  inputs.num_workers = 2;
  inputs.pushes = {{T(1.0), 0}};
  inputs.last_pull = {T(0.0), T(0.0)};
  inputs.iteration_span = {D(1.0), D(1.0)};
  AdaptiveTuner tuner;
  EXPECT_FALSE(tuner.OnEpochEnd(inputs).enabled());
}

TEST(AdaptiveTunerTest, PerWorkerRates) {
  AdaptiveTunerConfig config;
  config.per_worker_rate = true;
  AdaptiveTuner tuner(config);
  TuningInputs inputs = BurstyInputs();
  inputs.iteration_span = {D(5.0), D(10.0), D(10.0), D(20.0)};
  const SpeculationParams params = tuner.OnEpochEnd(inputs);
  ASSERT_TRUE(params.enabled());
  ASSERT_EQ(params.per_worker_rate.size(), 4u);
  // Gamma_i = delta*(m-1)/(T_i*m): slower workers get lower thresholds.
  EXPECT_GT(params.per_worker_rate[0], params.per_worker_rate[3]);
  EXPECT_NEAR(params.RateFor(0),
              params.abort_time.seconds() * 3.0 / (5.0 * 4.0), 1e-12);
  // RateFor falls back to the pooled rate for out-of-range workers.
  EXPECT_DOUBLE_EQ(params.RateFor(100), params.abort_rate);
}

TEST(AdaptiveTunerTest, MeanSpan) {
  TuningInputs inputs;
  inputs.num_workers = 2;
  inputs.iteration_span = {D(2.0), D(4.0)};
  EXPECT_DOUBLE_EQ(MeanSpan(inputs).seconds(), 3.0);
}

// --- where Eq. 7 peaks --------------------------------------------------------

// An epoch shaped like bench_ablation_tuner's Part 2: `pushes` pushes at
// exponential gaps (mean 1 s) by workers in round-robin order, then one pull
// per worker uniform in [0, 10) s. Every span is 4 s unless `varied_spans`
// draws each from [2, 6) s. Seed 5 with 8 workers and 32 pushes is that
// bench's epoch, draw for draw.
TuningInputs RecordedEpoch(std::uint64_t seed, std::size_t workers,
                           int pushes, bool varied_spans) {
  TuningInputs inputs;
  inputs.num_workers = workers;
  Rng rng(seed);
  SimTime t = SimTime::Zero();
  for (int i = 0; i < pushes; ++i) {
    t += D(rng.Exponential(1.0));
    inputs.pushes.emplace_back(t, static_cast<WorkerId>(i % workers));
  }
  inputs.last_pull.assign(workers, SimTime::Zero());
  for (WorkerId w = 0; w < workers; ++w) {
    inputs.last_pull[w] = T(rng.Uniform(0.0, 10.0));
  }
  inputs.iteration_span.assign(workers, D(4.0));
  if (varied_spans) {
    for (Duration& span : inputs.iteration_span) {
      span = D(rng.Uniform(2.0, 6.0));
    }
  }
  return inputs;
}

// Every offset push − last_pull_i in (0, max_delta], ascending and distinct
// (worker i's own pushes included: a superset of where F̃ steps). An offset
// is nudged up to the first double d with pull + d >= push, so the window
// (pull, pull + d] holds the push even where pull + (push − pull) rounds
// below it.
std::vector<Duration> PushMinusPullOffsets(const TuningInputs& inputs,
                                           double max_delta) {
  std::vector<double> offsets;
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (!inputs.last_pull[i].has_value()) continue;
    const double pull = inputs.last_pull[i]->seconds();
    for (const auto& push_event : inputs.pushes) {
      const double push = push_event.first.seconds();
      double d = push - pull;
      if (!(d > 0.0)) continue;
      while (pull + d < push) {
        d = std::nextafter(d, std::numeric_limits<double>::infinity());
      }
      if (d <= max_delta) offsets.push_back(d);
    }
  }
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  std::vector<Duration> out;
  for (double d : offsets) out.push_back(D(d));
  return out;
}

// The best F̃ over `deltas` (ascending), floored at F̃(0) = 0 as the tuner's
// argmax is.
double BestImprovement(const TuningInputs& inputs,
                       const std::vector<Duration>& deltas) {
  double best = 0.0;
  for (double value : reference::EvaluateCandidates(inputs, deltas, 1.0)) {
    best = std::max(best, value);
  }
  return best;
}

// The bench's ascending 0.001 s grid over (0, max_delta].
std::vector<Duration> DenseGrid(double max_delta) {
  std::vector<Duration> grid;
  for (double d = 0.001; d <= max_delta; d += 0.001) grid.push_back(D(d));
  return grid;
}

TEST(AdaptiveTunerTest, Eq7MaximumSitsAtAPushMinusPullOffset) {
  // ũ_i(Δ) steps up only where pull_i + Δ reaches a push by another worker,
  // and every l̃_i(Δ) grows linearly, so F̃ falls between those offsets: its
  // maximum over any Δ in (0, max_delta] is attained at one of them. Checked
  // against a dense grid, which must never beat the offsets.
  constexpr double kMaxDelta = 4.0;
  constexpr double kTolerance = 1e-9;
  const std::vector<Duration> grid = DenseGrid(kMaxDelta);

  const TuningInputs bench_epoch = RecordedEpoch(5, 8, 32, false);
  const std::vector<Duration> offsets =
      PushMinusPullOffsets(bench_epoch, kMaxDelta);
  EXPECT_EQ(offsets.size(), 50u);
  const double best_offset = BestImprovement(bench_epoch, offsets);
  const double best_grid = BestImprovement(bench_epoch, grid);
  EXPECT_GE(best_offset, best_grid - kTolerance);
  EXPECT_NEAR(best_offset, 1.94461, 5e-6);
  EXPECT_NEAR(best_grid, 1.936, 5e-6);
  // Algorithm 1's push − push differences equal such offsets only where a
  // pull coincides with a push; on this epoch they miss the maximum.
  const std::vector<Duration> pairwise =
      AdaptiveTuner::CandidateDeltas(bench_epoch, D(kMaxDelta), 0);
  EXPECT_EQ(pairwise.size(), 134u);
  const double best_pairwise = BestImprovement(bench_epoch, pairwise);
  EXPECT_NEAR(best_pairwise, 1.81364, 5e-6);
  EXPECT_LT(best_pairwise, best_grid - kTolerance);

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::size_t workers = 2 + seed % 9;
    const int pushes = 4 + static_cast<int>(seed % 7) * 8;
    const TuningInputs epoch =
        RecordedEpoch(1000 + seed, workers, pushes, seed % 2 == 0);
    EXPECT_GE(BestImprovement(epoch, PushMinusPullOffsets(epoch, kMaxDelta)),
              BestImprovement(epoch, grid) - kTolerance)
        << "seed " << seed << ", " << workers << " workers, " << pushes
        << " pushes";
  }
}

TEST(SpeculationParamsTest, EnabledSemantics) {
  SpeculationParams params;
  EXPECT_FALSE(params.enabled());
  params.abort_time = D(0.5);
  EXPECT_TRUE(params.enabled());
}

TEST(FixedPolicyTest, ReturnsSameParamsEveryEpoch) {
  SpeculationParams fixed;
  fixed.abort_time = D(2.0);
  fixed.abort_rate = 0.25;
  FixedSpeculationPolicy policy(fixed);
  const SpeculationParams out = policy.OnEpochEnd(BurstyInputs());
  EXPECT_EQ(out.abort_time, fixed.abort_time);
  EXPECT_EQ(out.abort_rate, fixed.abort_rate);
}

}  // namespace
}  // namespace specsync
