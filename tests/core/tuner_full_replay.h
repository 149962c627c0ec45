// The literal Eq. 7 objective and Algorithm-1 replay: AdaptiveTuner::OnEpochEnd
// must match it bit for bit (DESIGN.md §12).
//
// Every candidate Δ from the literal CandidateDeltas below (std::sort +
// unique + stride) is scored with EstimateImprovement, an O(C·W·P) loop with
// no bucketing and no pruning, and the first maximum wins. The tuner scores
// only the candidates that can win; this header keeps the unreorganized
// version as the executable specification.
// tests/core/tuner_equivalence_test.cc compares every per-epoch decision
// against it, and benchmarks/bench_scale.cc times the tuner against it.
//
// EvaluateCandidates and SaturationIndex are the tuner's previous engine (a
// per-worker bucket sweep that yields every candidate's literal F̃, and the
// prune that bounded it). They stay here as fast literal evaluators for the
// tests and the ablation bench, checked against EstimateImprovement.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/adaptive_tuner.h"
#include "core/speculation.h"

namespace specsync::reference {

// Algorithm 1's candidate set, literally: every positive pairwise push-time
// difference up to max_delta, sorted, deduplicated, and an evenly strided
// subset of max_candidates when more remain (0 = unlimited).
// AdaptiveTuner::CandidateDeltas must return exactly these doubles.
inline std::vector<Duration> CandidateDeltas(const TuningInputs& inputs,
                                             Duration max_delta,
                                             std::size_t max_candidates) {
  std::vector<double> diffs;
  const auto& pushes = inputs.pushes;
  for (std::size_t a = 0; a < pushes.size(); ++a) {
    for (std::size_t b = a + 1; b < pushes.size(); ++b) {
      const double d = (pushes[b].first - pushes[a].first).seconds();
      if (d > 0.0 && d <= max_delta.seconds()) diffs.push_back(d);
    }
  }
  std::sort(diffs.begin(), diffs.end());
  diffs.erase(std::unique(diffs.begin(), diffs.end()), diffs.end());
  if (max_candidates != 0 && diffs.size() > max_candidates) {
    std::vector<double> strided;
    const double stride = static_cast<double>(diffs.size()) /
                          static_cast<double>(max_candidates);
    for (std::size_t i = 0; i < max_candidates; ++i) {
      strided.push_back(diffs[static_cast<std::size_t>(
          static_cast<double>(i) * stride)]);
    }
    diffs = std::move(strided);
  }
  std::vector<Duration> out;
  for (double d : diffs) out.push_back(Duration::Seconds(d));
  return out;
}

// Eq. 7 for one Δ: F̃(Δ) = Σ_i [ũ_i(Δ) − loss_weight·l̃_i(Δ)] over the workers
// with an observed pull, summed in worker order.
inline double EstimateImprovement(const TuningInputs& inputs, Duration delta,
                                  double loss_weight = 1.0) {
  const double m = static_cast<double>(inputs.num_workers);
  double improvement = 0.0;
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (!inputs.last_pull[i].has_value()) continue;  // no pull observed
    const SimTime pull = *inputs.last_pull[i];
    // Gain: pushes by others in (pull, pull + delta].
    std::size_t uncovered = 0;
    for (const auto& [time, worker] : inputs.pushes) {
      if (worker == i) continue;
      if (time > pull && time <= pull + delta) ++uncovered;
      if (time > pull + delta) break;  // pushes are time-ordered
    }
    // Loss: expected missed peers under uniform pull arrivals (Eq. 6).
    const double loss =
        loss_weight * (delta / inputs.iteration_span[i]) * (m - 1.0);
    improvement += static_cast<double>(uncovered) - loss;
  }
  return improvement;
}

// F̃ for every candidate via a per-worker sweep; element c equals
// EstimateImprovement at candidates[c] to the bit. For worker i the gain
// ũ_i(Δ_c) counts pushes by others in (pull_i, pull_i + Δ_c]; each push is
// binary-searched into the first candidate window that covers it (a bucket)
// and the buckets are prefix-summed. Bit-identity comes from the same
// floating-point expressions (the `pull + Δ` threshold, the Eq. 6 loss term,
// `value += double(gain) - loss`) applied in the same order (workers
// ascending, one accumulation per worker per candidate). `candidates` must
// be ascending (CandidateDeltas output is).
inline std::vector<double> EvaluateCandidates(
    const TuningInputs& inputs, const std::vector<Duration>& candidates,
    double loss_weight) {
  const double m = static_cast<double>(inputs.num_workers);
  const auto& pushes = inputs.pushes;
  std::vector<double> values(candidates.size(), 0.0);
  if (candidates.empty()) return values;
  std::vector<double> thresholds(candidates.size());
  std::vector<std::uint32_t> buckets;
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (!inputs.last_pull[i].has_value()) continue;  // no pull observed
    const double pull = inputs.last_pull[i]->seconds();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      thresholds[c] = pull + candidates[c].seconds();
    }
    buckets.assign(candidates.size(), 0);
    const auto begin = std::partition_point(
        pushes.begin(), pushes.end(),
        [pull](const auto& push) { return push.first.seconds() <= pull; });
    for (auto it = begin; it != pushes.end(); ++it) {
      const double time = it->first.seconds();
      if (time > thresholds.back()) break;  // beyond every window
      if (it->second == i) continue;
      const auto slot = std::partition_point(
          thresholds.begin(), thresholds.end(),
          [time](double threshold) { return threshold < time; });
      ++buckets[static_cast<std::size_t>(slot - thresholds.begin())];
    }
    const double span = inputs.iteration_span[i].seconds();
    std::uint32_t gain = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      gain += buckets[c];  // prefix sum: pushes covered by window c
      const double loss =
          loss_weight * (candidates[c].seconds() / span) * (m - 1.0);
      values[c] += static_cast<double>(gain) - loss;
    }
  }
  return values;
}

// First candidate index at which every pulled worker's window
// (last_pull_i, last_pull_i + Δ_c] already covers the epoch's last push.
// Beyond it gains are constant and losses non-decreasing, so the
// first-maximum argmax never selects a later candidate. Returns
// candidates.size() - 1 when no such index exists.
inline std::size_t SaturationIndex(const TuningInputs& inputs,
                                   const std::vector<Duration>& candidates) {
  const double t_last = inputs.pushes.back().first.seconds();
  std::size_t saturation = 0;
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (!inputs.last_pull[i].has_value()) continue;
    const double pull = inputs.last_pull[i]->seconds();
    const auto it = std::partition_point(
        candidates.begin(), candidates.end(),
        [pull, t_last](Duration d) { return pull + d.seconds() < t_last; });
    if (it == candidates.end()) return candidates.size() - 1;
    saturation = std::max(
        saturation, static_cast<std::size_t>(it - candidates.begin()));
  }
  return saturation;
}

inline SpeculationParams FullReplayOnEpochEnd(const AdaptiveTunerConfig& config,
                                              const TuningInputs& inputs) {
  if (inputs.num_workers < 2 || inputs.pushes.size() < 2) return {};
  const Duration mean_span = MeanSpan(inputs);
  const std::vector<Duration> candidates = CandidateDeltas(
      inputs, mean_span * kMaxDeltaSpans, config.max_candidates);

  Duration best_delta = Duration::Zero();
  double best_value = 0.0;  // Δ=0 yields F̃=0; only positive improvements win
  for (const Duration delta : candidates) {
    const double value = EstimateImprovement(inputs, delta, config.loss_weight);
    if (value > best_value) {
      best_value = value;
      best_delta = delta;
    }
  }
  if (best_delta == Duration::Zero()) return {};

  SpeculationParams params;
  params.abort_time = best_delta;
  const double m = static_cast<double>(inputs.num_workers);
  // Algorithm 1 line 7: ABORT_RATE <- Δ(m-1)/(T·m).
  params.abort_rate = best_delta / mean_span * (m - 1.0) / m;
  if (config.per_worker_rate) {
    params.per_worker_rate.resize(inputs.num_workers);
    for (WorkerId i = 0; i < inputs.num_workers; ++i) {
      // Γ_i = l̃_i(Δ*)/m (Sec. IV-B).
      params.per_worker_rate[i] =
          best_delta / inputs.iteration_span[i] * (m - 1.0) / m;
    }
  }
  return params;
}

}  // namespace specsync::reference
