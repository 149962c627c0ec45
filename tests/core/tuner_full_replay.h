// The literal Eq. 7 objective and Algorithm-1 replay: the reference
// AdaptiveTuner::EvaluateCandidates and AdaptiveTuner::OnEpochEnd must match
// bit for bit (DESIGN.md §12).
//
// Every candidate Δ from CandidateDeltas is scored with EstimateImprovement,
// an O(C·W·P) loop with no bucketing and no saturation prune, and the first
// maximum wins. The tuner's incremental sweep reorganizes that loop; this
// header keeps the unreorganized version as the executable specification.
// tests/core/tuner_equivalence_test.cc compares every per-epoch decision
// against it, and benchmarks/bench_scale.cc times the tuner against it.
#pragma once

#include <vector>

#include "core/adaptive_tuner.h"
#include "core/speculation.h"

namespace specsync::reference {

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

inline SpeculationParams FullReplayOnEpochEnd(const AdaptiveTunerConfig& config,
                                              const TuningInputs& inputs) {
  if (inputs.num_workers < 2 || inputs.pushes.size() < 2) return {};
  const Duration mean_span = MeanSpan(inputs);
  const std::vector<Duration> candidates = AdaptiveTuner::CandidateDeltas(
      inputs, mean_span * config.max_delta_spans, config.max_candidates);

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
