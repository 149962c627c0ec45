// SpecSync-Adaptive hyperparameter tuning (paper Sec. IV-B, Algorithm 1).
//
// At each epoch boundary the tuner replays the finished epoch's push history:
//  - gain estimate  ũ_i(Δ) = pushes by others in (last_pull_i, last_pull_i+Δ]
//    (Eq. 5: "refer back to the previous epoch"),
//  - loss estimate  l̃_i(Δ) = (m-1)·Δ/T_i, assuming uniform pull arrivals
//    (Eq. 6),
//  - objective      F̃(Δ)  = Σ_i [ũ_i(Δ) − l̃_i(Δ)] (Eq. 7).
// ũ_i is a step function of Δ and l̃_i is linear, so F̃ is maximized where a
// speculation window right-aligns with some push. Algorithm 1 enumerates the
// O(m²) pairwise push-time differences as candidate Δ and takes the best
// (overall O(m³)); those equal the right-aligning offsets push − pull_i only
// where a pull coincides with a push, so the enumeration can miss the
// maximum (EXPERIMENTS.md measures one such epoch).
//
// The tuner computes that argmax with an incremental replay: one pass per
// worker that buckets each push event into the first candidate window
// covering it (binary search over the sorted thresholds pull_i + Δ_c) and
// turns the buckets into per-candidate gains by prefix sum, plus a
// saturation prune that drops candidates provably never selected —
// O(W·(P·log C + C)) instead of the literal Algorithm-1 loop's O(C·W·P).
// It is bit-identical to that literal loop (the reference EstimateImprovement
// per candidate): the sweep accumulates per-candidate values worker-by-worker
// with the exact same floating-point expressions and summation order, so the
// per-epoch ABORT_TIME sequence and every audit retune record match to the
// bit. DESIGN.md §12 states the invariant; the literal loop lives in
// tests/core/tuner_full_replay.h, and tests/core/tuner_equivalence_test.cc
// enforces it.
//
// ABORT_RATE is then set so a restart is triggered only when the observed
// gain covers the estimated loss: Γ = Δ*(m−1)/(T·m) with T the mean iteration
// span (Algorithm 1 line 7), or per-worker Γ_i = l̃_i(Δ*)/m when
// per_worker_rate is enabled.
#pragma once

#include <cstdint>
#include <vector>

#include "core/speculation.h"

namespace specsync {

struct AdaptiveTunerConfig {
  // Upper bound on candidate Δ (guards against pathological epochs where a
  // huge pairwise difference would stall workers); expressed as a multiple of
  // the mean iteration span. The paper's cherry-pick search uses half the
  // batch time as its upper bound — we default to a full span for headroom.
  double max_delta_spans = 1.0;
  // Emit per-worker thresholds Γ_i instead of the pooled Algorithm-1 rate.
  bool per_worker_rate = false;
  // Cap on candidate Δ values actually evaluated (keeps retuning cheap when
  // an epoch saw an unusually large number of pushes). 0 = unlimited.
  std::size_t max_candidates = 4096;
  // Weight on the freshness-loss term of Eq. 7. 1.0 is the paper's objective.
  // Under uniform arrivals gain and loss cancel to first order, so the
  // argmax is noise-driven and lands on tiny Δ; a weight < 1 biases the
  // tuner toward windows wide enough to catch real bursts (see the
  // bench_ablation_tuner study).
  double loss_weight = 1.0;
};

class AdaptiveTuner final : public SpeculationPolicy {
 public:
  explicit AdaptiveTuner(AdaptiveTunerConfig config = {});

  std::string name() const override { return "adaptive"; }
  SpeculationParams OnEpochEnd(const TuningInputs& inputs) override;

  // The candidate set Algorithm 1 enumerates (positive pairwise differences,
  // deduplicated, capped at max_delta). Exposed for tests/ablation.
  static std::vector<Duration> CandidateDeltas(const TuningInputs& inputs,
                                               Duration max_delta,
                                               std::size_t max_candidates);

  // F̃ for every candidate via the incremental sweep; element c equals the
  // literal Eq. 7 loop (reference::EstimateImprovement in
  // tests/core/tuner_full_replay.h) at candidates[c] to the bit. `loss_weight`
  // scales the l̃ term (1.0 = the paper's objective).
  // `candidates` must be sorted ascending (CandidateDeltas output is).
  // Exposed for the equivalence battery; the member path reuses scratch.
  static std::vector<double> EvaluateCandidates(
      const TuningInputs& inputs, const std::vector<Duration>& candidates,
      double loss_weight);

  // First candidate index at which every pulled worker's window
  // (last_pull_i, last_pull_i + Δ_c] already covers the epoch's last push.
  // Beyond it gains are constant and losses non-decreasing, so the
  // first-maximum argmax can never select a later candidate — candidates
  // after this index are dominated and safely pruned. Returns
  // candidates.size() - 1 when no such index exists (prune disabled).
  // Exposed so the planted-bug test can demonstrate a wrong prune is caught.
  static std::size_t SaturationIndex(const TuningInputs& inputs,
                                     const std::vector<Duration>& candidates);

 private:
  // Incremental engine behind EvaluateCandidates, writing into reusable
  // scratch buffers. Evaluates candidates [0, eval_count).
  static void EvaluateCandidatesInto(const TuningInputs& inputs,
                                     const std::vector<Duration>& candidates,
                                     double loss_weight,
                                     std::size_t eval_count,
                                     std::vector<double>& values,
                                     std::vector<double>& thresholds,
                                     std::vector<std::uint32_t>& buckets);

  AdaptiveTunerConfig config_;
  // Scratch reused across epochs (OnEpochEnd runs once per epoch per run);
  // capacity persists, so steady-state retunes allocate nothing.
  std::vector<double> values_;
  std::vector<double> thresholds_;
  std::vector<std::uint32_t> buckets_;
};

// Mean of the per-worker iteration spans.
Duration MeanSpan(const TuningInputs& inputs);

}  // namespace specsync
