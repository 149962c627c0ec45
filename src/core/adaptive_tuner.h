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
// The tuner computes that argmax without scoring every candidate:
//  1. one bucket pass gives the exact integer gain G(c) = Σ_i ũ_i(Δ_c) of
//     every candidate (each push by another worker is binary-searched into
//     the first candidate whose window pull_i + Δ_c covers it, then one
//     prefix sum),
//  2. F̃(Δ_c) ≈ G(c) − Δ_c·Σ_i lw(m−1)/T_i, and a floating-point rounding
//     bound on that approximation drops every candidate that provably cannot
//     be the first maximum,
//  3. the survivors are scored with the literal Eq. 7 expression, in worker
//     order, and the first maximum wins.
// The candidates themselves are sorted by an LSD radix sort on their bit
// patterns (positive finite doubles order like their bits). The decision is
// bit-identical to the literal Algorithm-1 loop: every F̃ that can win is the
// literal value, and the bound never drops the literal first maximum.
// DESIGN.md §12 derives the bound; the literal loop lives in
// tests/core/tuner_full_replay.h, and tests/core/tuner_equivalence_test.cc
// enforces the equivalence.
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

// Upper bound on candidate Δ (guards against pathological epochs where a
// huge pairwise difference would stall workers); expressed as a multiple of
// the mean iteration span. The paper's cherry-pick search uses half the
// batch time as its upper bound — the tuner allows a full span for headroom.
inline constexpr double kMaxDeltaSpans = 1.0;

struct AdaptiveTunerConfig {
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
  // Steady state allocates nothing: every buffer below keeps its capacity
  // across epochs.
  SpeculationParams OnEpochEnd(const TuningInputs& inputs) override;

  // The candidate set Algorithm 1 enumerates (positive pairwise differences,
  // sorted ascending, deduplicated, capped at max_delta, and an evenly
  // strided subset when more than max_candidates remain). Exposed for
  // tests/ablation.
  static std::vector<Duration> CandidateDeltas(const TuningInputs& inputs,
                                               Duration max_delta,
                                               std::size_t max_candidates);

  // Step 1 for an ascending candidate list: G(c) = Σ_i ũ_i(Δ_c) over the
  // workers with an observed pull, exact. Exposed so the planted-bug checks
  // can assemble a wrong argmax from the tuner's own pieces.
  static std::vector<std::uint32_t> CandidateGains(
      const TuningInputs& inputs, const std::vector<Duration>& candidates);

  // Step 2's bound: |literal F̃(Δ) − approximate F̃(Δ)| <= RoundingSlack, for
  // `pulled` workers in the sum, gain G and approximate loss Δ·S (DESIGN.md
  // §12 derives it). Exposed for the same checks.
  static double RoundingSlack(std::size_t pulled, double gain,
                              double approx_loss);

 private:
  // The literal Eq. 7 value of deltas_[c] (step 3).
  double LiteralImprovement(const TuningInputs& inputs, std::size_t c) const;

  AdaptiveTunerConfig config_;
  // Scratch reused across epochs (OnEpochEnd runs once per epoch per run).
  std::vector<std::uint64_t> keys_;   // candidate bit patterns
  std::vector<std::uint64_t> radix_;  // radix sort ping-pong buffer
  std::vector<double> deltas_;        // candidates, ascending
  std::vector<std::uint32_t> gains_;  // G(c)
  // Per worker: index of the first push after its pull.
  std::vector<std::size_t> first_after_pull_;
  // Push indices grouped by worker: worker w's pushes, in time order, are
  // own_pushes_[own_begin_[w] .. own_begin_[w + 1]).
  std::vector<std::size_t> own_begin_;
  std::vector<std::size_t> own_pushes_;
};

// Mean of the per-worker iteration spans.
Duration MeanSpan(const TuningInputs& inputs);

}  // namespace specsync
