#include "core/adaptive_tuner.h"

#include <algorithm>

#include "common/check.h"

namespace specsync {

AdaptiveTuner::AdaptiveTuner(AdaptiveTunerConfig config) : config_(config) {
  SPECSYNC_CHECK_GT(config_.max_delta_spans, 0.0);
}

Duration MeanSpan(const TuningInputs& inputs) {
  SPECSYNC_CHECK(!inputs.iteration_span.empty());
  Duration total = Duration::Zero();
  for (Duration span : inputs.iteration_span) {
    SPECSYNC_CHECK_GT(span.seconds(), 0.0) << "iteration span must be positive";
    total += span;
  }
  return total / static_cast<double>(inputs.iteration_span.size());
}

std::vector<Duration> AdaptiveTuner::CandidateDeltas(
    const TuningInputs& inputs, Duration max_delta,
    std::size_t max_candidates) {
  std::vector<double> diffs;
  const auto& pushes = inputs.pushes;
  diffs.reserve(pushes.size() * 4 + 1);
  const double max_d = max_delta.seconds();
  for (std::size_t a = 0; a < pushes.size(); ++a) {
    for (std::size_t b = a + 1; b < pushes.size(); ++b) {
      const double d = (pushes[b].first - pushes[a].first).seconds();
      // Pushes are time-ordered, so d is non-decreasing in b (floating-point
      // subtraction is monotone in the minuend): once past max_delta the rest
      // of the row is too. This window break prunes the O(P²) enumeration to
      // the pairs the legacy full filter would keep — exactly.
      if (d > max_d) break;
      if (d > 0.0) diffs.push_back(d);
    }
  }
  std::sort(diffs.begin(), diffs.end());
  diffs.erase(std::unique(diffs.begin(), diffs.end()), diffs.end());
  if (max_candidates != 0 && diffs.size() > max_candidates) {
    // Keep an evenly strided subset — preserves the range of the candidate
    // set while bounding tuning cost.
    std::vector<double> strided;
    strided.reserve(max_candidates);
    const double stride = static_cast<double>(diffs.size()) /
                          static_cast<double>(max_candidates);
    for (std::size_t i = 0; i < max_candidates; ++i) {
      strided.push_back(diffs[static_cast<std::size_t>(
          static_cast<double>(i) * stride)]);
    }
    diffs = std::move(strided);
  }
  std::vector<Duration> out;
  out.reserve(diffs.size());
  for (double d : diffs) out.push_back(Duration::Seconds(d));
  return out;
}

std::size_t AdaptiveTuner::SaturationIndex(
    const TuningInputs& inputs, const std::vector<Duration>& candidates) {
  SPECSYNC_CHECK(!candidates.empty());
  const double t_last = inputs.pushes.back().first.seconds();
  std::size_t saturation = 0;
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (!inputs.last_pull[i].has_value()) continue;
    const double pull = inputs.last_pull[i]->seconds();
    // First c with pull + Δ_c >= t_last; pull + Δ is monotone non-decreasing
    // in Δ, so binary search over the sorted candidates is exact.
    const auto it = std::partition_point(
        candidates.begin(), candidates.end(),
        [pull, t_last](Duration d) { return pull + d.seconds() < t_last; });
    if (it == candidates.end()) return candidates.size() - 1;  // no prune
    const auto sat_i = static_cast<std::size_t>(it - candidates.begin());
    saturation = std::max(saturation, sat_i);
  }
  return saturation;
}

// The incremental Algorithm-1 sweep. For worker i the gain ũ_i(Δ_c) counts
// pushes by others in (pull_i, pull_i + Δ_c]; since pull_i + Δ_c is monotone
// non-decreasing in c, each push is counted for exactly the suffix of
// candidates starting at the first window that covers it. So: binary-search
// each in-range push into that first candidate (a bucket), then prefix-sum
// the buckets — giving every ũ_i(Δ_c) from one O(P·log C) pass instead of C
// scans. Bit-identity with the reference comes from using the *same*
// floating-point expressions (the `pull + Δ` threshold, the Eq. 6 loss term,
// `value += double(gain) - loss`) applied in the *same* order (workers
// ascending, one accumulation per worker per candidate).
void AdaptiveTuner::EvaluateCandidatesInto(
    const TuningInputs& inputs, const std::vector<Duration>& candidates,
    double loss_weight, std::size_t eval_count, std::vector<double>& values,
    std::vector<double>& thresholds, std::vector<std::uint32_t>& buckets) {
  SPECSYNC_CHECK_LE(eval_count, candidates.size());
  const double m = static_cast<double>(inputs.num_workers);
  const auto& pushes = inputs.pushes;
  values.assign(eval_count, 0.0);
  if (eval_count == 0) return;
  thresholds.resize(eval_count);
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (!inputs.last_pull[i].has_value()) continue;  // no pull observed
    const double pull = inputs.last_pull[i]->seconds();
    // thresholds[c] = pull + Δ_c — the exact right edge the reference
    // compares against, non-decreasing in c.
    for (std::size_t c = 0; c < eval_count; ++c) {
      thresholds[c] = pull + candidates[c].seconds();
    }
    buckets.assign(eval_count, 0);
    // First push strictly after the pull (the window's open left edge).
    const auto begin = std::partition_point(
        pushes.begin(), pushes.end(),
        [pull](const auto& push) { return push.first.seconds() <= pull; });
    const double widest = thresholds[eval_count - 1];
    for (auto it = begin; it != pushes.end(); ++it) {
      const double time = it->first.seconds();
      if (time > widest) break;  // beyond every window; pushes time-ordered
      if (it->second == i) continue;
      // First candidate whose window covers this push.
      const auto slot = std::partition_point(
          thresholds.begin(), thresholds.end(),
          [time](double threshold) { return threshold < time; });
      ++buckets[static_cast<std::size_t>(slot - thresholds.begin())];
    }
    const double span = inputs.iteration_span[i].seconds();
    std::uint32_t gain = 0;
    for (std::size_t c = 0; c < eval_count; ++c) {
      gain += buckets[c];  // prefix sum: pushes covered by window c
      const double loss = loss_weight * (candidates[c].seconds() / span) *
                          (m - 1.0);
      values[c] += static_cast<double>(gain) - loss;
    }
  }
}

std::vector<double> AdaptiveTuner::EvaluateCandidates(
    const TuningInputs& inputs, const std::vector<Duration>& candidates,
    double loss_weight) {
  std::vector<double> values;
  std::vector<double> thresholds;
  std::vector<std::uint32_t> buckets;
  EvaluateCandidatesInto(inputs, candidates, loss_weight, candidates.size(),
                         values, thresholds, buckets);
  return values;
}

SpeculationParams AdaptiveTuner::OnEpochEnd(const TuningInputs& inputs) {
  if (inputs.num_workers < 2) return {};  // speculation is meaningless solo
  SPECSYNC_CHECK_EQ(inputs.last_pull.size(), inputs.num_workers);
  SPECSYNC_CHECK_EQ(inputs.iteration_span.size(), inputs.num_workers);

  if (inputs.pushes.size() < 2) return {};  // nothing to enumerate

  const Duration mean_span = MeanSpan(inputs);
  const Duration max_delta = mean_span * config_.max_delta_spans;
  const std::vector<Duration> candidates =
      CandidateDeltas(inputs, max_delta, config_.max_candidates);
  if (candidates.empty()) return {};

  // Candidates past the saturation index are dominated (constant gain,
  // non-decreasing loss) and the argmax keeps the first maximum, so
  // evaluating [0, saturation] cannot change the decision.
  const std::size_t eval_count = SaturationIndex(inputs, candidates) + 1;
  EvaluateCandidatesInto(inputs, candidates, config_.loss_weight, eval_count,
                         values_, thresholds_, buckets_);
  Duration best_delta = Duration::Zero();
  double best_value = 0.0;  // Δ=0 yields F̃=0; only positive improvements win
  for (std::size_t c = 0; c < eval_count; ++c) {
    if (values_[c] > best_value) {
      best_value = values_[c];
      best_delta = candidates[c];
    }
  }
  if (best_delta == Duration::Zero()) return {};  // speculation not worth it

  SpeculationParams params;
  params.abort_time = best_delta;
  const double m = static_cast<double>(inputs.num_workers);
  // Algorithm 1 line 7: ABORT_RATE <- Δ(m-1)/(T·m).
  params.abort_rate = best_delta / mean_span * (m - 1.0) / m;
  if (config_.per_worker_rate) {
    params.per_worker_rate.resize(inputs.num_workers);
    for (WorkerId i = 0; i < inputs.num_workers; ++i) {
      // Γ_i = l̃_i(Δ*)/m (Sec. IV-B).
      params.per_worker_rate[i] =
          best_delta / inputs.iteration_span[i] * (m - 1.0) / m;
    }
  }
  return params;
}

}  // namespace specsync
