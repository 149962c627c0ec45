#include "core/adaptive_tuner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "common/check.h"

namespace specsync {

namespace {

// Below this many keys a comparison sort beats the radix passes' per-pass
// histogram clear; both produce the same ascending order.
constexpr std::size_t kRadixMinKeys = 256;
constexpr int kDigitBits = 11;
constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;

// Sorts `keys` ascending; `buffer` is the LSD passes' ping-pong space. Only
// the bits that differ between some two keys are sorted on: every other bit
// is the same in all keys, so it cannot reorder them.
void SortKeys(std::vector<std::uint64_t>& keys,
              std::vector<std::uint64_t>& buffer) {
  if (keys.size() < kRadixMinKeys) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (std::uint64_t key : keys) {
    any |= key;
    all &= key;
  }
  const std::uint64_t varying = any ^ all;
  if (varying == 0) return;
  const int end = 64 - std::countl_zero(varying);
  buffer.resize(keys.size());
  std::array<std::uint32_t, kDigitMask + 1> offsets;
  for (int shift = std::countr_zero(varying); shift < end;
       shift += kDigitBits) {
    offsets.fill(0);
    for (std::uint64_t key : keys) ++offsets[(key >> shift) & kDigitMask];
    std::uint32_t sum = 0;
    for (std::uint32_t& offset : offsets) {
      const std::uint32_t count = offset;
      offset = sum;
      sum += count;
    }
    for (std::uint64_t key : keys) {
      buffer[offsets[(key >> shift) & kDigitMask]++] = key;
    }
    keys.swap(buffer);
  }
}

// CandidateDeltas into `deltas`. The differences are positive finite
// doubles, which order like their bit patterns, so they are radix-sorted and
// deduplicated as integers.
void CandidateDeltasInto(const TuningInputs& inputs, double max_delta,
                         std::size_t max_candidates,
                         std::vector<std::uint64_t>& keys,
                         std::vector<std::uint64_t>& buffer,
                         std::vector<double>& deltas) {
  const auto& pushes = inputs.pushes;
  keys.clear();
  for (std::size_t a = 0; a < pushes.size(); ++a) {
    for (std::size_t b = a + 1; b < pushes.size(); ++b) {
      const double d = (pushes[b].first - pushes[a].first).seconds();
      // Pushes are time-ordered, so d is non-decreasing in b (floating-point
      // subtraction is monotone in the minuend): once past max_delta the rest
      // of the row is too.
      if (d > max_delta) break;
      if (d > 0.0) keys.push_back(std::bit_cast<std::uint64_t>(d));
    }
  }
  SortKeys(keys, buffer);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  deltas.clear();
  if (max_candidates != 0 && keys.size() > max_candidates) {
    // Keep an evenly strided subset — preserves the range of the candidate
    // set while bounding tuning cost.
    const double stride = static_cast<double>(keys.size()) /
                          static_cast<double>(max_candidates);
    for (std::size_t i = 0; i < max_candidates; ++i) {
      deltas.push_back(std::bit_cast<double>(
          keys[static_cast<std::size_t>(static_cast<double>(i) * stride)]));
    }
    return;
  }
  for (std::uint64_t key : keys) deltas.push_back(std::bit_cast<double>(key));
}

// First c with pull + deltas[c] >= time (deltas.size() if none): the
// partition point of `pull + Δ < time` over the ascending deltas, found by a
// binary search whose steps select with a conditional move instead of a
// branch (each step's outcome is unpredictable). `deltas` is non-empty.
std::size_t FirstCovering(std::span<const double> deltas, double pull,
                          double time) {
  const double* base = deltas.data();
  std::size_t len = deltas.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    base = pull + base[half - 1] < time ? base + half : base;
    len -= half;
  }
  return static_cast<std::size_t>(base - deltas.data()) +
         (pull + *base < time ? 1 : 0);
}

// Step 1. ũ_i(Δ_c) counts pushes by others in (pull_i, pull_i + Δ_c]; since
// pull_i + Δ_c is non-decreasing in c, each such push counts for exactly the
// candidates from the first window that covers it on. So each push by
// another worker is binary-searched into that first candidate (with the same
// `pull + Δ` expression the literal loop compares against), and one prefix
// sum over all workers' buckets gives G(c). Returns the number of workers
// with an observed pull; records each one's first push after its pull.
std::size_t GainsInto(const TuningInputs& inputs,
                      std::span<const double> deltas,
                      std::vector<std::uint32_t>& gains,
                      std::vector<std::size_t>& first_after_pull) {
  const auto& pushes = inputs.pushes;
  gains.assign(deltas.size(), 0);
  first_after_pull.resize(inputs.num_workers);
  if (deltas.empty()) return 0;
  std::size_t pulled = 0;
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (!inputs.last_pull[i].has_value()) continue;  // no pull observed
    ++pulled;
    const double pull = inputs.last_pull[i]->seconds();
    // First push strictly after the pull (the window's open left edge).
    const auto first = std::partition_point(
        pushes.begin(), pushes.end(),
        [pull](const auto& push) { return push.first.seconds() <= pull; });
    first_after_pull[i] = static_cast<std::size_t>(first - pushes.begin());
    const double widest = pull + deltas.back();
    for (auto it = first; it != pushes.end(); ++it) {
      const double time = it->first.seconds();
      if (time > widest) break;  // beyond every window; pushes time-ordered
      if (it->second == i) continue;
      ++gains[FirstCovering(deltas, pull, time)];
    }
  }
  std::partial_sum(gains.begin(), gains.end(), gains.begin());
  return pulled;
}

}  // namespace

AdaptiveTuner::AdaptiveTuner(AdaptiveTunerConfig config) : config_(config) {
  SPECSYNC_CHECK(std::isfinite(config_.loss_weight));
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
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> buffer;
  std::vector<double> deltas;
  CandidateDeltasInto(inputs, max_delta.seconds(), max_candidates, keys,
                      buffer, deltas);
  std::vector<Duration> out;
  out.reserve(deltas.size());
  for (double d : deltas) out.push_back(Duration::Seconds(d));
  return out;
}

std::vector<std::uint32_t> AdaptiveTuner::CandidateGains(
    const TuningInputs& inputs, const std::vector<Duration>& candidates) {
  std::vector<double> deltas;
  for (Duration d : candidates) deltas.push_back(d.seconds());
  std::vector<std::uint32_t> gains;
  std::vector<std::size_t> first_after_pull;
  GainsInto(inputs, deltas, gains, first_after_pull);
  return gains;
}

double AdaptiveTuner::RoundingSlack(std::size_t pulled, double gain,
                                    double approx_loss) {
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
  return 4.0 * static_cast<double>(pulled + 4) *
         (kUnitRoundoff * (gain + std::fabs(approx_loss)) +
          std::numeric_limits<double>::denorm_min());
}

// Step 3: Eq. 7 at deltas_[c], term by term as the literal loop writes it.
// Worker i's gain is the pushes in (pull_i, pull_i + Δ] — the index range
// [first_after_pull_[i], last) of the time-ordered pushes — minus its own
// pushes in that range.
double AdaptiveTuner::LiteralImprovement(const TuningInputs& inputs,
                                         std::size_t c) const {
  const auto& pushes = inputs.pushes;
  const double m = static_cast<double>(inputs.num_workers);
  const double delta = deltas_[c];
  double improvement = 0.0;
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (!inputs.last_pull[i].has_value()) continue;  // no pull observed
    const double right = inputs.last_pull[i]->seconds() + delta;
    const std::size_t first = first_after_pull_[i];
    const std::size_t last = static_cast<std::size_t>(
        std::partition_point(pushes.begin() + first, pushes.end(),
                             [right](const auto& push) {
                               return push.first.seconds() <= right;
                             }) -
        pushes.begin());
    const auto own_begin = own_pushes_.begin() + own_begin_[i];
    const auto own_end = own_pushes_.begin() + own_begin_[i + 1];
    const auto own = std::lower_bound(own_begin, own_end, last) -
                     std::lower_bound(own_begin, own_end, first);
    const std::size_t uncovered = last - first - static_cast<std::size_t>(own);
    const double loss = config_.loss_weight *
                        (delta / inputs.iteration_span[i].seconds()) *
                        (m - 1.0);
    improvement += static_cast<double>(uncovered) - loss;
  }
  return improvement;
}

SpeculationParams AdaptiveTuner::OnEpochEnd(const TuningInputs& inputs) {
  if (inputs.num_workers < 2) return {};  // speculation is meaningless solo
  SPECSYNC_CHECK_EQ(inputs.last_pull.size(), inputs.num_workers);
  SPECSYNC_CHECK_EQ(inputs.iteration_span.size(), inputs.num_workers);

  if (inputs.pushes.size() < 2) return {};  // nothing to enumerate

  const Duration mean_span = MeanSpan(inputs);
  CandidateDeltasInto(inputs, (mean_span * kMaxDeltaSpans).seconds(),
                      config_.max_candidates, keys_, radix_, deltas_);
  if (deltas_.empty()) return {};
  const std::size_t pulled =
      GainsInto(inputs, deltas_, gains_, first_after_pull_);
  if (pulled == 0) return {};  // every F̃ is 0: nothing beats Δ = 0

  // Step 2: F̃(Δ_c) ≈ G(c) − Δ_c·S with S = Σ_i lw(m−1)/T_i, which is within
  // RoundingSlack of the literal value. A candidate whose approximation plus
  // slack is below some other candidate's approximation minus slack, or not
  // positive, is not the first maximum of the literal values.
  const double m = static_cast<double>(inputs.num_workers);
  const double weight = config_.loss_weight * (m - 1.0);
  double slope = 0.0;
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (inputs.last_pull[i].has_value()) {
      slope += weight / inputs.iteration_span[i].seconds();
    }
  }
  const auto bounds = [&](std::size_t c) {
    const double gain = static_cast<double>(gains_[c]);
    const double loss = deltas_[c] * slope;
    const double slack = RoundingSlack(pulled, gain, loss);
    return std::pair{gain - loss - slack, gain - loss + slack};
  };
  double floor = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < deltas_.size(); ++c) {
    floor = std::max(floor, bounds(c).first);
  }

  // Step 3 needs each worker's own pushes; group them by worker (a counting
  // sort, so each group stays in time order).
  const auto& pushes = inputs.pushes;
  own_begin_.assign(inputs.num_workers + 1, 0);
  for (const auto& push : pushes) {
    SPECSYNC_CHECK_LT(push.second, inputs.num_workers);
    ++own_begin_[push.second];
  }
  std::partial_sum(own_begin_.begin(), own_begin_.end(), own_begin_.begin());
  own_pushes_.resize(pushes.size());
  for (std::size_t p = pushes.size(); p-- > 0;) {
    own_pushes_[--own_begin_[pushes[p].second]] = p;
  }

  double best_delta = 0.0;
  double best_value = 0.0;  // Δ=0 yields F̃=0; only positive improvements win
  for (std::size_t c = 0; c < deltas_.size(); ++c) {
    const double upper = bounds(c).second;
    if (upper < floor || upper <= 0.0) continue;
    const double value = LiteralImprovement(inputs, c);
    if (value > best_value) {
      best_value = value;
      best_delta = deltas_[c];
    }
  }
  if (best_delta == 0.0) return {};  // speculation not worth it

  SpeculationParams params;
  params.abort_time = Duration::Seconds(best_delta);
  // Algorithm 1 line 7: ABORT_RATE <- Δ(m-1)/(T·m).
  params.abort_rate = params.abort_time / mean_span * (m - 1.0) / m;
  if (config_.per_worker_rate) {
    params.per_worker_rate.resize(inputs.num_workers);
    for (WorkerId i = 0; i < inputs.num_workers; ++i) {
      // Γ_i = l̃_i(Δ*)/m (Sec. IV-B).
      params.per_worker_rate[i] =
          params.abort_time / inputs.iteration_span[i] * (m - 1.0) / m;
    }
  }
  return params;
}

}  // namespace specsync
