// Tuner replay equivalence battery (DESIGN.md §12).
//
// The Adaptive tuner scores only the candidates that can win: exact gains
// from one bucket pass, an approximation of Eq. 7 with a rounding bound that
// prunes, and a literal replay of the survivors. Its contract is
// bit-identity with the literal Algorithm-1 loop (EstimateImprovement per
// candidate over the literal candidate list — the executable specification
// in tuner_full_replay.h): the same per-epoch ABORT_TIME/ABORT_RATE
// decision, down to the last floating-point bit. The tuner's exact gains and
// the reference sweep's per-candidate F̃ are checked against the literal
// loop too. A pinned golden simulation holds the audited retune sequence to
// the values the literal replay produced.
//
// Timelines are generated on a coarse binary grid (multiples of 1/8 s, all
// exactly representable) so window edges frequently land *exactly* on push
// times — the `time <= pull + Δ` boundary where an off-by-one in the
// bucketing would first diverge. A near-tie generator also sets every span
// so candidates tie exactly in real arithmetic, leaving the first maximum to
// rounding. On mismatch the harness shrinks the push timeline to a 1-minimal
// counterexample and prints it.
//
// Planted bugs prove the battery has teeth: a prune that drops the
// saturation candidate, a rounding bound of zero, and survivors ranked by
// the approximation instead of the literal replay must each change a
// decision — on a scripted timeline and on the seeded random ones.
//
// Timelines are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "core/adaptive_tuner.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/obs.h"
#include "support/property.h"
#include "trace/trace.h"
#include "tuner_full_replay.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() { return PropertySeed(20260808); }

// --- timelines ---------------------------------------------------------------

constexpr double kGrid = 0.125;  // exactly representable; boundary-friendly

TuningInputs GenerateInputs(std::uint64_t seed) {
  Rng rng(seed);
  TuningInputs inputs;
  inputs.num_workers = 2 + rng.Index(5);  // 2..6
  inputs.finished_epoch = 1;
  inputs.iteration_span.resize(inputs.num_workers);
  inputs.last_pull.resize(inputs.num_workers);
  for (std::size_t i = 0; i < inputs.num_workers; ++i) {
    inputs.iteration_span[i] =
        Duration::Seconds(kGrid * static_cast<double>(2 + rng.Index(30)));
    if (rng.Index(8) != 0) {  // 1-in-8 workers saw no pull this epoch
      inputs.last_pull[i] = SimTime::FromSeconds(
          kGrid * static_cast<double>(rng.Index(40)));
    }
  }
  const std::size_t num_pushes = 2 + rng.Index(60);
  double t = 0.0;
  for (std::size_t p = 0; p < num_pushes; ++p) {
    t += kGrid * static_cast<double>(rng.Index(8));  // 0 ⇒ duplicate times
    inputs.pushes.emplace_back(SimTime::FromSeconds(t),
                               static_cast<WorkerId>(
                                   rng.Index(inputs.num_workers)));
  }
  inputs.epoch_begin = SimTime::Zero();
  inputs.epoch_end = SimTime::FromSeconds(t + 1.0);
  return inputs;
}

// A timeline whose Eq. 7 values tie exactly in real arithmetic: every
// worker pulled, on the grid, and every span (m−1)·m·kGrid/j, so each grid
// step of Δ costs exactly j in loss while gains step by integers. Which tied
// candidate the computed values rank first is then down to rounding.
TuningInputs GenerateNearTieInputs(std::uint64_t seed) {
  TuningInputs inputs = GenerateInputs(seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const double m = static_cast<double>(inputs.num_workers);
  const Duration span = Duration::Seconds(
      (m - 1.0) * m * kGrid / static_cast<double>(1 + rng.Index(4)));
  for (std::size_t i = 0; i < inputs.num_workers; ++i) {
    inputs.iteration_span[i] = span;
    if (!inputs.last_pull[i].has_value()) {
      inputs.last_pull[i] = SimTime::FromSeconds(
          kGrid * static_cast<double>(rng.Index(40)));
    }
  }
  return inputs;
}

std::string FormatInputs(const TuningInputs& inputs) {
  std::ostringstream out;
  out << "workers=" << inputs.num_workers << " spans=[";
  for (Duration s : inputs.iteration_span) out << s.seconds() << ' ';
  out << "] pulls=[";
  for (const auto& pull : inputs.last_pull) {
    if (pull.has_value()) {
      out << pull->seconds() << ' ';
    } else {
      out << "- ";
    }
  }
  out << "] pushes:";
  for (const auto& [time, worker] : inputs.pushes) {
    out << " (" << time.seconds() << ",w" << worker << ')';
  }
  return out.str();
}

// --- equivalence checks ------------------------------------------------------

// Bitwise comparison of the tuner and the reference on one timeline. Returns a failure
// description, or nullopt when equivalent.
std::optional<std::string> CheckEquivalence(const TuningInputs& inputs,
                                            double loss_weight,
                                            std::size_t max_candidates,
                                            bool per_worker_rate) {
  if (inputs.pushes.size() < 2 || inputs.num_workers < 2) return std::nullopt;
  const Duration max_delta = MeanSpan(inputs);
  const std::vector<Duration> candidates =
      AdaptiveTuner::CandidateDeltas(inputs, max_delta, max_candidates);
  // The tuner's exact gains G(c) and the reference sweep's per-candidate F̃
  // must match the literal loop bitwise (with no loss term the literal loop
  // sums the gains alone, exactly).
  const std::vector<std::uint32_t> gains =
      AdaptiveTuner::CandidateGains(inputs, candidates);
  const std::vector<double> values =
      reference::EvaluateCandidates(inputs, candidates, loss_weight);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const double want_gain =
        reference::EstimateImprovement(inputs, candidates[c], 0.0);
    if (static_cast<double>(gains[c]) != want_gain) {
      std::ostringstream msg;
      msg << "candidate " << c << " (delta " << candidates[c].seconds()
          << "): gain " << gains[c] << " != literal " << want_gain;
      return msg.str();
    }
    const double want =
        reference::EstimateImprovement(inputs, candidates[c], loss_weight);
    if (values[c] != want) {
      std::ostringstream msg;
      msg << "candidate " << c << " (delta " << candidates[c].seconds()
          << "): sweep " << values[c] << " != literal " << want;
      return msg.str();
    }
  }
  // End-to-end decisions must match bitwise too (covers the prune and the
  // argmax tie-break).
  AdaptiveTunerConfig config;
  config.loss_weight = loss_weight;
  config.max_candidates = max_candidates;
  config.per_worker_rate = per_worker_rate;
  AdaptiveTuner tuner(config);
  const SpeculationParams got = tuner.OnEpochEnd(inputs);
  const SpeculationParams want =
      reference::FullReplayOnEpochEnd(config, inputs);
  if (got.abort_time.seconds() != want.abort_time.seconds() ||
      got.abort_rate != want.abort_rate ||
      got.per_worker_rate != want.per_worker_rate) {
    std::ostringstream msg;
    msg << "decision mismatch: tuner (ABORT_TIME "
        << got.abort_time.seconds() << ", rate " << got.abort_rate
        << ") != full replay (ABORT_TIME " << want.abort_time.seconds()
        << ", rate " << want.abort_rate << ')';
    return msg.str();
  }
  return std::nullopt;
}

// Greedy ddmin over the push timeline: delete the largest chunk that keeps
// the tuner and the reference disagreeing, halving the chunk until single
// pushes survive.
TuningInputs ShrinkPushes(TuningInputs inputs, double loss_weight,
                          std::size_t max_candidates, bool per_worker_rate) {
  const auto still_fails = [&](const TuningInputs& candidate) {
    return CheckEquivalence(candidate, loss_weight, max_candidates,
                            per_worker_rate)
        .has_value();
  };
  std::size_t chunk = std::max<std::size_t>(1, inputs.pushes.size() / 2);
  for (;;) {
    bool removed_any = false;
    std::size_t offset = 0;
    while (offset < inputs.pushes.size()) {
      TuningInputs candidate = inputs;
      const std::size_t end =
          std::min(offset + chunk, candidate.pushes.size());
      candidate.pushes.erase(candidate.pushes.begin() + offset,
                             candidate.pushes.begin() + end);
      if (still_fails(candidate)) {
        inputs = std::move(candidate);
        removed_any = true;
      } else {
        offset += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed_any) break;
    } else {
      chunk /= 2;
    }
  }
  return inputs;
}

void RunTrials(std::size_t trials, double loss_weight,
               std::size_t max_candidates, bool per_worker_rate,
               TuningInputs (*generate)(std::uint64_t) = GenerateInputs) {
  const std::uint64_t base = BaseSeed();
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = base + trial * 6364136223846793005ULL;
    const TuningInputs inputs = generate(seed);
    const auto failure =
        CheckEquivalence(inputs, loss_weight, max_candidates, per_worker_rate);
    if (failure.has_value()) {
      const TuningInputs minimal =
          ShrinkPushes(inputs, loss_weight, max_candidates, per_worker_rate);
      FAIL() << "seed " << seed << " (trial " << trial << "): " << *failure
             << "\nminimal counterexample (" << minimal.pushes.size()
             << " pushes): " << FormatInputs(minimal);
    }
  }
}

TEST(TunerEquivalence, RandomTimelinesPaperObjective) {
  RunTrials(300, /*loss_weight=*/1.0, /*max_candidates=*/4096,
            /*per_worker_rate=*/false);
}

TEST(TunerEquivalence, RandomTimelinesWeightedLossPerWorkerRates) {
  RunTrials(300, /*loss_weight=*/0.3, /*max_candidates=*/4096,
            /*per_worker_rate=*/true);
}

TEST(TunerEquivalence, RandomTimelinesStridedCandidateCap) {
  // A small cap forces the strided-subset path; the sweep must still match.
  RunTrials(200, /*loss_weight=*/1.0, /*max_candidates=*/7,
            /*per_worker_rate=*/false);
}

TEST(TunerEquivalence, RandomNearTieTimelines) {
  // Exact real-arithmetic ties between candidates: the first maximum is
  // decided by rounding alone, which the prune's slack must respect.
  RunTrials(300, /*loss_weight=*/1.0, /*max_candidates=*/4096,
            /*per_worker_rate=*/false, GenerateNearTieInputs);
}

// --- scripted boundary timelines ---------------------------------------------

TuningInputs ScriptedBase() {
  TuningInputs inputs;
  inputs.num_workers = 3;
  inputs.finished_epoch = 2;
  inputs.epoch_begin = SimTime::Zero();
  inputs.epoch_end = SimTime::FromSeconds(10.0);
  inputs.iteration_span = {Duration::Seconds(2.0), Duration::Seconds(1.0),
                           Duration::Seconds(4.0)};
  inputs.last_pull = {SimTime::FromSeconds(1.0), SimTime::FromSeconds(2.0),
                      std::nullopt};  // worker 2: no pull this epoch
  return inputs;
}

TEST(TunerEquivalence, ScriptedWindowEdgeExactlyOnPush) {
  // Pushes at pull + Δ exactly: the closed right edge must be included by
  // the tuner and the reference (the reference uses `<=`; the tuner's
  // bucketing must bucket the push into that candidate, not the next).
  TuningInputs inputs = ScriptedBase();
  inputs.pushes = {{SimTime::FromSeconds(1.0), 1},   // == w0 pull: excluded
                   {SimTime::FromSeconds(1.5), 1},
                   {SimTime::FromSeconds(2.5), 0},   // == w0 pull + 1.5
                   {SimTime::FromSeconds(2.5), 1},   // duplicate time
                   {SimTime::FromSeconds(3.0), 2}};  // == w1 pull + 1.0
  EXPECT_EQ(CheckEquivalence(inputs, 1.0, 4096, false), std::nullopt);
  EXPECT_EQ(CheckEquivalence(inputs, 0.3, 4096, true), std::nullopt);
}

TEST(TunerEquivalence, ScriptedSinglePusherAndNoPullWorkers) {
  TuningInputs inputs = ScriptedBase();
  inputs.last_pull = {SimTime::FromSeconds(1.0), std::nullopt, std::nullopt};
  inputs.pushes = {{SimTime::FromSeconds(1.5), 0},
                   {SimTime::FromSeconds(2.0), 0},
                   {SimTime::FromSeconds(2.25), 0}};
  EXPECT_EQ(CheckEquivalence(inputs, 1.0, 4096, false), std::nullopt);
}

// Pinned history of the golden Adaptive simulation below, captured when the
// tuner still carried both replays and the two produced this exact run: the
// trace digest plus every audited retune (epoch, time, ABORT_TIME,
// ABORT_RATE, pushes seen), bit for bit as hex floats. Regenerate only after
// an intentional behavior change, from the test's failure output.
constexpr std::uint64_t kGoldenTunerSimDigest = 2301548132764110832ULL;
struct RetunePin {
  EpochId epoch;
  double at_seconds;
  double abort_time_seconds;
  double abort_rate;
  std::uint64_t epoch_pushes;
};
constexpr RetunePin kGoldenRetunes[] = {
    {0, 0x1.de0e710780181p+3, 0x1.0c19651896c84p+1, 0x1.d3125fd8c676ap-4, 8},
    {1, 0x1.d6f5d89e426e6p+4, 0x1.d0fa34bc7fc2p-1, 0x1.b20ef04ff136fp-5, 8},
    {2, 0x1.705a424e924fcp+5, 0x1.60e6675d092ep+1, 0x1.3d97dc563ed28p-3, 8},
    {3, 0x1.ebf68390053e5p+5, 0x1.0b733c296e71p+1, 0x1.ec1eb2367ba3cp-4, 8},
    {4, 0x1.33a61eacff6ffp+6, 0x1.48d225950888p+0, 0x1.232608e1daf7cp-4, 8},
    {5, 0x1.8a77385212598p+6, 0x1.6d23e5163e98p+0, 0x1.3af1b2469963ep-4, 8},
    {6, 0x1.c4815aa53535bp+6, 0x1.3e841787f91p-2, 0x1.1e5c110f3d848p-6, 8},
};

TEST(TunerEquivalence, GoldenSimDigestAndAuditRetunesIdentical) {
  // End to end: a full 8-worker Adaptive simulation must reproduce the
  // pinned trace digest and the pinned audited retune sequence — every
  // per-epoch ABORT_TIME/ABORT_RATE to the bit. A drift in the tuner moves a
  // decision and fails here.
  const Workload workload = MakeConvexWorkload(/*seed=*/1, /*scale=*/0.2);
  ExperimentConfig config;
  config.cluster = ClusterSpec::Homogeneous(8);
  config.scheme = SchemeSpec::Adaptive();
  config.max_time = SimTime::FromSeconds(120.0);
  config.stop_on_convergence = false;
  config.seed = 41;
  obs::ObsContext obs;
  config.obs = &obs;
  const ExperimentResult result = RunExperiment(workload, config);

  EXPECT_EQ(TraceDigest(result.sim.trace), kGoldenTunerSimDigest);
  const auto got = obs.audit.retunes();
  ASSERT_EQ(got.size(), std::size(kGoldenRetunes));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const RetunePin& want = kGoldenRetunes[i];
    SCOPED_TRACE(::testing::Message() << "retune " << i << ": {" << got[i].epoch
                                      << ", " << std::hexfloat
                                      << got[i].at.seconds() << ", "
                                      << got[i].abort_time.seconds() << ", "
                                      << got[i].abort_rate << ", "
                                      << std::defaultfloat
                                      << got[i].epoch_pushes << "}");
    EXPECT_EQ(got[i].epoch, want.epoch);
    EXPECT_EQ(got[i].at.seconds(), want.at_seconds);
    EXPECT_EQ(got[i].abort_time.seconds(), want.abort_time_seconds);
    EXPECT_EQ(got[i].abort_rate, want.abort_rate);
    EXPECT_EQ(got[i].epoch_pushes, want.epoch_pushes);
  }
}

TEST(TunerEquivalence, RetuneHistogramCountsEveryRetune) {
  // The golden run above with obs attached: "scheduler.retune_s" holds one
  // wall-time sample per retune, so its count is SchedulerStats::retunes.
  const Workload workload = MakeConvexWorkload(/*seed=*/1, /*scale=*/0.2);
  ExperimentConfig config;
  config.cluster = ClusterSpec::Homogeneous(8);
  config.scheme = SchemeSpec::Adaptive();
  config.max_time = SimTime::FromSeconds(120.0);
  config.stop_on_convergence = false;
  config.seed = 41;
  obs::ObsContext obs;
  config.obs = &obs;
  const ExperimentResult result = RunExperiment(workload, config);

  const std::uint64_t retunes = result.sim.scheduler_stats.retunes;
  EXPECT_EQ(retunes, std::size(kGoldenRetunes));
  const obs::LatencyHistogram& histogram =
      obs.metrics.histogram("scheduler.retune_s");
  EXPECT_EQ(histogram.count(), retunes);
  EXPECT_GT(histogram.sum_seconds(), 0.0);
}

// --- the planted prune bug ---------------------------------------------------

TEST(TunerEquivalence, WrongPruneIsCaught) {
  // Crafted so the argmax lands exactly on the saturation candidate: worker
  // 1 pushes at 1,2,3,4; spans are huge so the loss term is negligible and
  // the widest window (Δ = 3) wins. A prune that drops the saturation
  // candidate itself — evaluating [0, saturation) instead of
  // [0, saturation] — must change the decision, proving the equivalence
  // battery detects an off-by-one prune.
  TuningInputs inputs;
  inputs.num_workers = 2;
  inputs.finished_epoch = 1;
  inputs.epoch_begin = SimTime::Zero();
  inputs.epoch_end = SimTime::FromSeconds(10.0);
  inputs.iteration_span = {Duration::Seconds(100.0), Duration::Seconds(100.0)};
  inputs.last_pull = {SimTime::FromSeconds(1.25), SimTime::FromSeconds(1.5)};
  inputs.pushes = {{SimTime::FromSeconds(1.0), 1},
                   {SimTime::FromSeconds(2.0), 1},
                   {SimTime::FromSeconds(3.0), 1},
                   {SimTime::FromSeconds(4.0), 1}};

  const std::vector<Duration> candidates =
      AdaptiveTuner::CandidateDeltas(inputs, MeanSpan(inputs), 4096);
  ASSERT_EQ(candidates.size(), 3u);  // {1, 2, 3}
  const std::size_t saturation =
      reference::SaturationIndex(inputs, candidates);
  ASSERT_EQ(saturation, 2u);  // every window covers t_last=4 from Δ=3 on

  // The tuner agrees with the reference, and picks the saturation candidate.
  ASSERT_EQ(CheckEquivalence(inputs, 1.0, 4096, false), std::nullopt);
  AdaptiveTuner tuner{AdaptiveTunerConfig{}};
  EXPECT_EQ(tuner.OnEpochEnd(inputs).abort_time.seconds(), 3.0);

  // The buggy prune — same sweep, one candidate short — decides differently.
  const std::vector<double> values =
      reference::EvaluateCandidates(inputs, candidates, 1.0);
  Duration buggy_best = Duration::Zero();
  double buggy_value = 0.0;
  for (std::size_t c = 0; c < saturation; ++c) {  // BUG: excludes saturation
    if (values[c] > buggy_value) {
      buggy_value = values[c];
      buggy_best = candidates[c];
    }
  }
  EXPECT_NE(buggy_best.seconds(), 3.0)
      << "the planted wrong prune went undetected — the battery has no teeth";
}

TEST(TunerEquivalence, SaturationPruneNeverMovesTheArgmax) {
  // Direct property check of the prune invariant on random timelines: the
  // full argmax always lies within [0, SaturationIndex].
  const std::uint64_t base = BaseSeed();
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const TuningInputs inputs = GenerateInputs(base + trial * 999983ULL);
    const std::vector<Duration> candidates =
        AdaptiveTuner::CandidateDeltas(inputs, MeanSpan(inputs), 4096);
    if (candidates.empty()) continue;
    const std::vector<double> values =
        reference::EvaluateCandidates(inputs, candidates, 1.0);
    std::size_t argmax = candidates.size();  // = "none positive"
    double best = 0.0;
    for (std::size_t c = 0; c < values.size(); ++c) {
      if (values[c] > best) {
        best = values[c];
        argmax = c;
      }
    }
    if (argmax == candidates.size()) continue;
    EXPECT_LE(argmax, reference::SaturationIndex(inputs, candidates))
        << FormatInputs(inputs);
  }
}


// --- planted bugs in the argmax ----------------------------------------------

enum class ArgmaxBug { kNone, kZeroSlack, kApproximateScores };

// The tuner's argmax (DESIGN.md §12) rebuilt from its exposed pieces —
// CandidateGains, RoundingSlack and the literal Eq. 7 — with `bug` planted:
// kZeroSlack prunes with no rounding slack, kApproximateScores ranks the
// survivors by the approximation instead of replaying them. Returns the
// chosen ABORT_TIME (zero when speculation stays off).
Duration PlantedArgmax(const TuningInputs& inputs,
                       const AdaptiveTunerConfig& config, ArgmaxBug bug) {
  if (inputs.num_workers < 2 || inputs.pushes.size() < 2) {
    return Duration::Zero();
  }
  const std::vector<Duration> candidates = AdaptiveTuner::CandidateDeltas(
      inputs, MeanSpan(inputs) * kMaxDeltaSpans, config.max_candidates);
  const std::vector<std::uint32_t> gains =
      AdaptiveTuner::CandidateGains(inputs, candidates);
  const double m = static_cast<double>(inputs.num_workers);
  std::size_t pulled = 0;
  double slope = 0.0;  // Σ_i lw(m−1)/T_i
  for (WorkerId i = 0; i < inputs.num_workers; ++i) {
    if (!inputs.last_pull[i].has_value()) continue;
    ++pulled;
    slope += config.loss_weight * (m - 1.0) / inputs.iteration_span[i].seconds();
  }
  if (pulled == 0) return Duration::Zero();
  // {approximation, slack} of candidate c.
  const auto approx = [&](std::size_t c) {
    const double gain = static_cast<double>(gains[c]);
    const double loss = candidates[c].seconds() * slope;
    const double slack = bug == ArgmaxBug::kZeroSlack
                             ? 0.0
                             : AdaptiveTuner::RoundingSlack(pulled, gain, loss);
    return std::pair{gain - loss, slack};
  };
  double floor = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const auto [value, slack] = approx(c);
    floor = std::max(floor, value - slack);
  }
  Duration best_delta = Duration::Zero();
  double best_value = 0.0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const auto [value, slack] = approx(c);
    if (value + slack < floor || value + slack <= 0.0) continue;
    const double score =
        bug == ArgmaxBug::kApproximateScores
            ? value
            : reference::EstimateImprovement(inputs, candidates[c],
                                             config.loss_weight);
    if (score > best_value) {
      best_value = score;
      best_delta = candidates[c];
    }
  }
  return best_delta;
}

// Decisions `bug` gets wrong, against the literal replay, over `trials`
// near-tie timelines from the current seed.
std::size_t PlantedMismatches(ArgmaxBug bug, std::size_t trials) {
  const AdaptiveTunerConfig config;
  const std::uint64_t base = BaseSeed();
  std::size_t mismatches = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const TuningInputs inputs =
        GenerateNearTieInputs(base + trial * 6364136223846793005ULL);
    if (PlantedArgmax(inputs, config, bug) !=
        reference::FullReplayOnEpochEnd(config, inputs).abort_time) {
      ++mismatches;
    }
  }
  return mismatches;
}

// Five workers, every span 2.5 s: each 1/8 s of Δ costs exactly 1 in loss,
// so several candidates tie in exact arithmetic and rounding ranks them.
TuningInputs ScriptedNearTie() {
  TuningInputs inputs;
  inputs.num_workers = 5;
  inputs.finished_epoch = 1;
  inputs.epoch_begin = SimTime::Zero();
  inputs.epoch_end = SimTime::FromSeconds(4.0);
  inputs.iteration_span.assign(5, Duration::Seconds(2.5));
  inputs.last_pull = {SimTime::FromSeconds(0.125), SimTime::FromSeconds(2.625),
                      SimTime::FromSeconds(4.75), SimTime::FromSeconds(0.375),
                      SimTime::FromSeconds(3.125)};
  inputs.pushes = {{SimTime::FromSeconds(0.875), 0},
                   {SimTime::FromSeconds(1.25), 1},
                   {SimTime::FromSeconds(1.625), 0},
                   {SimTime::FromSeconds(1.75), 1},
                   {SimTime::FromSeconds(2.125), 1},
                   {SimTime::FromSeconds(2.75), 0},
                   {SimTime::FromSeconds(3.625), 0}};
  return inputs;
}

TEST(TunerEquivalence, RebuiltArgmaxAgreesWithoutABug) {
  // The planted checks below are only evidence if the unbroken rebuild
  // agrees with the literal replay.
  EXPECT_EQ(PlantedMismatches(ArgmaxBug::kNone, 300), 0u);
  const TuningInputs inputs = ScriptedNearTie();
  EXPECT_EQ(PlantedArgmax(inputs, AdaptiveTunerConfig{}, ArgmaxBug::kNone),
            reference::FullReplayOnEpochEnd(AdaptiveTunerConfig{}, inputs)
                .abort_time);
}

TEST(TunerEquivalence, ZeroRoundingSlackIsCaught) {
  // With no slack the prune keeps only the candidates whose approximation is
  // the largest, and rounding can put the literal first maximum elsewhere.
  const TuningInputs inputs = ScriptedNearTie();
  ASSERT_EQ(CheckEquivalence(inputs, 1.0, 4096, false), std::nullopt);
  EXPECT_NE(PlantedArgmax(inputs, AdaptiveTunerConfig{}, ArgmaxBug::kZeroSlack),
            reference::FullReplayOnEpochEnd(AdaptiveTunerConfig{}, inputs)
                .abort_time)
      << "a zero-slack prune went undetected on the scripted near tie";
  EXPECT_GT(PlantedMismatches(ArgmaxBug::kZeroSlack, 300), 0u)
      << "a zero-slack prune went undetected on 300 near-tie timelines";
}

TEST(TunerEquivalence, ApproximateScoresAreCaught) {
  // Ranking the survivors by G(c) − Δ_c·S instead of the literal Eq. 7 sum
  // breaks exact ties by the approximation's rounding, not the literal one's.
  const TuningInputs inputs = ScriptedNearTie();
  EXPECT_NE(PlantedArgmax(inputs, AdaptiveTunerConfig{},
                          ArgmaxBug::kApproximateScores),
            reference::FullReplayOnEpochEnd(AdaptiveTunerConfig{}, inputs)
                .abort_time)
      << "approximate survivor scores went undetected on the scripted near "
         "tie";
  EXPECT_GT(PlantedMismatches(ArgmaxBug::kApproximateScores, 300), 0u)
      << "approximate survivor scores went undetected on 300 near-tie "
         "timelines";
}

}  // namespace
}  // namespace specsync
