// SpeedModel property suite (DESIGN.md §6).
//
// SpeedModel folds what were four decorator classes (homogeneous or classed
// speeds, stragglers, contention) into one. Every simulated run keeps its
// draws only if the fold draws and rounds exactly like the chain, so this
// suite drives random compositions through the fold and through the chain
// kept verbatim in speed_model_reference.h, from identically seeded streams:
// one class, round-robin classes or explicit per-worker multipliers (Fig. 2's
// staggered workers), jitter on or off, stragglers on or off, contention on
// or off, and random workers drawing at non-decreasing times. The
// ComputeTime sequences and every worker's MeanComputeTime must be equal bit
// for bit, and every worker stream must end in the same state. On mismatch
// the draw list is shrunk to a 1-minimal counterexample and each mechanism
// the mismatch does not need is switched off.
//
// Compositions are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or
// explore.

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/speed_model.h"
#include "speed_model_reference.h"
#include "support/property.h"

namespace specsync {
namespace {

enum class Speeds { kOneClass, kRoundRobin, kExplicit };

struct Draw {
  WorkerId worker = 0;
  SimTime now;
};

struct Case {
  Duration base;
  std::size_t num_workers = 1;
  Speeds speeds = Speeds::kOneClass;
  // Round-robin: the classes; explicit: one multiplier per worker.
  std::vector<double> multipliers;
  double jitter_sigma = 0.0;
  // Stragglers are set when `stragglers` is true, which may be with a zero
  // probability (a coin that never flips).
  bool stragglers = false;
  double straggler_probability = 0.0;
  double straggler_slowdown = 1.0;
  bool contention = false;
  ContentionConfig contention_config;
  std::uint64_t contention_seed = 0;
  std::uint64_t stream_seed = 0;
  std::vector<Draw> draws;
};

Case GenerateCase(std::uint64_t seed) {
  Rng rng(seed);
  Case c;
  c.base = Duration::Seconds(rng.Uniform(0.01, 5.0));
  c.num_workers = 1 + rng.Index(40);
  c.speeds = static_cast<Speeds>(rng.Index(3));
  if (c.speeds == Speeds::kRoundRobin) {
    c.multipliers.resize(1 + rng.Index(5));
  } else if (c.speeds == Speeds::kExplicit) {
    c.multipliers.resize(c.num_workers);
  }
  for (double& m : c.multipliers) m = rng.Uniform(0.4, 2.5);
  // No jitter, the cluster's 0.08, or any sigma.
  const std::size_t jitter = rng.Index(3);
  c.jitter_sigma = jitter == 0   ? 0.0
                   : jitter == 1 ? 0.08
                                 : rng.Uniform(0.0, 0.5);
  c.stragglers = rng.Bernoulli(0.6);
  if (c.stragglers) {
    c.straggler_probability = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 0.5);
    c.straggler_slowdown = rng.Uniform(1.0, 5.0);
  }
  c.contention = rng.Bernoulli(0.6);
  if (c.contention) {
    c.contention_config.mean_gap = c.base * rng.Uniform(0.5, 8.0);
    c.contention_config.mean_duration = c.base * rng.Uniform(0.5, 4.0);
    c.contention_config.cohort_fraction = rng.Uniform(0.05, 1.0);
    c.contention_config.slowdown = rng.Uniform(1.0, 4.0);
    c.contention_seed = rng.UniformInt(0, 1ll << 40);
  }
  c.stream_seed = rng.UniformInt(0, 1ll << 40);
  // Non-decreasing times, sometimes equal (workers starting together).
  const std::size_t draws = 1 + rng.Index(200);
  double t = 0.0;
  for (std::size_t i = 0; i < draws; ++i) {
    if (rng.Index(4) != 0) {
      t += rng.Exponential(static_cast<double>(c.num_workers) /
                           c.base.seconds());
    }
    c.draws.push_back({static_cast<WorkerId>(rng.Index(c.num_workers)),
                       SimTime::FromSeconds(t)});
  }
  return c;
}

SpeedModel BuildFold(const Case& c) {
  SpeedModel model =
      c.speeds == Speeds::kOneClass
          ? SpeedModel::Homogeneous(c.base, c.num_workers, c.jitter_sigma)
      : c.speeds == Speeds::kRoundRobin
          ? SpeedModel::EvenClasses(c.base, c.num_workers, c.multipliers,
                                    c.jitter_sigma)
          : SpeedModel(c.base, c.multipliers, c.jitter_sigma);
  if (c.stragglers) {
    model.SetStragglers(c.straggler_probability, c.straggler_slowdown);
  }
  if (c.contention) {
    model.SetContention(c.contention_config, Rng(c.contention_seed));
  }
  return model;
}

std::unique_ptr<reference::SpeedModel> BuildChain(const Case& c) {
  std::unique_ptr<reference::SpeedModel> model;
  if (c.speeds == Speeds::kOneClass) {
    model = std::make_unique<reference::HomogeneousSpeedModel>(c.base,
                                                               c.jitter_sigma);
  } else if (c.speeds == Speeds::kRoundRobin) {
    model = reference::HeterogeneousSpeedModel::EvenClasses(
        c.base, c.num_workers, c.multipliers, c.jitter_sigma);
  } else {
    model = std::make_unique<reference::HeterogeneousSpeedModel>(
        c.base, c.multipliers, c.jitter_sigma);
  }
  if (c.stragglers) {
    model = std::make_unique<reference::StragglerInjectingSpeedModel>(
        std::move(model), c.straggler_probability, c.straggler_slowdown);
  }
  if (c.contention) {
    model = std::make_unique<reference::ContentionSpeedModel>(
        std::move(model), c.contention_config, Rng(c.contention_seed));
  }
  return model;
}

std::vector<Rng> WorkerStreams(const Case& c) {
  Rng root(c.stream_seed);
  std::vector<Rng> streams;
  for (std::size_t w = 0; w < c.num_workers; ++w) {
    streams.push_back(root.Fork());
  }
  return streams;
}

bool SameBits(Duration a, Duration b) {
  return std::bit_cast<std::uint64_t>(a.seconds()) ==
         std::bit_cast<std::uint64_t>(b.seconds());
}

// What one case exercised, for the non-vacuity counts.
struct Coverage {
  std::size_t contended_draws = 0;
};

// Runs one case through both models. Returns a failure description, or
// nullopt when they agree bit for bit.
std::optional<std::string> CheckCase(const Case& c,
                                     Coverage* coverage = nullptr) {
  SpeedModel fold = BuildFold(c);
  const std::unique_ptr<reference::SpeedModel> chain = BuildChain(c);
  std::vector<Rng> fold_streams = WorkerStreams(c);
  std::vector<Rng> chain_streams = WorkerStreams(c);
  std::ostringstream msg;
  msg << std::hexfloat;
  for (WorkerId w = 0; w < c.num_workers; ++w) {
    const Duration got = fold.MeanComputeTime(w);
    const Duration want = chain->MeanComputeTime(w);
    if (!SameBits(got, want)) {
      msg << "MeanComputeTime(" << w << ") " << got.seconds()
          << " != chain " << want.seconds();
      return msg.str();
    }
  }
  for (std::size_t i = 0; i < c.draws.size(); ++i) {
    const Draw& d = c.draws[i];
    const Duration got =
        fold.ComputeTime(d.worker, d.now, fold_streams[d.worker]);
    const Duration want =
        chain->ComputeTime(d.worker, d.now, chain_streams[d.worker]);
    if (!SameBits(got, want)) {
      msg << "draw " << i << " (worker " << d.worker << " at "
          << d.now.seconds() << "): " << got.seconds() << " != chain "
          << want.seconds();
      return msg.str();
    }
    // Events up to `now` are generated: the query draws nothing more.
    if (coverage != nullptr && fold.IsContended(d.worker, d.now)) {
      ++coverage->contended_draws;
    }
  }
  for (WorkerId w = 0; w < c.num_workers; ++w) {
    if (fold_streams[w].engine() != chain_streams[w].engine()) {
      msg << "worker " << w << "'s stream ends in a different state";
      return msg.str();
    }
  }
  return std::nullopt;
}

std::string FormatCase(const Case& c) {
  static constexpr const char* kSpeeds[] = {"one class", "round-robin",
                                            "explicit"};
  std::ostringstream out;
  out << std::hexfloat << "base=" << c.base.seconds()
      << " workers=" << c.num_workers << ' '
      << kSpeeds[static_cast<int>(c.speeds)] << " multipliers:";
  for (double m : c.multipliers) out << ' ' << m;
  out << " sigma=" << c.jitter_sigma;
  if (c.stragglers) {
    out << " stragglers p=" << c.straggler_probability
        << " x" << c.straggler_slowdown;
  }
  if (c.contention) {
    const ContentionConfig& k = c.contention_config;
    out << " contention gap=" << k.mean_gap.seconds()
        << " duration=" << k.mean_duration.seconds()
        << " cohort=" << k.cohort_fraction << " x" << k.slowdown
        << " seed=" << std::dec << c.contention_seed << std::hexfloat;
  }
  out << " streams=" << std::dec << c.stream_seed << std::hexfloat
      << " draws:";
  for (const Draw& d : c.draws) {
    out << " w" << d.worker << '@' << d.now.seconds();
  }
  return out.str();
}

// Drops draws while the mismatch persists, then switches off each mechanism
// the mismatch does not need.
Case Shrink(Case c) {
  ShrinkList(c.draws, 1, [&](const std::vector<Draw>& draws) {
    Case smaller = c;
    smaller.draws = draws;
    return CheckCase(smaller).has_value();
  });
  const auto keep_if_failing = [&](Case simpler) {
    if (CheckCase(simpler).has_value()) c = std::move(simpler);
  };
  Case simpler = c;
  simpler.contention = false;
  keep_if_failing(simpler);
  simpler = c;
  simpler.stragglers = false;
  keep_if_failing(simpler);
  simpler = c;
  simpler.jitter_sigma = 0.0;
  keep_if_failing(simpler);
  return c;
}

constexpr std::size_t kTrials = 400;

std::uint64_t TrialSeed(std::size_t trial) {
  return PropertySeed(20261020) + trial * 0x9e3779b97f4a7c15ULL;
}

TEST(SpeedModelProperty, FoldMatchesDecoratorChain) {
  std::size_t contended_cases = 0;
  std::size_t straggler_cases = 0;
  std::size_t jitter_cases = 0;
  std::size_t speed_shapes[3] = {0, 0, 0};
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const Case c = GenerateCase(TrialSeed(trial));
    Coverage coverage;
    const auto failure = CheckCase(c, &coverage);
    if (failure.has_value()) {
      FAIL() << "seed " << TrialSeed(trial) << ": " << *failure
             << "\nminimal counterexample: " << FormatCase(Shrink(c));
    }
    contended_cases += coverage.contended_draws > 0 ? 1 : 0;
    straggler_cases += c.straggler_probability > 0.0 ? 1 : 0;
    jitter_cases += c.jitter_sigma > 0.0 ? 1 : 0;
    ++speed_shapes[static_cast<int>(c.speeds)];
  }
  // Non-vacuity: every mechanism and every speed shape ran.
  EXPECT_GT(contended_cases, kTrials / 5);
  EXPECT_GT(straggler_cases, kTrials / 5);
  EXPECT_GT(jitter_cases, kTrials / 5);
  for (std::size_t shape : speed_shapes) EXPECT_GT(shape, kTrials / 5);
}

TEST(SpeedModelProperty, ClusterShapesMatchDecoratorChain) {
  // The compositions the harness builds: Cluster 1 and Cluster 2 at the
  // cluster's jitter, stragglers and contention, as in MakeSpeedModel.
  for (std::size_t classes : {0u, 4u}) {
    Case c;
    c.base = Duration::Seconds(1.3);
    c.num_workers = 40;
    c.speeds = classes == 0 ? Speeds::kOneClass : Speeds::kRoundRobin;
    if (classes != 0) c.multipliers = {1.7, 0.9, 1.0, 0.5};
    c.jitter_sigma = 0.08;
    c.stragglers = true;
    c.straggler_probability = 0.02;
    c.straggler_slowdown = 3.0;
    c.contention = true;
    c.contention_config.mean_gap = c.base * 5.0;
    c.contention_config.mean_duration = c.base * 1.5;
    c.contention_seed = 7 ^ 0xC047E47u;
    c.stream_seed = 7;
    Rng rng(classes);
    double t = 0.0;
    for (int i = 0; i < 4000; ++i) {
      t += rng.Exponential(40.0 / c.base.seconds());
      c.draws.push_back({static_cast<WorkerId>(rng.Index(40)),
                         SimTime::FromSeconds(t)});
    }
    EXPECT_EQ(CheckCase(c), std::nullopt) << FormatCase(Shrink(c));
  }
}

}  // namespace
}  // namespace specsync
