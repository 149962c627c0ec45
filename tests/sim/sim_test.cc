// Tests for the discrete-event engine, network model, stalls, speed models.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "common/check.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/speed_model.h"

namespace specsync {
namespace {

SimTime T(double s) { return SimTime::FromSeconds(s); }
Duration D(double s) { return Duration::Seconds(s); }

TEST(SimulatorTest, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(T(3.0), [&] { order.push_back(3); });
  sim.ScheduleAt(T(1.0), [&] { order.push_back(1); });
  sim.ScheduleAt(T(2.0), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), T(3.0));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, EqualTimesAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(T(1.0), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(T(1.0), [&] {
    ++fired;
    sim.ScheduleAfter(D(1.0), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), T(2.0));
}

TEST(SimulatorTest, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(T(1.0), [&] { ++fired; });
  sim.ScheduleAt(T(5.0), [&] { ++fired; });
  sim.Run(T(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtExactlyUntilRuns) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(T(2.0), [&] { ++fired; });
  sim.Run(T(2.0));
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(T(1.0), [&] {
    ++fired;
    sim.RequestStop();
  });
  sim.ScheduleAt(T(2.0), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, SchedulingInPastThrows) {
  Simulator sim;
  sim.ScheduleAt(T(5.0), [] {});
  sim.Run();
  EXPECT_THROW(sim.ScheduleAt(T(1.0), [] {}), CheckError);
  EXPECT_THROW(sim.ScheduleAfter(D(-1.0), [] {}), CheckError);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAt(T(1.0), [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

// --- network ------------------------------------------------------------------

TEST(NetworkTest, DeterministicWithoutJitter) {
  NetworkConfig config;
  config.base_latency = D(0.001);
  config.bandwidth_bytes_per_sec = 1e6;
  config.jitter_sigma = 0.0;
  NetworkModel network(config);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(network.TransferTime(1000, rng).seconds(), 0.002);
  EXPECT_DOUBLE_EQ(network.TransferTime(0, rng).seconds(), 0.001);
}

TEST(NetworkTest, JitterHasMedianNearNominal) {
  NetworkConfig config;
  config.base_latency = D(0.01);
  config.bandwidth_bytes_per_sec = 1e9;
  config.jitter_sigma = 0.3;
  NetworkModel network(config);
  Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 4001; ++i) {
    samples.push_back(network.TransferTime(0, rng).seconds());
  }
  std::nth_element(samples.begin(), samples.begin() + 2000, samples.end());
  EXPECT_NEAR(samples[2000], 0.01, 0.002);
}

TEST(NetworkTest, InvalidConfigThrows) {
  NetworkConfig bad;
  bad.bandwidth_bytes_per_sec = 0.0;
  EXPECT_THROW(NetworkModel{bad}, CheckError);
}

// --- stalls --------------------------------------------------------------------

TEST(StallScheduleTest, DisabledIsIdentity) {
  StallSchedule stalls(StallConfig{}, Rng(1));
  EXPECT_EQ(stalls.Defer(T(5.0)), T(5.0));
  EXPECT_FALSE(stalls.enabled());
}

TEST(StallScheduleTest, DefersIntoStallEndAndPreservesOrder) {
  StallConfig config;
  config.enabled = true;
  config.mean_gap = D(10.0);
  config.mean_duration = D(2.0);
  StallSchedule stalls(config, Rng(3));
  SimTime previous = SimTime::Zero();
  for (double t = 0.0; t < 200.0; t += 0.25) {
    const SimTime deferred = stalls.Defer(T(t));
    EXPECT_GE(deferred, T(t));          // never earlier
    EXPECT_GE(deferred, previous);      // monotone in arrival order
    previous = deferred;
  }
}

TEST(StallScheduleTest, SomeArrivalsActuallyDeferred) {
  StallConfig config;
  config.enabled = true;
  config.mean_gap = D(5.0);
  config.mean_duration = D(5.0);  // ~50% stalled
  StallSchedule stalls(config, Rng(4));
  int deferred = 0;
  for (double t = 0.0; t < 500.0; t += 0.5) {
    if (stalls.Defer(T(t)) > T(t)) ++deferred;
  }
  EXPECT_GT(deferred, 200);
  EXPECT_LT(deferred, 900);
}

TEST(StallScheduleTest, BatchingCreatesBursts) {
  // All arrivals during one stall get the same delivery time.
  StallConfig config;
  config.enabled = true;
  config.mean_gap = D(1000.0);
  config.mean_duration = D(50.0);
  StallSchedule stalls(config, Rng(5));
  // Find a stalled arrival, then verify nearby arrivals coalesce.
  for (double t = 0.0; t < 5000.0; t += 1.0) {
    const SimTime d0 = stalls.Defer(T(t));
    if (d0 > T(t + 2.0)) {
      EXPECT_EQ(stalls.Defer(T(t + 1.0)), d0);
      return;
    }
  }
  FAIL() << "no stall found in horizon";
}

TEST(StallScheduleTest, OutOfOrderQueriesMatchMonotone) {
  // Regression: Defer's lazily generated window list is prefix-complete, so
  // querying arrivals out of order must give bit-identical answers to
  // querying them sorted. (Fault-injected delays and retries produce
  // out-of-order Defer calls; a naive lazy generator would re-seed or skip
  // windows for the earlier times.)
  StallConfig config;
  config.enabled = true;
  config.mean_gap = D(5.0);
  config.mean_duration = D(2.0);

  std::vector<double> times;
  for (double t = 0.0; t < 300.0; t += 0.3) times.push_back(t);

  StallSchedule monotone(config, Rng(17));
  std::vector<SimTime> expected;
  expected.reserve(times.size());
  for (double t : times) expected.push_back(monotone.Defer(T(t)));

  // Shuffle deterministically and replay the same queries out of order.
  std::vector<std::size_t> order(times.size());
  std::iota(order.begin(), order.end(), 0u);
  std::mt19937 gen(99);
  std::shuffle(order.begin(), order.end(), gen);
  StallSchedule shuffled(config, Rng(17));
  for (std::size_t i : order) {
    EXPECT_EQ(shuffled.Defer(T(times[i])), expected[i]) << "at t=" << times[i];
  }

  // Repeat queries are stable too (a retried message re-asks for the past).
  StallSchedule repeat(config, Rng(17));
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(repeat.Defer(T(times[i])), expected[i]);
    if (i >= 10) {
      EXPECT_EQ(repeat.Defer(T(times[i - 10])), expected[i - 10]);
    }
  }
}

// --- speed models ---------------------------------------------------------------

TEST(SpeedModelTest, HomogeneousNoJitterIsExact) {
  SpeedModel model = SpeedModel::Homogeneous(D(2.0), 8, 0.0);
  Rng rng(1);
  EXPECT_EQ(model.ComputeTime(0, T(0.0), rng), D(2.0));
  EXPECT_EQ(model.MeanComputeTime(5), D(2.0));
}

TEST(SpeedModelTest, HeterogeneousClasses) {
  const SpeedModel model = SpeedModel::EvenClasses(D(1.0), 4, {1.0, 2.0}, 0.0);
  EXPECT_EQ(model.MeanComputeTime(0), D(1.0));
  EXPECT_EQ(model.MeanComputeTime(1), D(2.0));
  EXPECT_EQ(model.MeanComputeTime(2), D(1.0));
  EXPECT_EQ(model.MeanComputeTime(3), D(2.0));
  EXPECT_THROW(model.MeanComputeTime(4), CheckError);
}

TEST(SpeedModelTest, StragglerInjectionRate) {
  SpeedModel model = SpeedModel::Homogeneous(D(1.0), 1, 0.0);
  model.SetStragglers(0.2, 4.0);
  Rng rng(6);
  int slowed = 0;
  for (int i = 0; i < 5000; ++i) {
    if (model.ComputeTime(0, T(0.0), rng) > D(2.0)) ++slowed;
  }
  EXPECT_NEAR(slowed / 5000.0, 0.2, 0.03);
  EXPECT_DOUBLE_EQ(model.MeanComputeTime(0).seconds(), 1.0 + 0.2 * 3.0);
}

TEST(ContentionModelTest, CohortSlowsTogetherDuringEvent) {
  ContentionConfig config;
  config.mean_gap = D(10.0);
  config.mean_duration = D(10.0);
  config.cohort_fraction = 0.5;
  config.slowdown = 3.0;
  SpeedModel model = SpeedModel::Homogeneous(D(1.0), 16, 0.0);
  model.SetContention(config, Rng(7));
  Rng rng(8);
  // Over a long horizon, roughly busy_frac * cohort_frac of samples slowed.
  int slowed = 0;
  const int kSamples = 4000;
  for (int i = 0; i < kSamples; ++i) {
    const SimTime now = T(i * 0.25);
    if (model.ComputeTime(i % 16, now, rng) > D(2.0)) ++slowed;
  }
  const double expected = 0.5 * 0.5;  // busy fraction * cohort fraction
  EXPECT_NEAR(static_cast<double>(slowed) / kSamples, expected, 0.1);
  EXPECT_DOUBLE_EQ(model.MeanComputeTime(0).seconds(), 1.0 + expected * 2.0);
}

TEST(ContentionModelTest, MembershipDeterministicWithinEvent) {
  ContentionConfig config;
  config.mean_gap = D(5.0);
  config.mean_duration = D(100.0);
  config.cohort_fraction = 0.5;
  config.slowdown = 2.0;
  SpeedModel model = SpeedModel::Homogeneous(D(1.0), 8, 0.0);
  model.SetContention(config, Rng(9));
  // Within one long event, a worker's contended status must not flip.
  const SimTime probe = T(50.0);
  for (WorkerId w = 0; w < 8; ++w) {
    const bool first = model.IsContended(w, probe);
    EXPECT_EQ(model.IsContended(w, probe + D(0.5)), first);
  }
}

}  // namespace
}  // namespace specsync
