// Fault-tolerance tests for the SpecSync scheduler: duplicated / reordered /
// lost notifies, replayed and late check timers, and worker crash/rejoin.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/push_history.h"
#include "core/scheduler.h"

namespace specsync {
namespace {

SimTime T(double s) { return SimTime::FromSeconds(s); }
Duration D(double s) { return Duration::Seconds(s); }

SchedulerConfig Config(std::size_t m, Duration abort_time, double abort_rate) {
  SchedulerConfig config;
  config.num_workers = m;
  config.initial_params.abort_time = abort_time;
  config.initial_params.abort_rate = abort_rate;
  config.default_span = D(10.0);
  return config;
}

std::unique_ptr<SpeculationPolicy> Keep(Duration abort_time,
                                        double abort_rate) {
  SpeculationParams params;
  params.abort_time = abort_time;
  params.abort_rate = abort_rate;
  return std::make_unique<FixedSpeculationPolicy>(params);
}

// --- duplicated / reordered notifies -----------------------------------------

TEST(SchedulerFaultTest, DuplicateNotifyIsIgnored) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  const auto first = scheduler.HandleNotify(0, 0, T(1.0));
  ASSERT_TRUE(first.has_value());
  // The network replays the same notify a bit later.
  const auto replay = scheduler.HandleNotify(0, 0, T(1.2));
  EXPECT_FALSE(replay.has_value());
  EXPECT_EQ(scheduler.stats().duplicate_notifies, 1u);
  // The ledger holds a single record; the armed window is untouched (the
  // original token still fires as a normal, non-stale check).
  EXPECT_EQ(scheduler.history().push_count(), 1u);
  scheduler.HandleCheckTimer(0, first->token, T(3.0));
  EXPECT_EQ(scheduler.stats().checks_performed, 1u);
  EXPECT_EQ(scheduler.stats().stale_checks_skipped, 0u);
}

TEST(SchedulerFaultTest, ReorderedNotifyIsTreatedAsDuplicate) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  // Iteration 1's notify overtakes iteration 0's on a faulty link.
  EXPECT_TRUE(scheduler.HandleNotify(0, 1, T(1.0)).has_value());
  EXPECT_FALSE(scheduler.HandleNotify(0, 0, T(1.5)).has_value());
  EXPECT_EQ(scheduler.stats().duplicate_notifies, 1u);
  EXPECT_EQ(scheduler.history().push_count(), 1u);
  EXPECT_EQ(scheduler.history().LastIteration(0), 1u);
}

TEST(SchedulerFaultTest, DuplicateNotifyDoesNotHelpFinishEpoch) {
  SpecSyncScheduler scheduler(Config(2, D(2.0), 0.5), Keep(D(2.0), 0.5));
  scheduler.HandleNotify(0, 0, T(1.0));
  scheduler.HandleNotify(0, 0, T(1.1));  // replay, not a push by worker 1
  EXPECT_EQ(scheduler.epoch(), 0u);
  scheduler.HandleNotify(1, 0, T(2.0));
  EXPECT_EQ(scheduler.epoch(), 1u);
}

// --- replayed / late check timers --------------------------------------------

TEST(SchedulerFaultTest, ReplayedCheckTokenIsIdempotent) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  const auto request = scheduler.HandleNotify(0, 0, T(0.0));
  ASSERT_TRUE(request.has_value());
  scheduler.HandleNotify(1, 0, T(0.5));
  scheduler.HandleNotify(2, 0, T(1.0));
  EXPECT_TRUE(scheduler.HandleCheckTimer(0, request->token, T(2.0)));
  // A duplicated timer message replays the same token: counted no-op.
  EXPECT_FALSE(scheduler.HandleCheckTimer(0, request->token, T(2.1)));
  EXPECT_FALSE(scheduler.HandleCheckTimer(0, request->token, T(2.2)));
  EXPECT_EQ(scheduler.stats().checks_performed, 1u);
  EXPECT_EQ(scheduler.stats().resyncs_issued, 1u);
  EXPECT_EQ(scheduler.stats().stale_checks_skipped, 2u);
}

TEST(SchedulerFaultTest, LateCheckClampsWindowToDeadline) {
  // Window armed at t=0 with abort_time=2: deadline t=2. The timer fires at
  // t=5 (way past the slack); pushes landing in (2, 5] must not count.
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  const auto request = scheduler.HandleNotify(0, 0, T(0.0));
  ASSERT_TRUE(request.has_value());
  scheduler.HandleNotify(1, 0, T(3.0));
  scheduler.HandleNotify(2, 0, T(4.0));
  EXPECT_FALSE(scheduler.HandleCheckTimer(0, request->token, T(5.0)));
  EXPECT_EQ(scheduler.stats().resyncs_issued, 0u);
  EXPECT_EQ(scheduler.stats().late_checks, 1u);
}

TEST(SchedulerFaultTest, LateCheckStillCountsPushesInsideWindow) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  const auto request = scheduler.HandleNotify(0, 0, T(0.0));
  ASSERT_TRUE(request.has_value());
  scheduler.HandleNotify(1, 0, T(0.5));
  scheduler.HandleNotify(2, 0, T(1.0));
  // Fires late, but the in-window pushes already justify the re-sync.
  EXPECT_TRUE(scheduler.HandleCheckTimer(0, request->token, T(5.0)));
  EXPECT_EQ(scheduler.stats().late_checks, 1u);
}

TEST(SchedulerFaultTest, SlackToleratesJitteryTimers) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  const auto request = scheduler.HandleNotify(0, 0, T(0.0));
  ASSERT_TRUE(request.has_value());
  const auto other = scheduler.HandleNotify(1, 0, T(0.0));
  ASSERT_TRUE(other.has_value());
  // 5 ms past the deadline: within the 10 ms slack, not counted as late.
  scheduler.HandleCheckTimer(0, request->token, T(2.005));
  EXPECT_EQ(scheduler.stats().late_checks, 0u);
  EXPECT_EQ(scheduler.stats().checks_performed, 1u);
  // 15 ms past it: beyond the slack.
  scheduler.HandleCheckTimer(1, other->token, T(2.015));
  EXPECT_EQ(scheduler.stats().late_checks, 1u);
  EXPECT_EQ(scheduler.stats().checks_performed, 2u);
}

// --- worker departure / rejoin -----------------------------------------------

TEST(SchedulerFaultTest, DepartureUnblocksEpoch) {
  SpecSyncScheduler scheduler(Config(3, D(2.0), 0.5), Keep(D(2.0), 0.5));
  scheduler.HandleNotify(0, 0, T(1.0));
  scheduler.HandleNotify(1, 0, T(2.0));
  EXPECT_EQ(scheduler.epoch(), 0u);  // waiting on worker 2
  scheduler.OnWorkerDown(2, T(3.0));
  EXPECT_EQ(scheduler.epoch(), 1u);  // departed holdout is excused
  EXPECT_EQ(scheduler.stats().lost_worker_epochs_unblocked, 1u);
  EXPECT_EQ(scheduler.stats().worker_departures, 1u);
  EXPECT_FALSE(scheduler.active_workers()[2]);
}

TEST(SchedulerFaultTest, DepartureCancelsPendingWindow) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  const auto request = scheduler.HandleNotify(0, 0, T(0.0));
  ASSERT_TRUE(request.has_value());
  scheduler.HandleNotify(1, 0, T(0.5));
  scheduler.HandleNotify(2, 0, T(1.0));
  scheduler.OnWorkerDown(0, T(1.5));
  // The crashed worker's check fires (its timer was already queued): it must
  // not issue a re-sync to a dead worker.
  EXPECT_FALSE(scheduler.HandleCheckTimer(0, request->token, T(2.0)));
  EXPECT_EQ(scheduler.stats().stale_checks_skipped, 1u);
  EXPECT_EQ(scheduler.stats().resyncs_issued, 0u);
}

TEST(SchedulerFaultTest, NotifyFromDepartedWorkerArmsNoWindow) {
  SpecSyncScheduler scheduler(Config(3, D(2.0), 0.5), Keep(D(2.0), 0.5));
  scheduler.OnWorkerDown(1, T(0.5));
  // An in-flight notify from the departed worker still lands: the push is
  // real (it reached the servers) but no speculation window is armed.
  const auto request = scheduler.HandleNotify(1, 0, T(1.0));
  EXPECT_FALSE(request.has_value());
  EXPECT_EQ(scheduler.history().push_count(), 1u);
}

TEST(SchedulerFaultTest, RejoinedWorkerRequiredForNextEpoch) {
  SpecSyncScheduler scheduler(Config(3, D(2.0), 0.5), Keep(D(2.0), 0.5));
  scheduler.HandleNotify(0, 0, T(1.0));
  scheduler.HandleNotify(1, 0, T(2.0));
  scheduler.OnWorkerDown(2, T(3.0));
  ASSERT_EQ(scheduler.epoch(), 1u);
  scheduler.OnWorkerUp(2, T(4.0));
  EXPECT_EQ(scheduler.stats().worker_rejoins, 1u);
  EXPECT_TRUE(scheduler.active_workers()[2]);
  // The rejoined worker is a full member again: the next epoch waits for it.
  scheduler.HandleNotify(0, 1, T(5.0));
  scheduler.HandleNotify(1, 1, T(6.0));
  EXPECT_EQ(scheduler.epoch(), 1u);
  scheduler.HandleNotify(2, 0, T(7.0));
  EXPECT_EQ(scheduler.epoch(), 2u);
}

TEST(SchedulerFaultTest, RejoinResetsSpanAnchor) {
  SchedulerConfig config = Config(2, D(2.0), 0.5);
  config.default_span = D(1.0);
  config.span_ewma_alpha = 1.0;  // span = latest gap, no smoothing
  SpecSyncScheduler scheduler(std::move(config), Keep(D(2.0), 0.5));
  scheduler.HandleNotify(0, 0, T(1.0));
  scheduler.HandleNotify(0, 1, T(2.0));
  EXPECT_EQ(scheduler.iteration_spans()[0], D(1.0));
  scheduler.OnWorkerDown(0, T(2.5));
  scheduler.OnWorkerUp(0, T(100.0));
  // First push after rejoin: the 98.5 s dead gap must NOT become the span.
  scheduler.HandleNotify(0, 2, T(101.0));
  EXPECT_EQ(scheduler.iteration_spans()[0], D(1.0));
  // The next gap after that counts again.
  scheduler.HandleNotify(0, 3, T(103.0));
  EXPECT_EQ(scheduler.iteration_spans()[0], D(2.0));
}

TEST(SchedulerFaultTest, ThresholdTracksActiveWorkerCount) {
  // m=4, rate=0.6: threshold 2.4 with everyone up (needs 3 pushes from
  // others), 1.8 after one departure (2 pushes suffice).
  {
    SpecSyncScheduler scheduler(Config(4, D(2.0), 0.6), Keep(D(2.0), 0.6));
    const auto request = scheduler.HandleNotify(0, 0, T(0.0));
    ASSERT_TRUE(request.has_value());
    scheduler.HandleNotify(1, 0, T(0.5));
    scheduler.HandleNotify(2, 0, T(1.0));
    EXPECT_FALSE(scheduler.HandleCheckTimer(0, request->token, T(2.0)));
  }
  {
    SpecSyncScheduler scheduler(Config(4, D(2.0), 0.6), Keep(D(2.0), 0.6));
    const auto request = scheduler.HandleNotify(0, 0, T(0.0));
    ASSERT_TRUE(request.has_value());
    scheduler.HandleNotify(1, 0, T(0.5));
    scheduler.HandleNotify(2, 0, T(1.0));
    scheduler.OnWorkerDown(3, T(1.5));
    EXPECT_TRUE(scheduler.HandleCheckTimer(0, request->token, T(2.0)));
  }
}

TEST(SchedulerFaultTest, RepeatedDownUpEventsAreIdempotent) {
  SpecSyncScheduler scheduler(Config(3, D(2.0), 0.5), Keep(D(2.0), 0.5));
  scheduler.OnWorkerDown(1, T(1.0));
  scheduler.OnWorkerDown(1, T(1.1));  // replayed failure detection
  EXPECT_EQ(scheduler.stats().worker_departures, 1u);
  scheduler.OnWorkerUp(1, T(2.0));
  scheduler.OnWorkerUp(1, T(2.1));
  EXPECT_EQ(scheduler.stats().worker_rejoins, 1u);
}

// --- property-style chaos ----------------------------------------------------

// A seeded storm of duplicated/reordered notifies, replayed and stray check
// tokens, and membership flaps must never (a) throw, (b) record a push
// twice, or (c) leave the scheduler unable to finish epochs once the
// cluster heals.
TEST(SchedulerFaultTest, ChaosThenRecovery) {
  std::mt19937 gen(0xC4405u);
  const std::size_t m = 4;
  SpecSyncScheduler scheduler(Config(m, D(1.0), 0.5), Keep(D(1.0), 0.5));
  double now = 0.0;
  std::vector<IterationId> next_iter(m, 0);
  std::vector<bool> up(m, true);
  struct Armed {
    WorkerId worker;
    std::uint64_t token;
  };
  std::vector<Armed> armed;

  for (int step = 0; step < 4000; ++step) {
    now += 0.01;
    const WorkerId w = gen() % m;
    const int action = static_cast<int>(gen() % 10);
    if (action < 6) {
      // Deliver a notify: usually the next fresh iteration, sometimes a
      // replayed older one; sometimes the delivery itself is duplicated.
      IterationId iteration = next_iter[w];
      if (next_iter[w] > 0 && gen() % 5 == 0) {
        iteration = next_iter[w] - 1;  // replay
      } else {
        ++next_iter[w];
      }
      auto request = scheduler.HandleNotify(w, iteration, T(now));
      if (request.has_value()) armed.push_back({w, request->token});
      if (gen() % 4 == 0) {
        scheduler.HandleNotify(w, iteration, T(now + 0.001));
      }
    } else if (action < 9 && !armed.empty()) {
      // Fire a (possibly superseded) check token, sometimes twice.
      const Armed check = armed[gen() % armed.size()];
      scheduler.HandleCheckTimer(check.worker, check.token, T(now));
      if (gen() % 3 == 0) {
        scheduler.HandleCheckTimer(check.worker, check.token, T(now + 0.001));
      }
    } else {
      if (up[w]) {
        scheduler.OnWorkerDown(w, T(now));
      } else {
        scheduler.OnWorkerUp(w, T(now));
      }
      up[w] = !up[w];
    }
  }

  // Every fresh iteration was accepted exactly once; every replay was
  // rejected. (Trim only drops old records, so count via the stats.)
  std::uint64_t fresh = 0;
  for (WorkerId w = 0; w < m; ++w) {
    fresh += next_iter[w];
    if (next_iter[w] > 0) {
      EXPECT_EQ(scheduler.history().LastIteration(w), next_iter[w] - 1);
    }
  }
  const SchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.notifies_received - stats.duplicate_notifies, fresh);
  EXPECT_GT(stats.duplicate_notifies, 0u);
  EXPECT_GT(stats.stale_checks_skipped, 0u);

  // Heal the cluster: epochs must finish again, one per all-push round.
  for (WorkerId w = 0; w < m; ++w) {
    if (!up[w]) scheduler.OnWorkerUp(w, T(now));
  }
  const EpochId healed_epoch = scheduler.epoch();
  for (int round = 0; round < 3; ++round) {
    for (WorkerId w = 0; w < m; ++w) {
      now += 0.01;
      scheduler.HandleNotify(w, next_iter[w]++, T(now));
    }
  }
  EXPECT_GE(scheduler.epoch(), healed_epoch + 3);
}

// --- PushHistory::LastIteration ----------------------------------------------

TEST(PushHistoryFaultTest, LastIterationTracksMaxPerWorker) {
  PushHistory history(2);
  EXPECT_EQ(history.LastIteration(0), std::nullopt);
  history.RecordPush(0, 0, T(1.0));
  history.RecordPush(1, 5, T(2.0));
  history.RecordPush(0, 1, T(3.0));
  EXPECT_EQ(history.LastIteration(0), 1u);
  EXPECT_EQ(history.LastIteration(1), 5u);
}

TEST(PushHistoryFaultTest, LastIterationSurvivesTrim) {
  PushHistory history(1);
  history.RecordPush(0, 0, T(1.0));
  history.RecordPush(0, 1, T(2.0));
  history.Trim(T(100.0), Duration::Seconds(1.0));
  EXPECT_EQ(history.push_count(), 0u);
  EXPECT_EQ(history.LastIteration(0), 1u);
}

}  // namespace
}  // namespace specsync
