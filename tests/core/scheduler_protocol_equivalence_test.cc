// Sim <-> runtime protocol equivalence.
//
// The same SpecSyncScheduler runs under two dispatch disciplines:
//   - the discrete-event simulator (sim/cluster.cc): scripted events are
//     queued up front; a CheckRequest becomes ScheduleAfter(delay) and the
//     timer callback calls HandleCheckTimer at the virtual fire time;
//   - the runtime's worker threads (runtime/runtime_cluster.cc Poll): each
//     worker holds its own one pending check and fires it, as of its
//     deadline, at its first poll point after the deadline; its next notify
//     drops a check not yet due, and its exit drops the last one.
// This test drives the shared scheduler with one scripted notify/pull
// timeline through faithful replicas of both call sites and asserts the two
// engines produce the identical ordered abort decisions for every check
// both perform, and otherwise identical SchedulerStats — the "identical
// protocol logic under virtual and real time" claim in scheduler.h, checked
// end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/adaptive_tuner.h"
#include "core/scheduler.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace specsync {
namespace {

struct ScriptEvent {
  SimTime time;
  WorkerId worker = 0;
  bool is_pull = false;  // else notify
  IterationId iteration = 0;
};

// One abort decision, in the order the scheduler made it.
struct Decision {
  WorkerId worker = 0;
  std::uint64_t token = 0;
  double fire_seconds = 0.0;
  bool abort = false;

  bool operator==(const Decision& other) const {
    return worker == other.worker && token == other.token &&
           fire_seconds == other.fire_seconds && abort == other.abort;
  }
};

// Irregular but deterministic timeline: four workers, ten iterations each,
// spans varied so pushes cluster near round boundaries (provoking aborts)
// and all workers push every epoch (provoking retunes). Offsets are chosen
// so no two events or timer deadlines ever tie in floating point — ties are
// broken differently by the two dispatch disciplines and never occur in the
// real engines' continuous-time runs.
std::vector<ScriptEvent> BuildScript(std::size_t num_workers,
                                     std::size_t rounds) {
  std::vector<ScriptEvent> script;
  for (WorkerId w = 0; w < num_workers; ++w) {
    double t = 0.0131 * static_cast<double>(w + 1);
    for (std::size_t k = 0; k < rounds; ++k) {
      script.push_back({SimTime::FromSeconds(t), w, /*is_pull=*/true, k});
      const double span =
          0.9 + 0.13 * static_cast<double>(w) +
          0.041 * static_cast<double>((3 * k + 2 * w) % 5);
      t += span;
      script.push_back({SimTime::FromSeconds(t), w, /*is_pull=*/false, k});
      t += 0.0073 * static_cast<double>(w + 1);
    }
  }
  std::sort(script.begin(), script.end(),
            [](const ScriptEvent& a, const ScriptEvent& b) {
              return a.time < b.time;
            });
  return script;
}

SchedulerConfig TestConfig() {
  SchedulerConfig config;
  config.num_workers = 4;
  config.initial_params.abort_time = Duration::Seconds(0.37);
  config.initial_params.abort_rate = 0.3;
  config.default_span = Duration::Seconds(1.0);
  return config;
}

struct DriveResult {
  std::vector<Decision> decisions;
  SchedulerStats stats;
  SpeculationParams final_params;
};

// Driver A — the DES call site (sim/cluster.cc): all scripted events are
// pre-scheduled; HandleNotify's CheckRequest turns into ScheduleAfter(delay)
// whose callback runs HandleCheckTimer at sim.now().
DriveResult DriveWithSimulator(const std::vector<ScriptEvent>& script,
                               std::unique_ptr<SpeculationPolicy> policy,
                               obs::ObsContext* obs = nullptr) {
  Simulator sim;
  SpecSyncScheduler scheduler(TestConfig(), std::move(policy));
  scheduler.AttachObservability(obs);
  DriveResult out;
  for (const ScriptEvent& ev : script) {
    sim.ScheduleAt(ev.time, [&, ev] {
      if (ev.is_pull) {
        scheduler.HandlePull(ev.worker, sim.now());
        return;
      }
      auto request = scheduler.HandleNotify(ev.worker, ev.iteration, sim.now());
      if (!request.has_value()) return;
      sim.ScheduleAfter(request->delay,
                        [&, worker = ev.worker, token = request->token] {
                          Decision d;
                          d.worker = worker;
                          d.token = token;
                          d.fire_seconds = sim.now().seconds();
                          d.abort =
                              scheduler.HandleCheckTimer(worker, token, sim.now());
                          out.decisions.push_back(d);
                        });
    });
  }
  sim.Run();
  out.stats = scheduler.stats();
  out.final_params = scheduler.params();
  return out;
}

// Each worker's last scripted event: its last notify, after which a runtime
// worker exits.
std::vector<SimTime> LastEvents(const std::vector<ScriptEvent>& script) {
  std::vector<SimTime> last;
  for (const ScriptEvent& ev : script) {
    if (ev.worker >= last.size()) last.resize(ev.worker + 1);
    last[ev.worker] = std::max(last[ev.worker], ev.time);
  }
  return last;
}

// Driver B — the runtime call site (runtime_cluster.cc Poll): one pending
// check per worker, replaced by the check its next notify arms. A worker
// polls at every chunk boundary while it computes, so in the zero-jitter
// limit a check fires exactly at its deadline unless the worker's next
// notify comes first; the scripted timestamps stand in for the wall clock.
// The check a worker's last notify arms dies with the worker.
DriveResult DriveWithRuntimeWorkers(const std::vector<ScriptEvent>& script,
                                    std::unique_ptr<SpeculationPolicy> policy) {
  const std::vector<SimTime> last_event = LastEvents(script);
  struct PendingCheck {
    SimTime deadline;
    std::uint64_t token;
  };
  SpecSyncScheduler scheduler(TestConfig(), std::move(policy));
  std::vector<std::optional<PendingCheck>> pending(scheduler.num_workers());
  DriveResult out;

  // Fires every check due by `now`, earliest deadline first.
  auto fire_due = [&](SimTime now) {
    for (;;) {
      std::optional<WorkerId> next;
      for (WorkerId w = 0; w < pending.size(); ++w) {
        if (pending[w].has_value() && pending[w]->deadline <= now &&
            (!next.has_value() ||
             pending[w]->deadline < pending[*next]->deadline)) {
          next = w;
        }
      }
      if (!next.has_value()) return;
      const PendingCheck check = *pending[*next];
      pending[*next].reset();
      Decision d;
      d.worker = *next;
      d.token = check.token;
      d.fire_seconds = check.deadline.seconds();
      d.abort = scheduler.HandleCheckTimer(*next, check.token, check.deadline);
      out.decisions.push_back(d);
    }
  };

  for (const ScriptEvent& ev : script) {
    fire_due(ev.time);
    if (ev.is_pull) {
      scheduler.HandlePull(ev.worker, ev.time);
      continue;
    }
    auto request = scheduler.HandleNotify(ev.worker, ev.iteration, ev.time);
    if (ev.time == last_event[ev.worker]) {
      pending[ev.worker].reset();  // the worker exits
    } else if (request.has_value()) {
      pending[ev.worker] =
          PendingCheck{ev.time + request->delay, request->token};
    }
  }
  out.stats = scheduler.stats();
  out.final_params = scheduler.params();
  return out;
}

// The DES decisions a runtime worker also makes: all but those fired after
// the worker's last scripted event (the runtime worker has exited). The DES
// also fires superseded checks, stale, which the runtime drops unseen; the
// scripted spans outlast every window, so there are none (checked below).
std::vector<Decision> RuntimeVisible(const DriveResult& sim,
                                     const std::vector<ScriptEvent>& script) {
  const std::vector<SimTime> last_event = LastEvents(script);
  std::vector<Decision> visible;
  for (const Decision& d : sim.decisions) {
    if (d.fire_seconds <= last_event[d.worker].seconds()) visible.push_back(d);
  }
  return visible;
}

// Every statistic agrees; the check counts are those of the decisions both
// engines make.
void ExpectSameStats(const DriveResult& sim, const DriveResult& runtime,
                     const std::vector<Decision>& visible) {
  const SchedulerStats& a = sim.stats;
  const SchedulerStats& b = runtime.stats;
  EXPECT_EQ(a.stale_checks_skipped, 0u);
  EXPECT_EQ(b.stale_checks_skipped, 0u);
  EXPECT_EQ(b.checks_performed, visible.size());
  EXPECT_EQ(b.resyncs_issued,
            static_cast<std::uint64_t>(std::count_if(
                visible.begin(), visible.end(),
                [](const Decision& d) { return d.abort; })));
  EXPECT_EQ(a.notifies_received, b.notifies_received);
  EXPECT_EQ(a.retunes, b.retunes);
  EXPECT_EQ(a.duplicate_notifies, b.duplicate_notifies);
  EXPECT_EQ(a.late_checks, b.late_checks);
  EXPECT_EQ(a.lost_worker_epochs_unblocked, b.lost_worker_epochs_unblocked);
  EXPECT_EQ(a.worker_departures, b.worker_departures);
  EXPECT_EQ(a.worker_rejoins, b.worker_rejoins);
}

void ExpectSameDecisions(const std::vector<Decision>& visible,
                         const DriveResult& runtime) {
  ASSERT_EQ(visible.size(), runtime.decisions.size());
  for (std::size_t i = 0; i < visible.size(); ++i) {
    EXPECT_EQ(visible[i], runtime.decisions[i]) << "decision " << i;
  }
}

TEST(SchedulerProtocolEquivalenceTest, FixedPolicyDecisionsMatch) {
  const auto script = BuildScript(4, 10);
  auto make_policy = [] {
    SpeculationParams params;
    params.abort_time = Duration::Seconds(0.37);
    params.abort_rate = 0.3;
    return std::make_unique<FixedSpeculationPolicy>(params);
  };
  const DriveResult sim = DriveWithSimulator(script, make_policy());
  const DriveResult runtime = DriveWithRuntimeWorkers(script, make_policy());
  const std::vector<Decision> visible = RuntimeVisible(sim, script);

  // Non-vacuity: the timeline must exercise checks and at least one re-sync.
  EXPECT_GT(runtime.stats.checks_performed, 0u);
  EXPECT_GT(runtime.stats.resyncs_issued, 0u);
  EXPECT_GT(sim.stats.retunes, 0u);

  ExpectSameDecisions(visible, runtime);
  ExpectSameStats(sim, runtime, visible);
}

// The decision audit log must be a faithful transcript: one record per fired
// check timer, in fire order, carrying the exact inputs the decision used.
// Replays the fixed-policy scripted timeline and cross-checks every Decision
// against the corresponding CheckRecord.
TEST(SchedulerProtocolEquivalenceTest, AuditLogReproducesEveryDecision) {
  const auto script = BuildScript(4, 10);
  SpeculationParams params;
  params.abort_time = Duration::Seconds(0.37);
  params.abort_rate = 0.3;
  obs::ObsContext ctx;
  const DriveResult sim = DriveWithSimulator(
      script, std::make_unique<FixedSpeculationPolicy>(params), &ctx);

  EXPECT_GT(sim.stats.resyncs_issued, 0u);
  EXPECT_GT(sim.stats.checks_performed, sim.stats.resyncs_issued);

  const auto& records = ctx.audit.checks();
  ASSERT_EQ(records.size(), sim.decisions.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::CheckRecord& rec = records[i];
    const Decision& d = sim.decisions[i];
    EXPECT_EQ(rec.worker, d.worker) << "record " << i;
    EXPECT_EQ(rec.token, d.token) << "record " << i;
    EXPECT_EQ(rec.fired_at.seconds(), d.fire_seconds) << "record " << i;
    EXPECT_EQ(rec.outcome == obs::CheckOutcome::kResync, d.abort)
        << "record " << i;
    if (rec.outcome == obs::CheckOutcome::kStale) continue;
    // The fixed policy never retunes away from 0.37s / 0.3, and all four
    // workers stay active, so every decided check used the same inputs.
    // (abort_time is reconstructed as deadline - window_begin, so it matches
    // 0.37 only to rounding.)
    EXPECT_NEAR(rec.abort_time.seconds(), 0.37, 1e-12) << "record " << i;
    EXPECT_DOUBLE_EQ(rec.abort_rate, 0.3) << "record " << i;
    EXPECT_EQ(rec.active_workers, 4u) << "record " << i;
    EXPECT_DOUBLE_EQ(rec.threshold, 4.0 * 0.3) << "record " << i;
    // The recorded evidence implies the recorded outcome.
    EXPECT_EQ(static_cast<double>(rec.pushes_seen) >= rec.threshold, d.abort)
        << "record " << i;
    // Timers fire exactly at the armed deadline in the zero-jitter sim.
    EXPECT_EQ(rec.fired_at.seconds(), rec.armed_deadline.seconds())
        << "record " << i;
    EXPECT_EQ(rec.window_end.seconds(), rec.armed_deadline.seconds())
        << "record " << i;
    EXPECT_FALSE(rec.late) << "record " << i;
  }

  // Outcome tallies reconcile with the scheduler's own statistics.
  std::uint64_t stale = 0, resync = 0, keep = 0;
  for (const obs::CheckRecord& rec : records) {
    switch (rec.outcome) {
      case obs::CheckOutcome::kStale: ++stale; break;
      case obs::CheckOutcome::kResync: ++resync; break;
      case obs::CheckOutcome::kKeep: ++keep; break;
    }
  }
  EXPECT_EQ(stale, sim.stats.stale_checks_skipped);
  EXPECT_EQ(resync, sim.stats.resyncs_issued);
  EXPECT_EQ(keep + resync, sim.stats.checks_performed);
  EXPECT_EQ(ctx.audit.retunes().size(), sim.stats.retunes);
}

TEST(SchedulerProtocolEquivalenceTest, AdaptiveTunerDecisionsMatch) {
  const auto script = BuildScript(4, 10);
  const DriveResult sim =
      DriveWithSimulator(script, std::make_unique<AdaptiveTuner>());
  const DriveResult runtime =
      DriveWithRuntimeWorkers(script, std::make_unique<AdaptiveTuner>());
  const std::vector<Decision> visible = RuntimeVisible(sim, script);

  EXPECT_GT(runtime.stats.checks_performed, 0u);
  EXPECT_GT(sim.stats.retunes, 0u);

  ExpectSameDecisions(visible, runtime);
  ExpectSameStats(sim, runtime, visible);
  // Retuned hyperparameters must also agree — the tuner saw the same epochs.
  EXPECT_EQ(sim.final_params.abort_time.seconds(),
            runtime.final_params.abort_time.seconds());
  EXPECT_EQ(sim.final_params.abort_rate, runtime.final_params.abort_rate);
}

}  // namespace
}  // namespace specsync
