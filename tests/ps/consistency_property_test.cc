// Property-based consistency-controller harness.
//
// Each trial generates a random push/start schedule (a flat op list:
// worker steps with per-push shard masks and time deltas, plus crash /
// rejoin events), replays it against what MakeConsistencyController builds
// for the scheme under test, and checks every admission decision against an
// independently written reference model of the documented semantics:
//
//  * safety          — the controller never admits an iteration the bound
//                      forbids (decisions are checked exactly, so spurious
//                      blocks are caught too, not just unsafe admits);
//  * liveness        — after the schedule, a round-robin drain completes:
//                      no reachable state wedges the gate;
//  * gate equivalence— the worker protocol's gate (what both engines
//                      call), driven single-threaded, makes bit-identical
//                      decisions to the bare controller.
//
// On failure the harness shrinks the op list to a minimal counterexample
// (greedy ddmin: drop chunks, halve the chunk) and prints it. A controller
// with a deliberately planted off-by-one staleness bound must be caught and
// shrunk to a hand-checkable handful of ops — that test doubles as a check
// that the harness itself has teeth.
//
// Schedules are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "data/synthetic.h"
#include "fault/fault_plan.h"
#include "models/softmax_regression.h"
#include "protocol/worker_protocol.h"
#include "ps/consistency.h"
#include "support/property.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() { return PropertySeed(20260808); }

// --- schedules ---------------------------------------------------------------

enum class OpKind { kStep, kCrash, kRejoin };

// One schedule event. kStep advances `worker`'s two-stage state machine: if
// idle, ask to start the next iteration (a denial is a no-op, which keeps
// every op list executable and makes shrinking well-defined); if started,
// push. `shard_mask` picks the shards the push touches (bit s = shard s;
// 0 = dense, every shard) so replay is deterministic under shrinking.
struct Op {
  OpKind kind = OpKind::kStep;
  WorkerId worker = 0;
  std::uint32_t shard_mask = 0;
  double delta_ms = 1.0;  // virtual time elapsing before this op
};

struct Schedule {
  std::size_t num_workers = 2;
  std::size_t num_shards = 1;
  std::uint64_t staleness = 0;
  std::uint64_t target_iterations = 3;  // per worker, for the drain phase
  std::vector<Op> ops;
};

Schedule GenerateSchedule(std::uint64_t seed, bool with_crashes) {
  Rng rng(seed);
  Schedule s;
  s.num_workers = 2 + rng.Index(4);       // 2..5
  s.num_shards = 1 + rng.Index(4);        // 1..4
  s.staleness = rng.Index(4);             // 0..3
  s.target_iterations = 2 + rng.Index(5); // 2..6
  const std::size_t len = 20 + rng.Index(101);  // 20..120 ops
  s.ops.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    Op op;
    op.worker = static_cast<WorkerId>(rng.Index(s.num_workers));
    op.delta_ms = 1.0 + static_cast<double>(rng.Index(50));
    const std::size_t roll = rng.Index(100);
    if (with_crashes && roll < 5) {
      op.kind = OpKind::kCrash;
    } else if (with_crashes && roll < 10) {
      op.kind = OpKind::kRejoin;
    } else {
      op.kind = OpKind::kStep;
      // Half the pushes are dense (mask 0), half touch a random non-empty
      // shard subset — exercising both the degenerate-to-SSP case and real
      // per-shard write sets in every schedule mix.
      if (rng.Index(2) == 1) {
        op.shard_mask = static_cast<std::uint32_t>(
            1 + rng.Index((1u << s.num_shards) - 1));
      }
    }
    s.ops.push_back(op);
  }
  return s;
}

std::string FormatOps(const Schedule& s) {
  std::ostringstream out;
  out << "workers=" << s.num_workers << " shards=" << s.num_shards
      << " staleness=" << s.staleness << " iters=" << s.target_iterations
      << " ops:";
  for (const Op& op : s.ops) {
    out << ' ';
    switch (op.kind) {
      case OpKind::kStep:
        out << 'W' << op.worker;
        if (op.shard_mask != 0) out << "/m" << op.shard_mask;
        break;
      case OpKind::kCrash:
        out << 'C' << op.worker;
        break;
      case OpKind::kRejoin:
        out << 'R' << op.worker;
        break;
    }
  }
  return out.str();
}

// --- reference model ---------------------------------------------------------

// Independent implementation of the documented controller semantics (see
// ps/consistency.h). Deliberately written as transparent nested loops; it
// shares no code with the controllers it judges.
struct RefModel {
  // kScalar: global SSP — min completed count over the live workers (BSP
  // and SSP). kPerShard: per-(worker, shard) clocks over live writers,
  // learned write sets. kAsp: always admit.
  enum class Kind { kAsp, kScalar, kPerShard };
  Kind kind;
  std::size_t num_workers;
  std::size_t num_shards;

  std::vector<std::uint64_t> completed;
  std::vector<std::vector<std::uint64_t>> clock;  // [worker][shard]
  std::vector<std::vector<char>> writes;          // [worker][shard]
  std::vector<char> live;

  RefModel(Kind kind_in, std::size_t workers, std::size_t shards)
      : kind(kind_in),
        num_workers(workers),
        num_shards(shards),
        completed(workers, 0),
        clock(workers, std::vector<std::uint64_t>(shards, 0)),
        writes(workers, std::vector<char>(shards, 0)),
        live(workers, 1) {}

  bool Admissible(WorkerId w, IterationId t, std::uint64_t bound) const {
    if (kind == Kind::kAsp) return true;
    if (kind == Kind::kScalar) {
      // The asking worker is live, so the min is over a non-empty set.
      std::optional<std::uint64_t> min;
      for (std::size_t i = 0; i < num_workers; ++i) {
        if (!live[i]) continue;
        min = min.has_value() ? std::min(*min, completed[i]) : completed[i];
      }
      return t <= *min + bound;
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (!writes[w][s]) continue;
      std::optional<std::uint64_t> min;
      for (std::size_t i = 0; i < num_workers; ++i) {
        if (!live[i] || !writes[i][s]) continue;
        min = min.has_value() ? std::min(*min, clock[i][s]) : clock[i][s];
      }
      if (min.has_value() && t > *min + bound) return false;
    }
    return true;  // empty write set (or unwritten shards) gates nothing
  }

  void OnPush(WorkerId w, std::uint32_t shard_mask) {
    ++completed[w];
    if (kind != Kind::kPerShard) return;
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (shard_mask == 0 || (shard_mask >> s) & 1u) writes[w][s] = 1;
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (writes[w][s]) clock[w][s] = completed[w];
    }
  }
};

// --- execution ---------------------------------------------------------------

enum class Verdict { kOk, kDecisionMismatch, kLiveness };

struct RunOutcome {
  Verdict verdict = Verdict::kOk;
  std::string detail;
  std::uint64_t starts = 0;
  std::uint64_t denials = 0;
};

struct Subject {
  // Null under ASP: no gate, every start admitted (what both engines do).
  std::unique_ptr<PerShardSspController> controller;
  RefModel::Kind ref_kind;
  // Reads the bound in force before each decision (DSSP retunes between
  // pushes; the reference is parametric in the current bound).
  std::function<std::uint64_t(const PerShardSspController*)> bound;
};

using SubjectFactory = std::function<Subject(const Schedule&)>;

std::vector<std::size_t> MaskToShards(std::uint32_t mask,
                                      std::size_t num_shards) {
  std::vector<std::size_t> shards;
  if (mask == 0) return shards;  // empty span = dense, by convention
  for (std::size_t s = 0; s < num_shards; ++s) {
    if ((mask >> s) & 1u) shards.push_back(s);
  }
  return shards;
}

RunOutcome RunSchedule(const Schedule& schedule, const SubjectFactory& make) {
  Subject subject = make(schedule);
  PerShardSspController* controller = subject.controller.get();
  const auto may_start = [&](WorkerId w, IterationId t) {
    return controller == nullptr || controller->MayStart(w, t);
  };
  RefModel ref(subject.ref_kind, schedule.num_workers, schedule.num_shards);
  std::vector<char> started(schedule.num_workers, 0);
  RunOutcome out;
  SimTime now = SimTime::Zero();

  const auto mismatch = [&](std::size_t op_index, WorkerId w, IterationId t,
                            bool got, bool want, std::uint64_t bound) {
    std::ostringstream msg;
    msg << "op " << op_index << ": worker " << w << " start of iteration "
        << t << " — controller says " << (got ? "admit" : "block")
        << ", reference (bound " << bound << ") says "
        << (want ? "admit" : "block");
    out.verdict = Verdict::kDecisionMismatch;
    out.detail = msg.str();
  };

  for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
    const Op& op = schedule.ops[i];
    now = now + Duration::Milliseconds(op.delta_ms);
    const WorkerId w = op.worker;
    switch (op.kind) {
      case OpKind::kCrash:
        if (!ref.live[w]) break;
        ref.live[w] = 0;
        started[w] = 0;  // mid-iteration work dies with the worker
        if (controller) controller->OnWorkerDown(w);
        break;
      case OpKind::kRejoin:
        if (ref.live[w]) break;
        ref.live[w] = 1;
        if (controller) controller->OnWorkerUp(w);
        break;
      case OpKind::kStep: {
        if (!ref.live[w]) break;
        if (!started[w]) {
          const IterationId t = ref.completed[w];
          const std::uint64_t bound = subject.bound(controller);
          const bool got = may_start(w, t);
          const bool want = ref.Admissible(w, t, bound);
          if (got != want) {
            mismatch(i, w, t, got, want, bound);
            return out;
          }
          if (got) {
            started[w] = 1;
            ++out.starts;
          } else {
            ++out.denials;
          }
        } else {
          const IterationId t = ref.completed[w];
          const auto touched = MaskToShards(op.shard_mask,
                                            schedule.num_shards);
          if (controller) controller->OnPush(w, t, now, touched);
          ref.OnPush(w, op.shard_mask);
          started[w] = 0;
        }
        break;
      }
    }
  }

  // Liveness drain: round-robin every live worker to `target_iterations`
  // (dense pushes). A full pass with no progress while work remains means
  // the gate wedged — with a correct controller the least-progressed live
  // worker is always admissible, so this must always complete.
  for (;;) {
    bool all_done = true;
    bool progressed = false;
    for (WorkerId w = 0; w < schedule.num_workers; ++w) {
      if (!ref.live[w]) continue;
      if (ref.completed[w] >= schedule.target_iterations && !started[w]) {
        continue;
      }
      all_done = false;
      const IterationId t = ref.completed[w];
      now = now + Duration::Milliseconds(1.0);
      if (!started[w]) {
        const std::uint64_t bound = subject.bound(controller);
        const bool got = may_start(w, t);
        const bool want = ref.Admissible(w, t, bound);
        if (got != want) {
          mismatch(schedule.ops.size(), w, t, got, want, bound);
          return out;
        }
        if (!got) continue;
        started[w] = 1;
      } else {
        if (controller) controller->OnPush(w, t, now, {});
        ref.OnPush(w, 0);
        started[w] = 0;
      }
      progressed = true;
    }
    if (all_done) break;
    if (!progressed) {
      out.verdict = Verdict::kLiveness;
      out.detail = "drain wedged: no live worker admissible";
      return out;
    }
  }
  return out;
}

// --- shrinking ---------------------------------------------------------------

// Greedy ddmin: repeatedly delete the largest op chunk that preserves the
// failure, halving the chunk until single ops survive. The result is
// 1-minimal: removing any single remaining op loses the failure.
Schedule Shrink(Schedule schedule, const SubjectFactory& make,
                Verdict failure) {
  const auto still_fails = [&](const Schedule& candidate) {
    return RunSchedule(candidate, make).verdict == failure;
  };
  std::size_t chunk = std::max<std::size_t>(1, schedule.ops.size() / 2);
  for (;;) {
    bool removed_any = false;
    std::size_t offset = 0;
    while (offset < schedule.ops.size()) {
      Schedule candidate = schedule;
      const std::size_t end =
          std::min(offset + chunk, candidate.ops.size());
      candidate.ops.erase(candidate.ops.begin() + offset,
                          candidate.ops.begin() + end);
      if (still_fails(candidate)) {
        schedule = std::move(candidate);
        removed_any = true;
        // Re-test the same offset: the next chunk slid into place.
      } else {
        offset += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed_any) break;  // 1-minimal: no single op is removable
    } else {
      chunk /= 2;
    }
  }
  return schedule;
}

// --- subjects ----------------------------------------------------------------

Subject FactorySubject(ConsistencySpec spec, const Schedule& s,
                       RefModel::Kind ref_kind) {
  return {MakeConsistencyController(spec, s.num_workers, s.num_shards),
          ref_kind, [](const PerShardSspController* c) {
            return c->staleness();
          }};
}

Subject AspSubject(const Schedule& s) {
  Subject subject = FactorySubject({}, s, RefModel::Kind::kAsp);
  subject.bound = [](const PerShardSspController*) { return std::uint64_t{0}; };
  return subject;
}

// The static schemes are judged against the bound they were asked for, not
// the one the controller reports.
Subject BspSubject(const Schedule& s) {
  ConsistencySpec spec;
  spec.scheme = ConsistencyScheme::kBsp;
  Subject subject = FactorySubject(spec, s, RefModel::Kind::kScalar);
  subject.bound = [](const PerShardSspController*) { return std::uint64_t{0}; };
  return subject;
}

Subject SspSubject(const Schedule& s) {
  ConsistencySpec spec;
  spec.scheme = ConsistencyScheme::kSsp;
  spec.staleness = s.staleness;
  Subject subject = FactorySubject(spec, s, RefModel::Kind::kScalar);
  subject.bound = [bound = s.staleness](const PerShardSspController*) {
    return bound;
  };
  return subject;
}

Subject PerShardSubject(const Schedule& s) {
  ConsistencySpec spec;
  spec.scheme = ConsistencyScheme::kPssp;
  spec.staleness = s.staleness;
  return FactorySubject(spec, s, RefModel::Kind::kPerShard);
}

Subject DynamicSubject(const Schedule& s) {
  ConsistencySpec spec;
  spec.scheme = ConsistencyScheme::kDssp;
  spec.dssp.initial_staleness = s.staleness;
  return FactorySubject(spec, s, RefModel::Kind::kPerShard);
}

// The planted bug: dense SSP that admits one iteration past the bound
// (t <= min + s + 1). The harness must catch it and shrink the witness to a
// few ops.
class OffByOneSspController final : public PerShardSspController {
 public:
  using PerShardSspController::PerShardSspController;
  bool MayStart(WorkerId worker, IterationId next_iteration) const override {
    return next_iteration == 0 ||
           PerShardSspController::MayStart(worker, next_iteration - 1);
  }
};

Subject BrokenSubject(const Schedule& s) {
  auto broken = std::make_unique<OffByOneSspController>(
      s.num_workers, s.num_shards, s.staleness);
  std::vector<std::size_t> all(s.num_shards);
  for (std::size_t shard = 0; shard < s.num_shards; ++shard) all[shard] = shard;
  for (WorkerId w = 0; w < s.num_workers; ++w) broken->SetWriteSet(w, all);
  return {std::move(broken), RefModel::Kind::kScalar,
          [bound = s.staleness](const PerShardSspController*) {
            return bound;
          }};
}

// --- the property ------------------------------------------------------------

constexpr std::size_t kTrials = 1000;

void CheckController(const SubjectFactory& make, bool with_crashes,
                     const char* label) {
  const std::uint64_t base = BaseSeed();
  std::uint64_t total_starts = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = base + trial;
    const Schedule schedule = GenerateSchedule(seed, with_crashes);
    const RunOutcome outcome = RunSchedule(schedule, make);
    total_starts += outcome.starts;
    if (outcome.verdict == Verdict::kOk) continue;
    const Schedule minimal = Shrink(schedule, make, outcome.verdict);
    const RunOutcome shrunk = RunSchedule(minimal, make);
    FAIL() << label << " seed " << seed << ": " << outcome.detail
           << "\nminimal counterexample (" << minimal.ops.size()
           << " ops): " << FormatOps(minimal) << "\nshrunk failure: "
           << shrunk.detail;
  }
  // A harness that never denies anything is not exercising the bound.
  // (ASP legitimately never blocks; everything else must, across 1000
  // random schedules.)
  SCOPED_TRACE(label);
  EXPECT_GT(total_starts, 0u);
}

TEST(ConsistencyPropertyTest, AspMatchesReferenceOnRandomSchedules) {
  CheckController(AspSubject, true, "ASP");
}

// BSP and SSP run on the same crash-aware controller as PSSP, so they are
// checked under the same churn.
TEST(ConsistencyPropertyTest, BspMatchesReferenceOnRandomSchedules) {
  CheckController(BspSubject, true, "BSP");
}

TEST(ConsistencyPropertyTest, SspMatchesReferenceOnRandomSchedules) {
  CheckController(SspSubject, true, "SSP");
}

TEST(ConsistencyPropertyTest, PerShardSspMatchesReferenceUnderChurn) {
  CheckController(PerShardSubject, true, "PSSP");
}

TEST(ConsistencyPropertyTest, DynamicSspMatchesReferenceUnderChurn) {
  CheckController(DynamicSubject, true, "DSSP");
}

TEST(ConsistencyPropertyTest, StaticControllersDoBlock) {
  // Sanity on harness teeth: across the trial corpus, SSP-family schedules
  // must include genuine denials (otherwise every safety check is vacuous).
  const std::uint64_t base = BaseSeed();
  std::uint64_t denials = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const Schedule schedule = GenerateSchedule(base + trial, false);
    denials += RunSchedule(schedule, BspSubject).denials;
  }
  EXPECT_GT(denials, 0u);
}

TEST(ConsistencyPropertyTest, PlantedOffByOneIsCaughtAndShrunk) {
  const std::uint64_t base = BaseSeed();
  bool caught = false;
  for (std::size_t trial = 0; trial < kTrials && !caught; ++trial) {
    const std::uint64_t seed = base + trial;
    const Schedule schedule = GenerateSchedule(seed, false);
    const RunOutcome outcome = RunSchedule(schedule, BrokenSubject);
    if (outcome.verdict != Verdict::kDecisionMismatch) continue;
    caught = true;
    const Schedule minimal = Shrink(schedule, BrokenSubject, outcome.verdict);
    // The smallest witness of "admits min + s + 1": one worker runs s + 1
    // iterations ahead (2 ops each: start + push), then one more start
    // attempt exposes the over-admission. ddmin must land on it (or an
    // equally small equivalent); anything bigger means shrinking regressed.
    EXPECT_LE(minimal.ops.size(), 2 * (minimal.staleness + 1) + 1)
        << FormatOps(minimal);
    EXPECT_EQ(RunSchedule(minimal, BrokenSubject).verdict,
              Verdict::kDecisionMismatch);
    // 1-minimality: every single remaining op is load-bearing.
    for (std::size_t i = 0; i < minimal.ops.size(); ++i) {
      Schedule pruned = minimal;
      pruned.ops.erase(pruned.ops.begin() + i);
      EXPECT_NE(RunSchedule(pruned, BrokenSubject).verdict,
                Verdict::kDecisionMismatch)
          << "op " << i << " of the minimal counterexample is removable";
    }
  }
  EXPECT_TRUE(caught)
      << "1000 random schedules never exposed the planted off-by-one";
}

// Both engines reach the controller only through the worker protocol, which
// locks it and adds liveness and the blocked-time account. Driven from one
// thread, its admissions (and DSSP's retune count) must be bit-identical to
// the bare controller's. The threaded path is hammered in
// consistency_hammer_test.
TEST(ConsistencyPropertyTest, GateDecisionsMatchBareController) {
  // The protocol builds a store; any model with a parameter per shard will
  // do, since nothing is pushed to it here.
  Rng data_rng(1);
  ClassificationSpec data_spec;
  data_spec.num_examples = 16;
  data_spec.feature_dim = 4;
  data_spec.num_classes = 2;
  const auto model = std::make_shared<SoftmaxRegressionModel>(
      std::make_shared<ClassificationDataset>(
          GenerateClassification(data_spec, data_rng)),
      SoftmaxRegressionConfig{});
  const auto rate = std::make_shared<ConstantSchedule>(0.1);
  const std::uint64_t base = BaseSeed() ^ 0x9A7Eu;
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const Schedule schedule = GenerateSchedule(base + trial, true);
    DynamicSspConfig config;
    config.initial_staleness = schedule.staleness;
    auto bare = std::make_unique<DynamicSspController>(
        schedule.num_workers, schedule.num_shards, config);
    DynamicSspController* bare_view = bare.get();
    FaultPlan faults{FaultPlanConfig{}};
    WorkerProtocolConfig protocol_config;
    protocol_config.num_workers = schedule.num_workers;
    protocol_config.num_servers = schedule.num_shards;
    protocol_config.scheme = SchemeSpec::DynamicSsp(config);
    WorkerProtocol protocol(model, rate, protocol_config, faults, Rng(trial));
    const auto* gated_view =
        dynamic_cast<const DynamicSspController*>(protocol.controller());
    ASSERT_NE(gated_view, nullptr);

    std::vector<std::uint64_t> completed(schedule.num_workers, 0);
    std::vector<char> started(schedule.num_workers, 0);
    std::vector<char> live(schedule.num_workers, 1);
    SimTime now = SimTime::Zero();
    for (const Op& op : schedule.ops) {
      now = now + Duration::Milliseconds(op.delta_ms);
      const WorkerId w = op.worker;
      switch (op.kind) {
        case OpKind::kCrash:
          if (!live[w]) break;
          live[w] = 0;
          started[w] = 0;
          bare_view->OnWorkerDown(w);
          protocol.Crash(w, now);
          break;
        case OpKind::kRejoin:
          if (live[w]) break;
          live[w] = 1;
          bare_view->OnWorkerUp(w);
          protocol.Rejoin(w);
          break;
        case OpKind::kStep: {
          if (!live[w]) break;
          if (!started[w]) {
            const bool bare_may = bare_view->MayStart(w, completed[w]);
            ASSERT_EQ(bare_may, protocol.Admit(w, now))
                << "trial " << trial << " worker " << w << " iteration "
                << completed[w];
            started[w] = bare_may ? 1 : 0;
          } else {
            const auto touched =
                MaskToShards(op.shard_mask, schedule.num_shards);
            bare_view->OnPush(w, completed[w], now, touched);
            ASSERT_EQ(protocol.Commit(w, now, touched, /*landed=*/true),
                      completed[w]);
            ++completed[w];
            started[w] = 0;
          }
          break;
        }
      }
      ASSERT_EQ(bare_view->staleness(), gated_view->staleness());
      ASSERT_EQ(bare_view->retunes(), gated_view->retunes());
    }
  }
}

}  // namespace
}  // namespace specsync
