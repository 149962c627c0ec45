// Direct unit coverage for the consistency-controller family: the exact SSP
// admission boundary (table-driven — this pins the semantics the header
// documents), per-shard gating (write sets, clocks, crash excusal), and the
// dynamic staleness retune rule with its audit trail. Randomized-schedule
// coverage lives in consistency_property_test.cc.

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "obs/audit_log.h"
#include "ps/consistency.h"

namespace specsync {
namespace {

SimTime Ms(double ms) { return SimTime::FromSeconds(ms / 1000.0); }

// A push whose routing is unknown: it counts as touching every shard.
void Dense(PerShardSspController& c, WorkerId w, IterationId t) {
  c.OnPush(w, t, SimTime::Zero(), {});
}

std::unique_ptr<PerShardSspController> DenseSsp(std::size_t workers,
                                                std::uint64_t staleness) {
  ConsistencySpec spec;
  spec.scheme = ConsistencyScheme::kSsp;
  spec.staleness = staleness;
  return MakeConsistencyController(spec, workers, /*num_shards=*/2);
}

// --- the SSP boundary, row by row -------------------------------------------

TEST(SspBoundaryTest, AdmissionTableMatchesDocumentedSemantics) {
  // A worker may start iteration t (0-based) iff t <= c + s, where c is the
  // slowest worker's completed count. Each row drives worker 0 to `t`
  // completed iterations and worker 1 to `slowest` (so c == slowest), then
  // asks about iteration t.
  struct Row {
    std::uint64_t staleness;
    std::uint64_t t;        // iteration worker 0 wants to start
    std::uint64_t slowest;  // worker 1's completed count (<= t)
    bool allowed;
  };
  const Row rows[] = {
      // s = 0 (BSP): lockstep.
      {0, 0, 0, true},   // first iteration is always admissible
      {0, 1, 0, false},  // t = min + s + 1: first blocked case
      {0, 1, 1, true},   // everyone pushed 0 -> 1 may start
      {0, 2, 1, false},
      // s = 1: one iteration of slack.
      {1, 1, 0, true},
      {1, 2, 0, false},  // t - s - 1 = 0 not yet pushed by the slowest
      {1, 2, 1, true},
      // s = 2.
      {2, 2, 0, true},
      {2, 3, 0, false},
      {2, 3, 1, true},
      // s = 3.
      {3, 3, 0, true},
      {3, 4, 0, false},
  };
  for (const Row& row : rows) {
    auto ssp = DenseSsp(2, row.staleness);
    for (std::uint64_t i = 0; i < row.t; ++i) Dense(*ssp, 0, i);
    for (std::uint64_t i = 0; i < row.slowest; ++i) Dense(*ssp, 1, i);
    ASSERT_EQ(ssp->MinShardClock(0), row.slowest);
    EXPECT_EQ(ssp->MayStart(0, row.t), row.allowed)
        << "s=" << row.staleness << " t=" << row.t
        << " slowest=" << row.slowest;
  }
}

TEST(SspBoundaryTest, ObservedSkewCanReachStalenessPlusOne) {
  // The admitted-at-the-boundary worker finishes its iteration while the
  // slowest still sits at c: completed-count skew s + 1 is reachable, and
  // exactly s + 1 (the next start is denied).
  constexpr std::uint64_t kStaleness = 2;
  auto ssp = DenseSsp(2, kStaleness);
  for (std::uint64_t i = 0; i <= kStaleness; ++i) {
    ASSERT_TRUE(ssp->MayStart(0, i));
    Dense(*ssp, 0, i);
  }
  EXPECT_EQ(ssp->MinShardClock(0), 0u);  // worker 1 never pushed
  EXPECT_FALSE(ssp->MayStart(0, kStaleness + 1));
}

// --- per-shard SSP -----------------------------------------------------------

TEST(PerShardSspTest, DisjointWriteSetsNeverGateEachOther) {
  // Worker 0 writes shard 0 only, worker 1 writes shard 1 only: under a
  // global bound of 0 they would run in lockstep; per-shard they are
  // independent.
  PerShardSspController pssp(2, 2, 0);
  pssp.SetWriteSet(0, {0});
  pssp.SetWriteSet(1, {1});
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(pssp.MayStart(0, i)) << "iteration " << i;
    Dense(pssp, 0, i);
  }
  EXPECT_EQ(pssp.completed(0), 10u);
  EXPECT_EQ(pssp.completed(1), 0u);
  EXPECT_TRUE(pssp.MayStart(1, 0));
}

TEST(PerShardSspTest, SharedShardEnforcesTheBound) {
  PerShardSspController pssp(2, 2, 1);
  pssp.SetWriteSet(0, {0, 1});
  pssp.SetWriteSet(1, {1});
  // Worker 0 is gated on shard 1 (shared with worker 1) once it runs more
  // than s = 1 ahead of worker 1's clock there.
  ASSERT_TRUE(pssp.MayStart(0, 0));
  Dense(pssp, 0, 0);
  ASSERT_TRUE(pssp.MayStart(0, 1));
  Dense(pssp, 0, 1);
  EXPECT_FALSE(pssp.MayStart(0, 2));
  EXPECT_EQ(pssp.FirstBlockingShard(0, 2), std::optional<std::size_t>(1));
  Dense(pssp, 1, 0);
  EXPECT_TRUE(pssp.MayStart(0, 2));
  EXPECT_EQ(pssp.FirstBlockingShard(0, 2), std::nullopt);
}

TEST(PerShardSspTest, DeclaredDenseWriteSetsDegenerateToGlobalSsp) {
  constexpr std::uint64_t kStaleness = 2;
  PerShardSspController pssp(3, 4, kStaleness);
  // With every write set declared as all shards, each worker's shard clocks
  // equal its completed count from the start — including workers that have
  // not pushed yet, which learned sets would leave out of the min. Decisions
  // must then match global SSP (t <= min completed + s) at every probe.
  for (WorkerId w = 0; w < 3; ++w) pssp.SetWriteSet(w, {0, 1, 2, 3});
  const WorkerId pushers[] = {0, 0, 1, 0, 2, 1, 0, 2};
  std::uint64_t completed[3] = {0, 0, 0};
  const auto global_ssp = [&](WorkerId w) {
    const std::uint64_t slowest =
        std::min({completed[0], completed[1], completed[2]});
    return completed[w] <= slowest + kStaleness;
  };
  for (WorkerId w : pushers) {
    for (WorkerId probe = 0; probe < 3; ++probe) {
      ASSERT_EQ(pssp.MayStart(probe, completed[probe]), global_ssp(probe));
    }
    if (!global_ssp(w)) continue;
    Dense(pssp, w, completed[w]);
    ++completed[w];
  }
}

TEST(PerShardSspTest, WriteSetsAreLearnedFromPushes) {
  PerShardSspController pssp(2, 3, 0);
  EXPECT_FALSE(pssp.writes(0, 0));
  // An un-learned worker is ungated (its write set is empty).
  EXPECT_TRUE(pssp.MayStart(0, 5));

  const std::vector<std::size_t> first = {1};
  pssp.OnPush(0, 0, Ms(1), first);
  EXPECT_FALSE(pssp.writes(0, 0));
  EXPECT_TRUE(pssp.writes(0, 1));
  EXPECT_EQ(pssp.clock(0, 1), 1u);

  // Learning only grows the set; a later push touching shard 2 adds it and
  // the whole set's clocks advance together.
  const std::vector<std::size_t> second = {2};
  pssp.OnPush(0, 1, Ms(2), second);
  EXPECT_TRUE(pssp.writes(0, 1));
  EXPECT_TRUE(pssp.writes(0, 2));
  EXPECT_EQ(pssp.clock(0, 1), 2u);
  EXPECT_EQ(pssp.clock(0, 2), 2u);

  // Empty touched set = dense.
  pssp.OnPush(0, 2, Ms(3), {});
  EXPECT_TRUE(pssp.writes(0, 0));
  EXPECT_EQ(pssp.clock(0, 0), 3u);
}

TEST(PerShardSspTest, CrashExcusesAndRejoinReinstates) {
  PerShardSspController pssp(2, 1, 0);
  Dense(pssp, 0, 0);  // both learn dense sets
  Dense(pssp, 1, 0);
  Dense(pssp, 0, 1);
  EXPECT_FALSE(pssp.MayStart(0, 2));  // worker 1 sits at 1
  pssp.OnWorkerDown(1);
  EXPECT_FALSE(pssp.live(1));
  EXPECT_TRUE(pssp.MayStart(0, 2));  // the corpse no longer pins the min
  pssp.OnWorkerUp(1);
  EXPECT_FALSE(pssp.MayStart(0, 2));  // back at its old clock: bound holds
  EXPECT_EQ(pssp.MinShardClock(0), std::optional<std::uint64_t>(1));
}

TEST(PerShardSspTest, OutOfOrderPushThrows) {
  PerShardSspController pssp(2, 2, 1);
  Dense(pssp, 0, 0);
  EXPECT_THROW(Dense(pssp, 0, 0), CheckError);  // duplicate
  EXPECT_THROW(Dense(pssp, 1, 3), CheckError);  // skipped ahead
}

// --- dynamic SSP -------------------------------------------------------------

DynamicSspConfig UnsmoothedConfig() {
  DynamicSspConfig config;
  config.initial_staleness = 0;
  config.min_staleness = 0;
  config.max_staleness = 8;
  config.ewma = 1.0;  // no smoothing: the epoch ratio is the ratio
  config.headroom = 1.0;
  return config;
}

// Drives two epochs of a 4x straggler: worker 0 pushes every 10 ms, worker 1
// every 40 ms. The first epoch evaluation (at worker 1's first push) has only
// one measured worker, so the bound holds; the second has both and retunes to
// ceil(4 - 1) = 3.
void DriveTwoEpochs(DynamicSspController& d) {
  d.OnPush(0, 0, Ms(10), {});
  d.OnPush(0, 1, Ms(20), {});
  d.OnPush(0, 2, Ms(30), {});
  d.OnPush(0, 3, Ms(40), {});
  d.OnPush(1, 0, Ms(40), {});
  ASSERT_EQ(d.retunes(), 0u);
  ASSERT_EQ(d.staleness(), 0u);
  d.OnPush(0, 4, Ms(50), {});
  d.OnPush(0, 5, Ms(60), {});
  d.OnPush(0, 6, Ms(70), {});
  d.OnPush(0, 7, Ms(80), {});
  d.OnPush(1, 1, Ms(80), {});
}

TEST(DynamicSspTest, RetunesBoundFromStragglerRatio) {
  DynamicSspController d(2, 1, UnsmoothedConfig());
  DriveTwoEpochs(d);
  EXPECT_EQ(d.retunes(), 1u);
  EXPECT_EQ(d.staleness(), 3u);  // ceil(1.0 * (4 - 1))
  EXPECT_DOUBLE_EQ(d.smoothed_ratio(), 4.0);
}

TEST(DynamicSspTest, BoundIsClampedToConfiguredRange) {
  DynamicSspConfig config = UnsmoothedConfig();
  config.max_staleness = 2;
  DynamicSspController d(2, 1, config);
  DriveTwoEpochs(d);
  EXPECT_EQ(d.staleness(), 2u);  // would be 3, clamped
}

TEST(DynamicSspTest, EqualSpeedsNeverRetune) {
  DynamicSspController d(2, 1, UnsmoothedConfig());
  for (std::uint64_t i = 0; i < 6; ++i) {
    d.OnPush(0, i, Ms(10.0 * static_cast<double>(i + 1)), {});
    d.OnPush(1, i, Ms(10.0 * static_cast<double>(i + 1)), {});
  }
  EXPECT_EQ(d.retunes(), 0u);
  EXPECT_EQ(d.staleness(), 0u);
}

TEST(DynamicSspTest, EwmaSmoothsAcrossEpochs) {
  DynamicSspConfig config = UnsmoothedConfig();
  config.ewma = 0.5;
  DynamicSspController d(2, 1, config);
  DriveTwoEpochs(d);
  // First measured epoch seeds the EWMA directly.
  ASSERT_DOUBLE_EQ(d.smoothed_ratio(), 4.0);
  ASSERT_EQ(d.staleness(), 3u);
  // Third epoch: both workers at 10 ms (ratio 1) -> smoothed 0.5*1 + 0.5*4.
  d.OnPush(0, 8, Ms(90), {});
  d.OnPush(1, 2, Ms(90), {});
  EXPECT_DOUBLE_EQ(d.smoothed_ratio(), 2.5);
  EXPECT_EQ(d.staleness(), 2u);  // ceil(1.5)
  EXPECT_EQ(d.retunes(), 2u);
}

TEST(DynamicSspTest, EachAdjustmentEmitsOneAuditRecord) {
  obs::DecisionAuditLog audit;
  DynamicSspController d(2, 1, UnsmoothedConfig());
  d.AttachAudit(&audit);
  DriveTwoEpochs(d);
  const auto retunes = audit.retunes();
  ASSERT_EQ(retunes.size(), 1u);
  EXPECT_EQ(retunes[0].kind, obs::RetuneKind::kStaleness);
  EXPECT_EQ(retunes[0].staleness, 3u);
  EXPECT_DOUBLE_EQ(retunes[0].straggler_ratio, 4.0);
  EXPECT_EQ(retunes[0].epoch, 2u);
  EXPECT_DOUBLE_EQ(retunes[0].at.seconds(), 0.080);
  EXPECT_EQ(retunes[0].epoch_pushes, 5u);  // second window: 4 + 1 pushes

  // Stable epochs adjust nothing and so log nothing: one record per
  // *adjustment*, not per evaluation.
  d.OnPush(0, 8, Ms(120), {});
  d.OnPush(0, 9, Ms(160), {});
  d.OnPush(0, 10, Ms(200), {});
  d.OnPush(0, 11, Ms(240), {});
  d.OnPush(1, 2, Ms(240), {});  // ratio 4 again: bound already 3
  EXPECT_EQ(d.retunes(), 1u);
  EXPECT_EQ(audit.retunes().size(), 1u);
}

TEST(DynamicSspTest, StragglerDepartureRelaxesTheBound) {
  // With the straggler down, the remaining workers are homogeneous: the
  // next epochs see ratio 1 and the bound relaxes back to min.
  DynamicSspController d(3, 1, UnsmoothedConfig());
  // Two epochs with worker 2 pushing at half the others' rate.
  d.OnPush(0, 0, Ms(10), {});
  d.OnPush(0, 1, Ms(20), {});
  d.OnPush(1, 0, Ms(10), {});
  d.OnPush(1, 1, Ms(20), {});
  d.OnPush(2, 0, Ms(40), {});
  d.OnPush(0, 2, Ms(50), {});
  d.OnPush(0, 3, Ms(60), {});
  d.OnPush(1, 2, Ms(50), {});
  d.OnPush(1, 3, Ms(60), {});
  d.OnPush(2, 1, Ms(80), {});  // ratio 2 measured: bound rises to 1
  ASSERT_GT(d.staleness(), 0u);
  d.OnWorkerDown(2);
  // Interleaved equal-speed pushes among the live pair: the first symmetric
  // epoch window sees ratio 1 and the bound drops back.
  std::uint64_t it = 4;
  for (double t = 90.0; t < 130.0; t += 10.0, ++it) {
    d.OnPush(0, it, Ms(t), {});
    d.OnPush(1, it, Ms(t), {});
  }
  EXPECT_EQ(d.staleness(), 0u);
}

TEST(ControllerFactoryTest, PerShardFamilyNames) {
  // kPssp: the spec's bound over write sets learned from pushes, so nothing
  // is written (and nobody gated) before the first push.
  ConsistencySpec spec;
  spec.scheme = ConsistencyScheme::kPssp;
  auto pssp = MakeConsistencyController(spec, 2, 4);
  EXPECT_EQ(pssp->staleness(), 3u);
  EXPECT_EQ(pssp->num_shards(), 4u);
  EXPECT_EQ(dynamic_cast<DynamicSspController*>(pssp.get()), nullptr);
  EXPECT_FALSE(pssp->writes(0, 0));
  const std::size_t two[] = {2};
  pssp->OnPush(0, 0, Ms(1), two);
  EXPECT_TRUE(pssp->writes(0, 2));
  EXPECT_FALSE(pssp->writes(0, 0));

  // kDssp: the dynamic controller, starting from spec.dssp's bound.
  spec.scheme = ConsistencyScheme::kDssp;
  spec.dssp.initial_staleness = 5;
  auto dssp = MakeConsistencyController(spec, 2, 4);
  ASSERT_NE(dynamic_cast<DynamicSspController*>(dssp.get()), nullptr);
  EXPECT_EQ(dssp->staleness(), 5u);
  EXPECT_EQ(dssp->num_shards(), 4u);
  EXPECT_FALSE(dssp->writes(0, 0));
}

}  // namespace
}  // namespace specsync
