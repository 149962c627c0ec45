// Golden-trace determinism tests: a fixed-seed 8-worker SpecSync-Adaptive
// simulation must reproduce one exact event history, pinned here as an FNV
// digest of the ordered pull/push/abort/loss trace. Any change to event
// ordering, RNG consumption, scheduler decisions, or gradient math shows up
// as a digest mismatch — deliberate changes must re-pin the constant.
//
// Two pins, one per shard count:
//  - num_servers=1 degenerates the per-shard transfer fan-out to exactly one
//    message per pull/push, so its digest is pinned to the value the
//    *pre-sharding* simulator produced. This is the refactor's backward
//    compatibility contract: one shard == the legacy single-server model,
//    bit for bit.
//  - num_servers=2 exercises the sharded path (two transfer draws per pull
//    and per dense push, iteration resuming at the max shard arrival) and
//    pins its own history.
//
// To regenerate after an intentional behavior change:
//   run this test and copy the "Actual" digest from the failure message
//   (or print TraceDigest(result.sim.trace) from any driver with the exact
//   config below). The num_servers=1 pin should only ever change together
//   with the legacy single-server semantics themselves.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/obs.h"
#include "trace/trace.h"

namespace specsync {
namespace {

ExperimentResult RunGoldenSim(std::size_t num_servers,
                              obs::ObsContext* obs = nullptr) {
  // Convex workload: unique optimum, no divergence at 8 async workers, so
  // the pinned history stays meaningful (the MF proxy can blow up at this
  // worker count and NaN losses compare unequal to themselves).
  const Workload workload = MakeConvexWorkload(/*seed=*/1, /*scale=*/0.2);
  ExperimentConfig config;
  config.cluster = ClusterSpec::Homogeneous(8);
  config.cluster.num_servers = num_servers;
  config.scheme = SchemeSpec::Adaptive();
  config.max_time = SimTime::FromSeconds(240.0);
  config.stop_on_convergence = false;
  config.seed = 41;
  config.obs = obs;
  return RunExperiment(workload, config);
}

// Pinned digest of the single-shard golden run — identical to the digest the
// simulator produced before pulls and pushes were modeled as per-shard
// messages. See the header comment.
constexpr std::uint64_t kGoldenDigestOneServer = 9468566950707090850ULL;
// Pinned digest of the same experiment at num_servers=2.
constexpr std::uint64_t kGoldenDigestTwoServers = 18067104914765609640ULL;

void ExpectProtocolPathsExercised(const ExperimentResult& result) {
  // The run must exercise the interesting protocol paths, or the pin proves
  // nothing about speculation.
  EXPECT_GT(result.sim.trace.total_pushes(), 100u);
  EXPECT_GT(result.sim.trace.total_aborts(), 0u);
  EXPECT_GT(result.sim.scheduler_stats.resyncs_issued, 0u);
  EXPECT_GT(result.sim.scheduler_stats.retunes, 0u);
}

TEST(GoldenTraceTest, OneServerTraceMatchesPreShardingDigest) {
  const ExperimentResult result = RunGoldenSim(1);
  ExpectProtocolPathsExercised(result);
  EXPECT_EQ(TraceDigest(result.sim.trace), kGoldenDigestOneServer);
}

TEST(GoldenTraceTest, AdaptiveEightWorkerTraceDigestIsPinned) {
  const ExperimentResult result = RunGoldenSim(2);
  ExpectProtocolPathsExercised(result);
  EXPECT_EQ(TraceDigest(result.sim.trace), kGoldenDigestTwoServers);
}

TEST(GoldenTraceTest, ShardCountChangesTheScheduleDeliberately) {
  // Sharding is modeled, not cosmetic: with more than one server the network
  // draw sequence and arrival times genuinely differ from the single-server
  // run. (If these ever collide, the fan-out silently stopped mattering.)
  EXPECT_NE(kGoldenDigestOneServer, kGoldenDigestTwoServers);
}

TEST(GoldenTraceTest, ObservabilityLeavesBothGoldenDigestsIntact) {
  // Observability is record-only by contract: attaching an ObsContext must
  // reproduce the exact pinned histories — including through the consistency
  // refactor's audit hooks — while actually recording something.
  obs::ObsContext one;
  EXPECT_EQ(TraceDigest(RunGoldenSim(1, &one).sim.trace),
            kGoldenDigestOneServer);
  obs::ObsContext two;
  EXPECT_EQ(TraceDigest(RunGoldenSim(2, &two).sim.trace),
            kGoldenDigestTwoServers);
  EXPECT_FALSE(one.audit.retunes().empty());  // Adaptive tuner was audited.
  EXPECT_FALSE(two.audit.retunes().empty());
}

TEST(GoldenTraceTest, RerunningTheGoldenSimIsBitIdentical) {
  const ExperimentResult a = RunGoldenSim(2);
  const ExperimentResult b = RunGoldenSim(2);
  EXPECT_EQ(TraceDigest(a.sim.trace), TraceDigest(b.sim.trace));
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.sim.scheduler_stats.resyncs_issued,
            b.sim.scheduler_stats.resyncs_issued);
}

// Pinned digest of the large-N determinism guard below. Regenerate like the
// other pins: copy the "Actual" digest from the failure message after an
// intentional behavior change.
constexpr std::uint64_t kGoldenDigest128Workers = 6179538663448581388ULL;

TEST(GoldenTraceTest, WorkersOneTwentyEightTraceDigestIsPinned) {
  // Large-N determinism: 128 workers exercise deep event-queue occupancy
  // (resize + wraparound paths in the calendar engine) under a short horizon.
  // The pin locks scheduling order at a scale the other pins never reach.
  const Workload workload = MakeConvexWorkload(/*seed=*/1, /*scale=*/0.2);
  ExperimentConfig config;
  config.cluster = ClusterSpec::Homogeneous(128);
  config.cluster.num_servers = 4;
  config.scheme = SchemeSpec::Adaptive();
  config.max_time = SimTime::FromSeconds(90.0);
  config.stop_on_convergence = false;
  config.seed = 41;
  const ExperimentResult result = RunExperiment(workload, config);
  EXPECT_GT(result.sim.trace.total_pushes(), 500u);
  EXPECT_EQ(TraceDigest(result.sim.trace), kGoldenDigest128Workers);
}

// --- compressed-run pins ----------------------------------------------------

// Every codec gets its own pinned history of the standard golden experiment
// (num_servers=2). Regenerate like the other pins. The kNone row doubles as
// the codec=none bit-identity acceptance check: an explicitly-parsed "none"
// spec must reproduce kGoldenDigestTwoServers exactly — the codec seam is
// invisible until a codec is switched on.
struct CompressedPin {
  const char* literal;
  std::uint64_t digest;
  // Whether the codec must move this run's history off the uncompressed pin.
  // delta is pinned EQUAL on purpose: the convex workload pushes dense
  // gradients, so every shard's version advances between any worker's two
  // pulls and the version gate never skips a slice — delta is lossless and
  // inert here, bit for bit (DeltaPullSkipsOnlyWhenNoShardAdvanced below
  // proves it does fire on a sparse-push workload).
  bool diverges;
};
constexpr CompressedPin kCompressedPins[] = {
    {"none", kGoldenDigestTwoServers, false},
    {"topk:0.01", 2808442342461025129ULL, true},
    {"int8", 1944548210867626004ULL, true},
    {"fp16", 5068654852926626871ULL, true},
    {"delta", kGoldenDigestTwoServers, false},
};

TEST(GoldenTraceTest, CompressedTraceDigestsArePinnedPerCodec) {
  for (const CompressedPin& pin : kCompressedPins) {
    const Workload workload = MakeConvexWorkload(/*seed=*/1, /*scale=*/0.2);
    ExperimentConfig config;
    config.cluster = ClusterSpec::Homogeneous(8);
    config.cluster.num_servers = 2;
    config.scheme = SchemeSpec::Adaptive();
    config.max_time = SimTime::FromSeconds(240.0);
    config.stop_on_convergence = false;
    config.seed = 41;
    config.compression = *CompressionSpec::Parse(pin.literal);
    const ExperimentResult result = RunExperiment(workload, config);
    EXPECT_EQ(TraceDigest(result.sim.trace), pin.digest) << pin.literal;
    EXPECT_EQ(TraceDigest(result.sim.trace) != kGoldenDigestTwoServers,
              pin.diverges)
        << pin.literal;
  }
}

TEST(GoldenTraceTest, DeltaPullSkipsOnlyWhenNoShardAdvanced) {
  // Under Cherrypick speculation on MF, an abort's re-pull lands hot on the
  // heels of the previous pull, so some shards have not advanced — the delta
  // run must bank pull-side savings there, and only there (push accounting is
  // untouched by a pull-side codec).
  const Workload workload = MakeMfWorkload(/*seed=*/1, /*scale=*/0.5);
  SpeculationParams params;
  params.abort_time = workload.iteration_time * 0.35;
  params.abort_rate = 0.22;
  ExperimentConfig config;
  config.cluster = ClusterSpec::Homogeneous(8);
  config.cluster.num_servers = 4;
  config.scheme = SchemeSpec::Cherrypick(params);
  config.max_time = SimTime::FromSeconds(400.0);
  config.stop_on_convergence = false;
  config.seed = 41;
  config.compression = *CompressionSpec::Parse("delta");
  const ExperimentResult result = RunExperiment(workload, config);
  EXPECT_GT(result.sim.transfers.saved_bytes(TransferCategory::kPullParams),
            0u);
  EXPECT_EQ(result.sim.transfers.saved_bytes(TransferCategory::kPushGrads),
            0u);
}

}  // namespace
}  // namespace specsync
