// bench_scale: datacenter-scale engine benchmark (DESIGN.md §12).
//
// The ROADMAP's north star is "what does SpecSync do at datacenter scale";
// BENCH_harness.json named the two engine blockers: the Adaptive tuner's
// O(pushes²) Algorithm-1 replay and DES throughput collapse once sharding
// multiplies events. This bench tracks both after the calendar-queue /
// incremental-tuner rewrite, in four sections:
//
//  1. DES-core hold model — the classic queue benchmark (pop the minimum,
//     push a successor at popped_time + jitter) at simulator-like occupancy,
//     run A/B over two engines: the *legacy* seed engine reconstructed
//     verbatim (std::priority_queue of heap-allocating std::function events —
//     what src/sim/simulator.h shipped before the rewrite) and the calendar
//     queue. The ≥3× events/sec acceptance claim is calendar vs legacy at
//     16-server occupancy, printed and recorded per engine in
//     BENCH_scale.json.
//  2. End-to-end engine cells — a 16-server transfer-bound convex run (the
//     shape BENCH_harness.json flagged at 7 s/sim-second) and the MF
//     SpecSync-Adaptive cell whose tuner cost motivated the incremental
//     replay (4.8 s/cell before; ≥2× better now).
//  3. workers=1000 — a thousand-worker, 16-shard transfer-bound run, the
//     scale the old engines could not reach interactively. Under --smoke
//     this run is a CI gate: a pinned events/sec floor and wall-time ceiling
//     fail the job (nonzero exit) on regression.
//  4. Tuner replay A/B — AdaptiveTuner::OnEpochEnd against the literal
//     Algorithm-1 loop (tests/core/tuner_full_replay.h) on the same seeded
//     64-worker epochs of ≥100 pushes each. Every decision must be
//     bit-identical (FATAL otherwise); the wall-time ratio is
//     tuner_replay_speedup_mf.
//
// Telemetry lands in BENCH_scale.json (override with SPECSYNC_BENCH_JSON);
// the hold-model rows use sim_events = hold operations so the JSON's
// per-cell events/sec is directly the engine's pop+push throughput.
//
// Regenerate: build/bench/bench_scale            (full, ~1 min)
//             build/bench/bench_scale --smoke    (CI gate, seconds)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "benchmarks/bench_util.h"
#include "common/rng.h"
#include "core/adaptive_tuner.h"
#include "sim/calendar_queue.h"
#include "sim/event_fn.h"
#include "tests/core/tuner_full_replay.h"

using namespace specsync;

namespace {

// --- section 1: DES-core hold model -----------------------------------------

// The seed event core, reconstructed for an honest A/B: a std::priority_queue
// of (time, sequence, std::function) entries, each callback heap-allocated by
// std::function and copied through the heap's sift operations. Kept verbatim
// so the baseline in BENCH_scale.json stays the engine the ISSUE measured.
struct LegacyEvent {
  SimTime time;
  std::uint64_t sequence = 0;
  std::function<void()> fn;
};
struct LegacyLater {
  bool operator()(const LegacyEvent& a, const LegacyEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.sequence > b.sequence;
  }
};
using LegacyQueue =
    std::priority_queue<LegacyEvent, std::vector<LegacyEvent>, LegacyLater>;

struct HoldResult {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;  // pop+push pairs executed
  double EventsPerSec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

// Successor jitter: the classic hold model pushes each popped event's
// follow-up U(0.1, 1.9) seconds ahead, so the live set keeps a ~2 s spread
// at every occupancy — the "bounded lookahead past now" regime the DES
// steady state lives in.
double NextDelta(Rng& rng) { return rng.Uniform(0.1, 1.9); }

// Simulator callbacks capture several words of context (worker id, version,
// arrival time, the cluster Impl pointer), which overflows std::function's
// small-buffer inline storage — that per-event heap allocation is exactly
// what the legacy engine paid and EventFn's 64-byte inline buffer does not.
// The hold payload reproduces that footprint.
struct HoldPayload {
  std::uint64_t* sink = nullptr;
  std::uint64_t worker = 0;
  std::uint64_t version = 0;
  double arrival = 0.0;
};

HoldResult HoldLegacy(std::size_t occupancy, std::uint64_t ops,
                      std::uint64_t* sink) {
  Rng rng(bench::kBenchRootSeed);
  LegacyQueue queue;
  std::uint64_t seq = 0;
  const auto make = [sink](std::uint64_t i, double t) {
    const HoldPayload payload{sink, i, i ^ 0x9e37u, t};
    return [payload] { *payload.sink += 1 + (payload.version & 0); };
  };
  for (std::size_t i = 0; i < occupancy; ++i) {
    const double t = rng.Uniform(0.0, 1.0);
    queue.push({SimTime::FromSeconds(t), seq++, make(i, t)});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    // The seed Simulator::Step, verbatim: "priority_queue::top() is const;
    // the event is copied out" — one std::function clone per pop.
    LegacyEvent event = queue.top();
    queue.pop();
    event.fn();
    const SimTime at = event.time + Duration::Seconds(NextDelta(rng));
    queue.push({at, seq++, make(i, at.seconds())});
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  return {wall.count(), ops};
}

HoldResult HoldCalendar(std::size_t occupancy, std::uint64_t ops,
                        std::uint64_t* sink) {
  Rng rng(bench::kBenchRootSeed);
  CalendarQueue<EventFn> queue;
  const auto make = [sink](std::uint64_t i, double t) {
    const HoldPayload payload{sink, i, i ^ 0x9e37u, t};
    return EventFn([payload] { *payload.sink += 1 + (payload.version & 0); });
  };
  for (std::size_t i = 0; i < occupancy; ++i) {
    const double t = rng.Uniform(0.0, 1.0);
    queue.Push(SimTime::FromSeconds(t), make(i, t));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    SimTime at;
    EventFn fn = queue.PopMin(&at);
    fn();
    const SimTime next = at + Duration::Seconds(NextDelta(rng));
    queue.Push(next, make(i, next.seconds()));
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  return {wall.count(), ops};
}

void RecordHoldCell(bench::BenchReporter& reporter, const std::string& engine,
                    std::size_t occupancy, const HoldResult& result) {
  bench::BenchReporter::CellRecord record;
  record.workload = "hold-model";
  record.scheme = engine;
  record.label = "occupancy=" + std::to_string(occupancy);
  record.seed = occupancy;
  record.wall_seconds = result.wall_seconds;
  record.sim_events = result.events;
  reporter.Add(record);
}

// Runs both engines at one occupancy; returns calendar-vs-legacy ratio.
double HoldSection(bench::BenchReporter& reporter, std::size_t occupancy,
                   std::uint64_t ops) {
  std::uint64_t sink = 0;
  // Best of two passes per engine: the classic defense against host noise
  // (the slower pass ate a scheduler hiccup, not a queue cost).
  const auto best = [](HoldResult a, HoldResult b) {
    return a.wall_seconds <= b.wall_seconds ? a : b;
  };
  const HoldResult legacy = best(HoldLegacy(occupancy, ops, &sink),
                                 HoldLegacy(occupancy, ops, &sink));
  const HoldResult calendar = best(HoldCalendar(occupancy, ops, &sink),
                                   HoldCalendar(occupancy, ops, &sink));
  if (sink != 4 * ops) std::abort();  // keeps the callbacks observable
  RecordHoldCell(reporter, "legacy-heap", occupancy, legacy);
  RecordHoldCell(reporter, "calendar", occupancy, calendar);
  const double ratio =
      legacy.EventsPerSec() > 0.0
          ? calendar.EventsPerSec() / legacy.EventsPerSec()
          : 0.0;
  Table table({"engine", "events/sec", "vs legacy"});
  table.AddRowValues("legacy-heap", legacy.EventsPerSec(), 1.0);
  table.AddRowValues("calendar", calendar.EventsPerSec(), ratio);
  std::cout << "\nhold model, occupancy=" << occupancy << ", " << ops
            << " ops:\n";
  table.PrintPretty(std::cout);
  return ratio;
}

// --- section 4: tuner replay A/B --------------------------------------------

// One seeded MF-shaped epoch for a homogeneous cluster: every worker's
// iteration span jitters ±20% around 1 s, it pushes once per span from a
// random phase over a two-span epoch (so 64 workers yield ~128 pushes), and
// its last pull starts its last iteration, just after its last push.
TuningInputs MakeTunerEpoch(Rng& rng, std::size_t workers, EpochId epoch) {
  constexpr double kEpochSeconds = 2.0;
  TuningInputs inputs;
  inputs.num_workers = workers;
  inputs.finished_epoch = epoch;
  inputs.epoch_begin = SimTime::Zero();
  inputs.epoch_end = SimTime::FromSeconds(kEpochSeconds);
  inputs.iteration_span.resize(workers);
  inputs.last_pull.resize(workers);
  for (WorkerId w = 0; w < workers; ++w) {
    const double span = rng.Uniform(0.8, 1.2);
    inputs.iteration_span[w] = Duration::Seconds(span);
    for (double t = rng.Uniform(0.0, span); t < kEpochSeconds; t += span) {
      inputs.pushes.emplace_back(SimTime::FromSeconds(t), w);
      inputs.last_pull[w] = SimTime::FromSeconds(t + 0.01);
    }
  }
  std::sort(inputs.pushes.begin(), inputs.pushes.end());
  return inputs;
}

void RecordTunerCell(bench::BenchReporter& reporter, const std::string& engine,
                     double wall_seconds, std::size_t pushes) {
  bench::BenchReporter::CellRecord record;
  record.workload = "tuner-replay";
  record.scheme = engine;
  record.label = "workers=64";
  record.wall_seconds = wall_seconds;
  record.sim_events = pushes;
  record.pushes = pushes;
  reporter.Add(record);
}

bool SameDecision(const SpeculationParams& a, const SpeculationParams& b) {
  return a.abort_time.seconds() == b.abort_time.seconds() &&
         a.abort_rate == b.abort_rate &&
         a.per_worker_rate == b.per_worker_rate;
}

struct TunerAb {
  double tuner_seconds = 0.0;
  double full_replay_seconds = 0.0;
  std::size_t pushes = 0;   // replayed per side, summed over epochs
  std::size_t engaged = 0;  // epochs whose decision enabled speculation
  std::size_t mismatches = 0;
};

// Times AdaptiveTuner::OnEpochEnd and the reference full replay over the
// same epochs (best of two passes each) and compares every decision bitwise.
TunerAb RunTunerAb(std::size_t workers, std::size_t epochs) {
  Rng rng(bench::kBenchRootSeed);
  std::vector<TuningInputs> inputs;
  for (std::size_t e = 0; e < epochs; ++e) {
    inputs.push_back(MakeTunerEpoch(rng, workers, e));
  }
  const AdaptiveTunerConfig config;
  AdaptiveTuner tuner(config);
  std::vector<SpeculationParams> got;
  std::vector<SpeculationParams> want;
  // One timed pass over every epoch; `full` picks the reference side.
  const auto pass = [&](bool full) {
    std::vector<SpeculationParams>& out = full ? want : got;
    out.clear();
    const auto t0 = std::chrono::steady_clock::now();
    for (const TuningInputs& epoch : inputs) {
      out.push_back(full ? reference::FullReplayOnEpochEnd(config, epoch)
                         : tuner.OnEpochEnd(epoch));
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    return wall.count();
  };
  TunerAb ab;
  ab.tuner_seconds = std::min(pass(false), pass(false));
  ab.full_replay_seconds = std::min(pass(true), pass(true));
  for (std::size_t e = 0; e < epochs; ++e) {
    ab.pushes += inputs[e].pushes.size();
    if (want[e].abort_time > Duration::Zero()) ++ab.engaged;
    if (!SameDecision(got[e], want[e])) ++ab.mismatches;
  }
  return ab;
}

}  // namespace

int main(int argc, char** argv) {
  // This bench owns its own artifact; figure benches keep BENCH_harness.json.
  setenv("SPECSYNC_BENCH_JSON", "BENCH_scale.json", /*overwrite=*/0);
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader(
      "scale — calendar-queue DES core + incremental Adaptive tuner",
      "engine throughput at datacenter scale: >=3x DES events/sec at "
      "16-server occupancy, >=2x MF Adaptive cell, workers=1000 viable");

  bench::BenchReporter reporter("bench_scale");
  const auto run_t0 = std::chrono::steady_clock::now();

  // 1. DES-core hold model. occupancy 1024 ~ a 16-server sim's resident
  // events (per-shard arrivals + worker timers); 16384 ~ the 1000-worker
  // cluster below. The acceptance ratio is the 1024-occupancy row.
  const std::uint64_t hold_ops = args.smoke ? 300'000 : 2'000'000;
  const double core_ratio = HoldSection(reporter, 1024, hold_ops);
  const double thousand_worker_ratio = HoldSection(reporter, 16384, hold_ops);
  std::cout << "des-core speedup at 16-server occupancy: " << core_ratio
            << "x (acceptance floor 3x)\n";
  reporter.AddMetric("des_core_speedup_16server", core_ratio);
  reporter.AddMetric("des_core_speedup_1000worker", thousand_worker_ratio);

  // 2. End-to-end engine cells through the deterministic runner.
  bench::CellBatch batch;
  const Workload convex = MakeConvexWorkload(/*seed=*/1, /*scale=*/0.2);
  ExperimentConfig transfer16;
  transfer16.cluster = ClusterSpec::Homogeneous(40);
  transfer16.cluster.num_servers = 16;
  transfer16.scheme = SchemeSpec::Adaptive();
  transfer16.max_time = SimTime::FromSeconds(args.smoke ? 60.0 : 240.0);
  transfer16.stop_on_convergence = false;
  const std::size_t transfer_series =
      batch.AddSeries(convex, transfer16, /*replicates=*/1, "transfer16");

  // 3. workers=1000, 16 shards: every pull and push fans out per shard, so
  // this is the transfer-bound regime where the old engines collapsed.
  ExperimentConfig thousand;
  thousand.cluster = ClusterSpec::Homogeneous(1000);
  thousand.cluster.num_servers = 16;
  thousand.scheme = SchemeSpec::Adaptive();
  thousand.max_time = SimTime::FromSeconds(args.smoke ? 8.0 : 30.0);
  thousand.stop_on_convergence = false;
  const std::size_t thousand_series =
      batch.AddSeries(convex, thousand, /*replicates=*/1, "workers=1000");

  batch.Run(args.threads);
  reporter.AddBatch(batch);

  // The MF SpecSync-Adaptive cell — its own *serial* batch, so its wall time
  // tracks the in-situ tuner cost rather than thread-pool contention. 64
  // workers give ~100+ pushes per epoch, the regime the ROADMAP flagged for
  // the O(pushes²) replay.
  bench::CellBatch mf_batch;
  const Workload mf = MakeMfWorkload(/*seed=*/1);
  ExperimentConfig mf_adaptive;
  mf_adaptive.cluster = ClusterSpec::Homogeneous(64);
  mf_adaptive.cluster.num_servers = 4;
  mf_adaptive.scheme = SchemeSpec::Adaptive();
  mf_adaptive.max_time = SimTime::FromSeconds(args.smoke ? 400.0 : 1500.0);
  mf_adaptive.stop_on_convergence = false;
  constexpr std::uint64_t kMfSeed = 41;
  const std::size_t mf_series = mf_batch.AddSeries(
      mf, mf_adaptive, /*replicates=*/1, "mf-adaptive", kMfSeed);
  mf_batch.Run(/*threads=*/1);
  reporter.AddBatch(mf_batch);

  (void)transfer_series;
  (void)mf_series;
  (void)thousand_series;
  Table cells({"cell", "wall(s)", "sim events", "events/sec"});
  double thousand_wall = 0.0;
  double thousand_rate = 0.0;
  const auto scan = [&](const bench::CellBatch& b) {
    for (std::size_t i = 0; i < b.cells().size(); ++i) {
      const CellResult& cell = b.results()[i];
      const double rate =
          cell.wall_seconds > 0.0
              ? static_cast<double>(cell.sim_events) / cell.wall_seconds
              : 0.0;
      cells.AddRowValues(b.cells()[i].label, cell.wall_seconds,
                         static_cast<unsigned long>(cell.sim_events), rate);
      if (b.cells()[i].label == "workers=1000") {
        thousand_wall = cell.wall_seconds;
        thousand_rate = rate;
      }
    }
  };
  scan(batch);
  scan(mf_batch);
  std::cout << "\nend-to-end cells (threads=" << args.threads
            << ", mf-adaptive serial):\n";
  cells.PrintPretty(std::cout);

  // 4. Tuner replay A/B, serial on the main thread: the tuner against the
  // literal Algorithm-1 loop on the same seeded 64-worker epochs.
  constexpr std::size_t kTunerWorkers = 64;
  const std::size_t tuner_epochs = args.smoke ? 8 : 32;
  const TunerAb tuner_ab = RunTunerAb(kTunerWorkers, tuner_epochs);
  RecordTunerCell(reporter, "adaptive-tuner", tuner_ab.tuner_seconds,
                  tuner_ab.pushes);
  RecordTunerCell(reporter, "full-replay", tuner_ab.full_replay_seconds,
                  tuner_ab.pushes);
  std::cout << "\ntuner replay A/B: " << tuner_epochs << " epochs x "
            << kTunerWorkers << " workers, "
            << tuner_ab.pushes / tuner_epochs << " pushes/epoch, "
            << tuner_ab.engaged << " epochs engaged speculation\n";
  // Equivalence-by-construction, checked where the money is: every decision
  // must match the reference bit for bit.
  if (tuner_ab.mismatches != 0) {
    std::cout << "FATAL: " << tuner_ab.mismatches << " of " << tuner_epochs
              << " tuner decisions differ from the full replay\n";
    return 1;
  }
  const double tuner_speedup =
      tuner_ab.tuner_seconds > 0.0
          ? tuner_ab.full_replay_seconds / tuner_ab.tuner_seconds
          : 0.0;
  std::cout << "tuner replay speedup (full / incremental): " << tuner_speedup
            << "x (acceptance floor 2x)\n";
  reporter.AddMetric("tuner_replay_speedup_mf", tuner_speedup);

  // AddBatch already accounted both batches' walls; only the hold-model and
  // tuner sections still need folding into the run total (serial by
  // construction, so they add to both wall and the serial estimate equally).
  const std::chrono::duration<double> run_wall =
      std::chrono::steady_clock::now() - run_t0;
  const double serial_wall =
      run_wall.count() - batch.wall_seconds() - mf_batch.wall_seconds();
  reporter.SetRun(args.threads, serial_wall, serial_wall);
  reporter.AddMetric("workers1000_events_per_sec", thousand_rate);
  reporter.AddMetric("workers1000_wall_seconds", thousand_wall);
  reporter.WriteJson();

  if (args.smoke) {
    // CI gate: pinned floor/ceiling for the workers=1000 smoke cell, set ~4x
    // below/above the measured dev-container numbers (~5.5-7k events/sec,
    // ~2.5-3 s wall under a threads=4 contended batch) so only a real engine
    // regression — not host noise — trips them.
    constexpr double kEventsPerSecFloor = 1'500.0;
    constexpr double kWallCeilingSeconds = 12.0;
    bool ok = true;
    if (thousand_rate < kEventsPerSecFloor) {
      std::cout << "SMOKE FAIL: workers=1000 events/sec " << thousand_rate
                << " < floor " << kEventsPerSecFloor << "\n";
      ok = false;
    }
    if (thousand_wall > kWallCeilingSeconds) {
      std::cout << "SMOKE FAIL: workers=1000 wall " << thousand_wall
                << "s > ceiling " << kWallCeilingSeconds << "s\n";
      ok = false;
    }
    // Canary only: wall-clock ratios on shared CI hosts are too noisy to
    // gate the full 3x acceptance claim (that is the full run's number in
    // BENCH_scale.json); 1.5x still catches a calendar-engine regression.
    if (core_ratio < 1.5) {
      std::cout << "SMOKE FAIL: des-core speedup " << core_ratio
                << "x < 1.5x regression canary\n";
      ok = false;
    }
    // Same idea for the tuner A/B (anything under 1.5x means the
    // incremental replay lost its asymptotic edge).
    if (tuner_speedup < 1.5) {
      std::cout << "SMOKE FAIL: tuner replay speedup " << tuner_speedup
                << "x < 1.5x regression canary\n";
      ok = false;
    }
    std::cout << (ok ? "SMOKE OK" : "SMOKE FAILED") << "\n";
    return ok ? 0 : 1;
  }
  return 0;
}
