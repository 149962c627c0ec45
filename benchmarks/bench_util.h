// Shared helpers for the figure/table regenerators.
//
// Every bench prints (a) the paper's claim for the figure it regenerates and
// (b) the measured rows/series, so EXPERIMENTS.md can be assembled directly
// from bench output. Constants are sized so the full bench suite runs in a
// few minutes; raise replicate counts / horizons for tighter error bars.
//
// The sweep-style benches (Figs. 8-11, Table II) run their cells through the
// deterministic ParallelRunner: pass --threads=N (or set
// SPECSYNC_BENCH_THREADS) to fan cells across cores — the printed numbers are
// bit-identical at any thread count. Each such bench also records per-cell
// telemetry (wall time, DES events/sec, trace digest) into the shared
// BENCH_harness.json via BenchReporter, seeding the repo's perf trajectory.
#pragma once

#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "harness/parallel_runner.h"
#include "harness/workload.h"
#include "ps/compression.h"

namespace specsync::bench {

// Root seed all figure benches fork their per-cell seeds from.
inline constexpr std::uint64_t kBenchRootSeed = 7;

// The fixed SpecSync-Cherrypick operating point used across benches: a window
// wide enough to catch delivery bursts (0.35 iterations) with a threshold a
// bit below the uniform-arrival expectation for that window.
inline SpeculationParams CherryParams(const Workload& workload) {
  SpeculationParams params;
  params.abort_time = workload.iteration_time * 0.35;
  params.abort_rate = 0.22;
  return params;
}

struct SeedSweep {
  std::vector<std::uint64_t> seeds{7, 8, 9};
};

// Mean loss at `time` across runs (runs lacking a sample by then are skipped).
double MeanLossAt(const std::vector<ExperimentResult>& runs, SimTime time);

// Mean time-to-target across runs; unconverged runs are counted at the
// horizon `fallback` (conservative, keeps means defined).
double MeanTimeToTarget(const std::vector<ExperimentResult>& runs,
                        double target, Duration fallback);

// Fraction of runs that reached the target.
double ConvergedFraction(const std::vector<ExperimentResult>& runs,
                         double target);

// Mean staleness (missed updates per push) across runs.
double MeanStaleness(const std::vector<ExperimentResult>& runs);

// Runs one (workload, scheme) over the sweep's seeds, serially. The
// sweep-style benches use CellBatch instead; this remains for the small
// mechanism benches (timelines, PAP) that want literal pinned seeds.
std::vector<ExperimentResult> RunSeeds(const Workload& workload,
                                       ExperimentConfig config,
                                       const SeedSweep& sweep);

// Prints the standard bench header.
void PrintHeader(const std::string& figure, const std::string& paper_claim);

// Base consistency-model override, parsed from --consistency (below). When
// set, Apply() replaces a scheme's base model — including its staleness bound
// or dynamic-SSP config — while keeping the scheme's speculation settings, so
// a figure's Original/Cherrypick/Adaptive grid can be re-run on top of SSP,
// per-shard SSP, or the dynamic bound.
struct ConsistencySelection {
  bool set = false;
  ConsistencySpec spec;

  void Apply(SchemeSpec& scheme) const;
  // "" when unset, else the flag value back (e.g. "ssp:2", "dssp").
  std::string Label() const;
};

// Gradient wire-compression override, parsed from --compression (below).
// When set, Apply() installs the codec on an experiment's sim config; the
// bench's scheme grid is otherwise untouched, so any figure can be re-run
// with compressed transfers for an apples-to-apples convergence-cost
// comparison against its uncompressed baseline.
struct CompressionSelection {
  bool set = false;
  CompressionSpec spec;

  void Apply(ExperimentConfig& config) const {
    if (set) config.compression = spec;
  }
  // "" when unset, else the codec label (e.g. "topk:0.01", "int8").
  std::string Label() const { return set ? spec.Label() : ""; }
};

// Common bench flags.
//  --threads=N        worker threads for the cell grid (default: env
//                     SPECSYNC_BENCH_THREADS, else hardware concurrency)
//  --num_servers=N    parameter-server shard count for the simulated cluster
//                     (default: 4, the paper-like testbed shape)
//  --smoke            shrink the grid for a seconds-long CI sanity pass
//  --metrics_out=P    write an observability snapshot (metrics.json schema,
//                     see EXPERIMENTS.md) from one instrumented run
//  --trace_out=P      write a Chrome/Perfetto trace from the same run
//  --consistency=C    base consistency model override for the bench's scheme
//                     grid: asp | bsp | ssp[:s] | pssp[:s] | dssp[:s0]
//  --compression=C    gradient wire codec for every cell:
//                     none | topk[:F] | int8 | fp16 | delta (F a fraction
//                     like 0.01 or a percentage like 1%; bare topk = 1%)
struct BenchArgs {
  std::size_t threads = 1;
  std::size_t num_servers = 4;
  bool smoke = false;
  std::string metrics_out;
  std::string trace_out;
  ConsistencySelection consistency;
  CompressionSelection compression;
};

// Parses the flags above; exits with usage on a malformed flag and warns on
// unknown ones.
BenchArgs ParseBenchArgs(int argc, char** argv);

// Thread count for a bench binary: --threads=N beats SPECSYNC_BENCH_THREADS
// beats the host's hardware concurrency. Exits with usage on a bad flag.
std::size_t ParseThreads(int argc, char** argv);

// When --metrics_out/--trace_out was given, re-runs one representative
// (workload, config) cell with a full ObsContext attached and writes the
// requested artifacts: a metrics.json snapshot (counters, gauges, latency
// histograms, scheduler decision-audit log) and/or a Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing. A no-op when neither flag is set,
// so benches can call it unconditionally. The instrumented run is separate
// from the bench's measured cells — bench numbers stay untouched.
void EmitObsArtifacts(const BenchArgs& args, const Workload& workload,
                      ExperimentConfig config);

// A bench's full grid of cells, keyed into series. Build every series first,
// Run() once (one ParallelRunner pass over the whole grid maximizes
// parallelism), then read each series' results back for aggregation.
class CellBatch {
 public:
  // Adds `replicates` cells of (workload, config) under a semantic label
  // (part of the per-cell seed key); returns the series handle. Pass
  // `explicit_seed` to pin every replicate to one seed instead of the
  // label-derived key — the tool for A/B series that must replay the exact
  // same history under two engine configs.
  std::size_t AddSeries(const Workload& workload, ExperimentConfig config,
                        std::size_t replicates, std::string label = "",
                        std::optional<std::uint64_t> explicit_seed = {});

  // Runs all cells across `threads` threads (root seed kBenchRootSeed).
  void Run(std::size_t threads);

  const std::vector<ExperimentResult>& Series(std::size_t series) const;
  const std::vector<ExperimentCell>& cells() const { return cells_; }
  const std::vector<CellResult>& results() const { return results_; }
  std::size_t threads() const { return threads_; }
  // Wall time of the Run() call vs the sum of per-cell walls (what a serial
  // pass would have cost) — the speedup-vs-serial numerator/denominator.
  double wall_seconds() const { return wall_seconds_; }
  double serial_wall_estimate() const;

 private:
  std::vector<ExperimentCell> cells_;
  std::vector<std::vector<std::size_t>> series_;  // series -> cell indices
  std::vector<CellResult> results_;
  std::vector<std::vector<ExperimentResult>> series_results_;
  std::size_t threads_ = 1;
  double wall_seconds_ = 0.0;
};

// Machine-readable perf telemetry: one record per bench binary, merged into
// a shared JSON file (SPECSYNC_BENCH_JSON, default "BENCH_harness.json" in
// the working directory). The file is a JSON array with each record on one
// line; re-running a bench replaces its own record and leaves the others.
class BenchReporter {
 public:
  // `json_path` overrides the shared JsonPath() target for benches that own
  // a dedicated artifact (e.g. bench_compression -> BENCH_compression.json).
  explicit BenchReporter(std::string bench_name, std::string json_path = "");

  struct CellRecord {
    std::string workload;
    std::string scheme;
    std::string label;
    std::uint64_t replicate = 0;
    std::uint64_t seed = 0;
    double wall_seconds = 0.0;
    std::uint64_t sim_events = 0;
    std::uint64_t pushes = 0;
    double sim_end_seconds = 0.0;
    double final_loss = 0.0;
    std::uint64_t trace_digest = 0;
  };

  void Add(const CellRecord& record);
  // Records every cell of a finished batch plus its run-level telemetry.
  void AddBatch(const CellBatch& batch);
  // Run-level telemetry when not using AddBatch (e.g. grid search).
  void SetRun(std::size_t threads, double wall_seconds,
              double serial_wall_estimate);
  // Named headline number serialized under "metrics" in the bench's JSON
  // record (e.g. an acceptance-claim speedup ratio). Last value per name
  // wins; names keep insertion order.
  void AddMetric(const std::string& name, double value);

  // Per-cell telemetry as a Table — the same rows the JSON serializes.
  // CSV output goes through Table::PrintCsv (src/common/table), not a
  // bench-private writer.
  Table CellTable() const;

  // Merges this bench's record into the shared JSON file and prints the path.
  void WriteJson() const;

  static std::string JsonPath();

 private:
  std::string bench_name_;
  std::string json_path_;  // "" -> JsonPath()
  std::vector<CellRecord> cells_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::size_t threads_ = 1;
  double wall_seconds_ = 0.0;
  double serial_wall_estimate_ = 0.0;
};

}  // namespace specsync::bench
