// Ablation: Algorithm 1's objective vs wider-window variants.
//
// DESIGN.md calls out two design choices worth ablating:
//  1. The freshness-loss estimate assumes uniform pull arrivals (Eq. 6).
//     Under near-uniform arrivals the gain and loss terms cancel to first
//     order, so the argmax is noise-driven and tends to tiny windows that
//     cannot cover delivery bursts. Down-weighting the loss term
//     (loss_weight < 1) widens the window.
//  2. Candidate enumeration (pairwise push-time differences) vs a dense grid.
//     F̃ steps up only at push-minus-pull offsets and falls linearly between
//     them, so its maximum sits at such an offset; a push-push difference
//     equals one only when a worker's pull coincides with a push, so the
//     enumeration can fall short of the grid (EXPERIMENTS.md).
#include <algorithm>
#include <iostream>
#include <vector>

#include "benchmarks/bench_util.h"
#include "core/adaptive_tuner.h"
#include "tests/core/tuner_full_replay.h"

using namespace specsync;

int main() {
  bench::PrintHeader(
      "Ablation — adaptive tuner objective and candidate enumeration",
      "(beyond the paper) how the Eq. 7 objective's loss weight changes the "
      "chosen window, abort behaviour, and staleness");

  const Workload workload = MakeMfWorkload(1);
  const SimTime horizon = SimTime::FromSeconds(900.0);

  Table table({"policy", "abort_time(s)", "abort_rate", "aborts", "pushes",
               "mean_staleness", "final_loss"});
  struct Entry {
    std::string label;
    SchemeSpec scheme;
  };
  std::vector<Entry> entries;
  entries.push_back({"Adaptive (paper, w=1.0)", SchemeSpec::Adaptive()});
  for (double weight : {0.7, 0.4}) {
    AdaptiveTunerConfig config;
    config.loss_weight = weight;
    entries.push_back({"Adaptive (w=" + Table::Format(weight) + ")",
                       SchemeSpec::Adaptive(config)});
  }
  {
    AdaptiveTunerConfig config;
    config.per_worker_rate = true;
    entries.push_back({"Adaptive (per-worker rate)",
                       SchemeSpec::Adaptive(config)});
  }
  entries.push_back(
      {"Cherrypick (0.35T, 0.22)",
       SchemeSpec::Cherrypick(bench::CherryParams(workload))});
  entries.push_back({"ASP (no speculation)", SchemeSpec::Original()});

  for (const Entry& entry : entries) {
    ExperimentConfig config;
    config.cluster = ClusterSpec::Homogeneous(40);
    config.scheme = entry.scheme;
    config.max_time = horizon;
    config.stop_on_convergence = false;
    const auto runs = bench::RunSeeds(workload, config, bench::SeedSweep{{7, 8}});
    RunningStats aborts, pushes, final_loss;
    for (const auto& run : runs) {
      aborts.Add(static_cast<double>(run.sim.total_aborts));
      pushes.Add(static_cast<double>(run.sim.total_pushes));
      final_loss.Add(run.final_loss);
    }
    table.AddRowValues(entry.label, runs[0].sim.final_params.abort_time.seconds(),
                       runs[0].sim.final_params.abort_rate, aborts.mean(),
                       pushes.mean(), bench::MeanStaleness(runs),
                       final_loss.mean());
  }
  table.PrintPretty(std::cout);

  // Part 2: candidate enumeration vs dense grid on a recorded epoch.
  std::cout << "\nCandidate-enumeration optimality check (one recorded epoch, "
               "Eq. 7 values):\n";
  TuningInputs inputs;
  inputs.num_workers = 8;
  Rng rng(5);
  SimTime t = SimTime::Zero();
  for (int i = 0; i < 32; ++i) {
    t += Duration::Seconds(rng.Exponential(1.0));
    inputs.pushes.emplace_back(t, static_cast<WorkerId>(i % 8));
  }
  inputs.last_pull.assign(8, SimTime::Zero());
  for (WorkerId w = 0; w < 8; ++w) {
    inputs.last_pull[w] = SimTime::FromSeconds(rng.Uniform(0.0, 10.0));
  }
  inputs.iteration_span.assign(8, Duration::Seconds(4.0));

  const auto candidates = AdaptiveTuner::CandidateDeltas(
      inputs, Duration::Seconds(4.0), 0);
  // The reference EvaluateCandidates computes Eq. 7 for an ascending Δ list,
  // bit-identical to evaluating each Δ on its own (tuner_equivalence_test).
  const auto best_of = [&inputs](const std::vector<Duration>& deltas) {
    const std::vector<double> values =
        reference::EvaluateCandidates(inputs, deltas, 1.0);
    return std::max(0.0, *std::max_element(values.begin(), values.end()));
  };
  const double best_enumerated = best_of(candidates);
  std::vector<Duration> grid;
  for (double d = 0.001; d <= 4.0; d += 0.001) {
    grid.push_back(Duration::Seconds(d));
  }
  const double best_grid = best_of(grid);
  std::cout << "best F~ over " << candidates.size()
            << " enumerated candidates: " << best_enumerated
            << "; best over 4000-point dense grid: " << best_grid << " ("
            << (best_enumerated >= best_grid - 1e-9 ? "enumeration optimal"
                                                    : "MISMATCH")
            << ")\n";
  return 0;
}
