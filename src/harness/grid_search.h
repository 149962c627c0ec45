// SpecSync-Cherrypick: exhaustive hyperparameter search (paper Sec. VI-A,
// Table II).
//
// Runs one full (short-budget) training per (ABORT_TIME, ABORT_RATE) grid
// point and keeps the pair with the best time-to-target (falling back to
// lowest final loss when nothing converges). The paper bounds ABORT_TIME by
// half the iteration time and tries 10 ABORT_RATE values; we default to the
// same shape.
#pragma once

#include <vector>

#include "harness/parallel_runner.h"

namespace specsync {

struct GridSearchConfig {
  // ABORT_TIME candidates as fractions of the workload iteration time.
  std::vector<double> time_fractions = {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5};
  // ABORT_RATE candidates (fraction of m).
  std::vector<double> rates = {0.05, 0.1, 0.15, 0.2, 0.25,
                               0.3,  0.4, 0.5,  0.6, 0.75};
  // Budget per trial.
  SimTime trial_max_time = SimTime::FromSeconds(4000.0);
  std::uint64_t seed = 11;
  // Trials are independent cells; >1 fans them over a thread pool. The
  // selected optimum and all trial results are identical at any thread count
  // (every trial pins `seed`, so only the grid point varies).
  std::size_t threads = 1;
};

struct GridTrial {
  SpeculationParams params;
  std::optional<Duration> time_to_target;
  double final_loss = 0.0;
};

struct GridSearchResult {
  SpeculationParams best;
  std::vector<GridTrial> trials;
  // Simulated cluster-hours the search consumed (Table II's "total search
  // time"): sum over trials of simulated end time.
  Duration total_simulated_time = Duration::Zero();
  // Host-side telemetry: the cells and per-cell results (trial order), the
  // wall time of the whole search, and the sum of per-trial wall times (what
  // a serial search would have cost).
  std::vector<ExperimentCell> cells;
  std::vector<CellResult> cell_results;
  double wall_seconds = 0.0;
  double serial_wall_estimate = 0.0;
};

GridSearchResult CherrypickSearch(const Workload& workload,
                                  const ClusterSpec& cluster,
                                  const GridSearchConfig& config);

}  // namespace specsync
