#include "harness/grid_search.h"

#include <chrono>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"

namespace specsync {

GridSearchResult CherrypickSearch(const Workload& workload,
                                  const ClusterSpec& cluster,
                                  const GridSearchConfig& config) {
  SPECSYNC_CHECK(!config.time_fractions.empty());
  SPECSYNC_CHECK(!config.rates.empty());

  GridSearchResult result;
  // One cell per grid point, every trial pinned to the same seed so the grid
  // point is the only varying factor (the paper's controlled search).
  for (double fraction : config.time_fractions) {
    for (double rate : config.rates) {
      SpeculationParams params;
      params.abort_time = workload.iteration_time * fraction;
      params.abort_rate = rate;

      ExperimentCell cell;
      cell.workload = workload;
      cell.config.cluster = cluster;
      cell.config.scheme = SchemeSpec::Cherrypick(params);
      cell.config.max_time = config.trial_max_time;
      cell.explicit_seed = config.seed;
      std::ostringstream label;
      label << "grid f=" << fraction << " r=" << rate;
      cell.label = label.str();
      result.cells.push_back(std::move(cell));
    }
  }

  ParallelRunnerOptions options;
  options.threads = config.threads;
  const auto start = std::chrono::steady_clock::now();
  result.cell_results = ParallelRunner(options).Run(result.cells);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Selection sweeps the trials in grid order, exactly as the serial loop
  // did: converged trials by time-to-target, else lowest final loss.
  double best_time = std::numeric_limits<double>::infinity();
  double best_loss = std::numeric_limits<double>::infinity();
  bool best_converged = false;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const ExperimentResult& run = result.cell_results[i].result;
    const SpeculationParams& params =
        result.cells[i].config.scheme.fixed_params;
    result.serial_wall_estimate += result.cell_results[i].wall_seconds;

    GridTrial logged;
    logged.params = params;
    logged.time_to_target = run.time_to_target;
    logged.final_loss = run.final_loss;
    result.trials.push_back(logged);
    result.total_simulated_time += run.sim.end_time - SimTime::Zero();

    const bool converged = run.time_to_target.has_value();
    const double t = converged ? run.time_to_target->seconds()
                               : std::numeric_limits<double>::infinity();
    const bool better =
        (converged && (!best_converged || t < best_time)) ||
        (!converged && !best_converged && run.final_loss < best_loss);
    if (better) {
      best_time = t;
      best_loss = run.final_loss;
      best_converged = converged;
      result.best = params;
    }
  }
  SPECSYNC_LOG(kInfo) << "cherrypick(" << workload.name
                      << "): abort_time=" << result.best.abort_time
                      << " abort_rate=" << result.best.abort_rate
                      << " over " << result.trials.size() << " trials";
  return result;
}

}  // namespace specsync
