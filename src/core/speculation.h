// Speculation hyperparameters and the policy interface that tunes them.
//
// The paper's scheme is governed by two knobs (Sec. IV-A):
//  - ABORT_TIME: how long after an iteration starts the scheduler speculates,
//  - ABORT_RATE: the push-rate threshold (fraction of m) beyond which the
//    ongoing iteration is aborted and restarted on fresher parameters.
// A SpeculationPolicy recomputes them at every epoch boundary.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace specsync {

struct SpeculationParams {
  // Length of the speculation window; Zero() disables speculation.
  Duration abort_time = Duration::Zero();
  // Threshold as a fraction of the worker count m: abort when the number of
  // pushes observed in the window is >= m * abort_rate.
  double abort_rate = 0.0;
  // Optional per-worker thresholds (Sec. IV-B derives Γ_i = l̃_i(Δ*)/m per
  // worker; Algorithm 1 collapses them with the mean span). When non-empty,
  // entry i overrides abort_rate for worker i.
  std::vector<double> per_worker_rate;

  bool enabled() const { return abort_time > Duration::Zero(); }

  double RateFor(WorkerId worker) const {
    if (worker < per_worker_rate.size()) return per_worker_rate[worker];
    return abort_rate;
  }
};

// Everything a policy may look at when retuning at an epoch boundary —
// assembled by the scheduler from its PushHistory.
struct TuningInputs {
  std::size_t num_workers = 0;
  EpochId finished_epoch = 0;
  // Time window covered by the finished epoch.
  SimTime epoch_begin;
  SimTime epoch_end;
  // All pushes in (epoch_begin, epoch_end], time-ordered: (time, worker).
  std::vector<std::pair<SimTime, WorkerId>> pushes;
  // Each worker's last pull time within the finished epoch (its last
  // iteration start), if any.
  std::vector<std::optional<SimTime>> last_pull;
  // Estimated iteration span T_i per worker (always positive).
  std::vector<Duration> iteration_span;
};

class SpeculationPolicy {
 public:
  virtual ~SpeculationPolicy() = default;
  virtual std::string name() const = 0;
  // Recomputes the hyperparameters given the finished epoch's history.
  virtual SpeculationParams OnEpochEnd(const TuningInputs& inputs) = 0;
};

// Fixed hyperparameters — the SpecSync-Cherrypick configuration (values found
// by the harness's grid search) or hand-set values.
class FixedSpeculationPolicy final : public SpeculationPolicy {
 public:
  explicit FixedSpeculationPolicy(SpeculationParams params)
      : params_(std::move(params)) {}
  std::string name() const override { return "fixed"; }
  SpeculationParams OnEpochEnd(const TuningInputs&) override { return params_; }

 private:
  SpeculationParams params_;
};

}  // namespace specsync
