#include "core/push_history.h"

#include <algorithm>

#include "common/check.h"

namespace specsync {

PushHistory::PushHistory(std::size_t num_workers)
    : num_workers_(num_workers),
      pulls_(num_workers),
      last_iteration_(num_workers) {
  SPECSYNC_CHECK_GT(num_workers, 0u);
}

void PushHistory::RecordPush(WorkerId worker, IterationId iteration,
                             SimTime time) {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  SPECSYNC_CHECK(pushes_.empty() || pushes_.back().time <= time)
      << "pushes must be recorded in time order";
  pushes_.push_back(PushRecord{time, worker, iteration});
  std::optional<IterationId>& last = last_iteration_[worker];
  if (!last.has_value() || iteration > *last) last = iteration;
}

void PushHistory::RecordPull(WorkerId worker, SimTime time) {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  SPECSYNC_CHECK(pulls_[worker].empty() || pulls_[worker].back() <= time)
      << "pulls must be recorded in time order";
  pulls_[worker].push_back(time);
}

namespace {

// Iterator to the first push with time > t.
auto FirstAfter(const std::vector<PushRecord>& pushes, SimTime t) {
  return std::upper_bound(
      pushes.begin(), pushes.end(), t,
      [](SimTime time, const PushRecord& rec) { return time < rec.time; });
}

}  // namespace

std::size_t PushHistory::CountPushesInWindow(SimTime begin, SimTime end,
                                             WorkerId exclude) const {
  std::size_t count = 0;
  for (auto it = FirstAfter(pushes_, begin); it != pushes_.end(); ++it) {
    if (it->time > end) break;
    if (it->worker != exclude) ++count;
  }
  return count;
}

std::span<const PushRecord> PushHistory::PushesInWindow(SimTime begin,
                                                        SimTime end) const {
  const auto first = FirstAfter(pushes_, begin);
  return {first, std::max(first, FirstAfter(pushes_, end))};
}

std::optional<SimTime> PushHistory::LastPullBefore(WorkerId worker,
                                                   SimTime time) const {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  const auto& pulls = pulls_[worker];
  auto it = std::upper_bound(pulls.begin(), pulls.end(), time);
  if (it == pulls.begin()) return std::nullopt;
  return *std::prev(it);
}

std::optional<IterationId> PushHistory::LastIteration(WorkerId worker) const {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  return last_iteration_[worker];
}

void PushHistory::Trim(SimTime now, Duration horizon) {
  const SimTime cutoff = now - horizon;
  auto first_kept = std::partition_point(
      pushes_.begin(), pushes_.end(),
      [cutoff](const PushRecord& rec) { return rec.time < cutoff; });
  pushes_.erase(pushes_.begin(), first_kept);
  for (auto& pulls : pulls_) {
    auto kept = std::lower_bound(pulls.begin(), pulls.end(), cutoff);
    pulls.erase(pulls.begin(), kept);
  }
}

}  // namespace specsync
