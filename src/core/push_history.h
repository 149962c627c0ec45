// Push/pull ledger maintained by the SpecSync scheduler.
//
// The scheduler is the only component with a global view of pushes (paper
// Sec. V-A: centralizing this information avoids all-to-all broadcast and
// per-worker storage redundancy). The ledger answers the two questions the
// protocol needs: "how many pushes landed in this window?" (the speculation
// check) and "what did last epoch's push/pull sequence look like?" (the
// adaptive tuner's replay).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace specsync {

struct PushRecord {
  SimTime time;
  WorkerId worker = kInvalidWorker;
  IterationId iteration = 0;
};

struct PullRecord {
  SimTime time;
  WorkerId worker = kInvalidWorker;
};

class PushHistory {
 public:
  explicit PushHistory(std::size_t num_workers);

  void RecordPush(WorkerId worker, IterationId iteration, SimTime time);
  void RecordPull(WorkerId worker, SimTime time);

  std::size_t num_workers() const { return num_workers_; }
  std::size_t push_count() const { return pushes_.size(); }
  std::span<const PushRecord> pushes() const { return pushes_; }

  // Pushes in the half-open window (begin, end], optionally excluding one
  // worker's own pushes (the speculator cannot benefit from its own update).
  std::size_t CountPushesInWindow(SimTime begin, SimTime end,
                                  WorkerId exclude = kInvalidWorker) const;

  // All pushes with time in (begin, end], in time order. Valid until the next
  // RecordPush or Trim.
  std::span<const PushRecord> PushesInWindow(SimTime begin, SimTime end) const;

  // Most recent pull by `worker` at or before `time` (nullopt if none).
  std::optional<SimTime> LastPullBefore(WorkerId worker, SimTime time) const;

  // Highest iteration ever recorded for `worker` (nullopt before its first
  // push). Survives Trim — the scheduler uses it to recognize duplicated or
  // reordered notifies from faulty links.
  std::optional<IterationId> LastIteration(WorkerId worker) const;

  // Drops records older than `horizon` before `now` (bounds memory over long
  // runs; the tuner only ever replays the previous epoch).
  void Trim(SimTime now, Duration horizon);

 private:
  std::size_t num_workers_;
  std::vector<PushRecord> pushes_;              // append-only, time-ordered
  std::vector<std::vector<SimTime>> pulls_;     // per worker, time-ordered
  // Highest iteration recorded per worker; not affected by Trim.
  std::vector<std::optional<IterationId>> last_iteration_;
};

}  // namespace specsync
