// The consistency layer: how a scheme becomes an iteration-start gate, for
// both engines. ASP, BSP and SSP are the paper's base models (Sec. II-C);
// per-shard SSP (PSSP-style per-(worker, shard) clocks) and dynamic SSP
// (DSSP/ABS-style staleness retuning from observed push inter-arrivals) are
// the first two stages of the adaptive sync-policy engine.
//
// A controller decides when a worker may *start* its next iteration, given
// everyone's progress. SpecSync layers on top of any of these (the paper
// implements it over ASP and notes it composes with SSP) — the controller
// gates iteration starts while SpecSync decides mid-iteration restarts.
//
// Every gated scheme runs on one implementation, PerShardSspController, built
// by MakeConsistencyController; ASP builds no controller and skips gating.
// Both engines reach it only through the worker protocol
// (protocol/worker_protocol.h), which locks it for the runtime's threads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace specsync {

namespace obs {
class DecisionAuditLog;
}  // namespace obs

// Per-shard SSP: the one bounded-staleness gate.
//
// Keeps one logical clock per (worker, shard): clock(w, s) is w's completed
// iteration count on every shard in w's *write set* and 0 elsewhere. A
// worker is gated only on the shards it actually writes: it may start
// iteration t iff for every shard s in its write set,
//
//     t <= min{ clock(w', s) : live w' with s in write_set(w') } + staleness.
//
// Workers with disjoint write sets never gate on each other — the sparse-MF
// win: a worker whose gradients only ever touch shards {0, 1} is not held
// back by a straggler that only writes shard 7. With every write set frozen
// to "all shards" (BSP and SSP, see MakeConsistencyController) this is
// exactly global SSP over the live workers.
//
// Write sets are either declared up front (SetWriteSet) or *learned*: the
// union of shards observed in the worker's pushes. Learning only ever grows
// a set; a worker with an empty (not yet learned) set is ungated. Every push
// advances the clocks of the worker's whole current write set — a finished
// iteration is finished on every shard the worker owns-writes, even when one
// batch's gradient happened to miss a shard — which is what makes the
// per-shard liveness argument go through (the least-progressed live writer
// of any shard is never blocked).
//
// Crash handling: OnWorkerDown excuses the worker from every min (its clocks
// stop counting); OnWorkerUp re-admits it at its old clocks, so peers block
// until it catches back up — the bound holds across the rejoin.
class PerShardSspController {
 public:
  PerShardSspController(std::size_t num_workers, std::size_t num_shards,
                        std::uint64_t staleness);
  virtual ~PerShardSspController() = default;

  // May `worker` start its iteration number `next_iteration` (0-based) now?
  virtual bool MayStart(WorkerId worker, IterationId next_iteration) const;
  // Records that `worker` finished (pushed) its iteration `iteration` at
  // `now`. `touched_shards` lists the shards the push's gradient routed to
  // (empty = unknown/all, the dense case).
  virtual void OnPush(WorkerId worker, IterationId iteration, SimTime now,
                      std::span<const std::size_t> touched_shards);
  // Membership churn (crash / rejoin), described above.
  void OnWorkerDown(WorkerId worker);
  void OnWorkerUp(WorkerId worker);

  // Declares `worker`'s write set and freezes it (disables learning for that
  // worker). Clocks for newly added shards start at the worker's current
  // completed count.
  void SetWriteSet(WorkerId worker, const std::vector<std::size_t>& shards);

  // The first shard in `worker`'s write set that currently blocks iteration
  // `next_iteration`, if any (obs attribution / tests).
  std::optional<std::size_t> FirstBlockingShard(
      WorkerId worker, IterationId next_iteration) const;

  std::uint64_t staleness() const { return staleness_; }
  std::size_t num_workers() const { return num_workers_; }
  std::size_t num_shards() const { return num_shards_; }
  std::uint64_t completed(WorkerId worker) const;
  std::uint64_t clock(WorkerId worker, std::size_t shard) const;
  bool writes(WorkerId worker, std::size_t shard) const;
  bool live(WorkerId worker) const;
  // Minimum clock on `shard` over live writers; nullopt when no live worker
  // writes it (an unwritten shard gates nobody).
  std::optional<std::uint64_t> MinShardClock(std::size_t shard) const;

 protected:
  // Dynamic subclass retunes the bound between epochs.
  void SetStalenessBound(std::uint64_t staleness) { staleness_ = staleness; }

 private:
  std::size_t num_workers_;
  std::uint64_t staleness_;
  std::size_t num_shards_;
  std::vector<std::uint64_t> completed_;            // per worker
  std::vector<std::vector<std::uint64_t>> clock_;   // [worker][shard]
  std::vector<std::vector<char>> writes_;           // [worker][shard]
  std::vector<char> write_set_frozen_;              // SetWriteSet called
  std::vector<char> live_;
};

// Dynamic SSP (stage 2): per-shard gating plus a staleness bound retuned
// once per epoch from observed push inter-arrival statistics, after
// DSSP (arXiv:1908.11848) and ABS (arXiv:2301.08895).
//
// Retune rule: over each epoch (one full advance of the slowest live
// worker), accumulate every worker's mean push inter-arrival time. The
// straggler ratio r = slowest mean / fastest mean says how many iterations
// the fastest worker completes per slowest iteration; a bound of about
// ceil(headroom * (r - 1)) lets the fast workers run unblocked through one
// slowest-iteration without admitting more staleness than the speed skew
// forces. The ratio is EWMA-smoothed across epochs so one noisy epoch does
// not thrash the bound; the result is clamped to [min_staleness,
// max_staleness]. Each *adjustment* (not each evaluation) emits one
// RetuneRecord (kind = staleness) into the attached DecisionAuditLog.
struct DynamicSspConfig {
  std::uint64_t initial_staleness = 3;
  std::uint64_t min_staleness = 0;
  std::uint64_t max_staleness = 16;
  // Weight of the newest epoch's straggler ratio in the EWMA.
  double ewma = 0.5;
  // Multiplier on (ratio - 1) when deriving the bound: > 1 trades staleness
  // for fewer blocks, < 1 the reverse.
  double headroom = 1.0;
};

class DynamicSspController final : public PerShardSspController {
 public:
  DynamicSspController(std::size_t num_workers, std::size_t num_shards,
                       DynamicSspConfig config = {});

  void OnPush(WorkerId worker, IterationId iteration, SimTime now,
              std::span<const std::size_t> touched_shards) override;

  // Retune records land here (not owned; may be null). Attach before use.
  void AttachAudit(obs::DecisionAuditLog* audit) { audit_ = audit; }

  std::uint64_t retunes() const { return retunes_; }
  double smoothed_ratio() const { return smoothed_ratio_; }

 private:
  void MaybeRetune(SimTime now);

  DynamicSspConfig config_;
  obs::DecisionAuditLog* audit_ = nullptr;

  // Per-worker inter-arrival accumulators for the current epoch window.
  std::vector<std::optional<SimTime>> last_push_;
  std::vector<Duration> interval_sum_;
  std::vector<std::uint64_t> interval_count_;
  std::uint64_t window_pushes_ = 0;
  std::uint64_t last_retune_progress_ = 0;
  double smoothed_ratio_ = 0.0;  // 0 = no epoch measured yet
  std::uint64_t retunes_ = 0;
};

// Which consistency model gates iteration starts. kPssp applies the bound
// only to the shards a worker's gradients touch; kDssp adds per-epoch
// retuning of the bound.
enum class ConsistencyScheme { kAsp, kBsp, kSsp, kPssp, kDssp };

struct ConsistencySpec {
  ConsistencyScheme scheme = ConsistencyScheme::kAsp;
  std::uint64_t staleness = 3;  // kSsp and kPssp
  DynamicSspConfig dssp;        // kDssp
};

// The one place a scheme becomes a gate. Returns null under kAsp (no gate);
// otherwise a controller over `num_workers` workers and `num_shards` shards:
//   kBsp  — per-shard, bound 0, every write set frozen to all shards;
//   kSsp  — the same with bound spec.staleness;
//   kPssp — bound spec.staleness, write sets learned from pushes;
//   kDssp — a DynamicSspController configured by spec.dssp.
//
// Exact SSP boundary semantics (pinned by SspBoundaryTest): with dense
// frozen write sets a worker may *start* iteration t (0-based) iff
// t <= c + s, where c is the completed-iteration count of the slowest live
// worker. Equivalently: every live worker must have *finished* iteration
// t-s-1, i.e. the fastest worker runs at most s iterations of work ahead of
// the slowest. The boundary cases:
//
//   next t | slowest completed c | allowed?
//   -------+---------------------+--------------------------
//     t    |  c >= t - s         | yes (t <= c + s)
//     t    |  c == t - s - 1     | no  (first blocked case)
//     0    |  anything           | yes (t = 0 <= c + s always)
//
// With s = 0 this is BSP: nobody starts t+1 until everyone pushed t. Note
// the *observed* progress skew between two workers can still reach s + 1
// mid-iteration: a worker admitted at t = c + s finishes and pushes t while
// the slowest has still completed only c.
std::unique_ptr<PerShardSspController> MakeConsistencyController(
    const ConsistencySpec& spec, std::size_t num_workers,
    std::size_t num_shards);

}  // namespace specsync
