// A single-owner outbox with an optional FaultPlan in the wire.
//
// The runtime gives each worker one for its notifies, which the worker
// itself delivers to the scheduler: it sends, then pops whatever is ready.
// One thread owns the outbox, so nothing here locks. With a plan, each Send
// consults the plan's decision for the outbox's link: dropped messages are
// swallowed, duplicated ones are enqueued twice, and delayed ones become
// ready only after their extra delay elapses. With a null or inert plan
// every message is ready at once and (ready, seq) order is plain FIFO.
//
// An exiting owner pops with TimePoint::max(): every still-delayed message
// is delivered at once, injected latency flushed rather than waited out.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"

namespace specsync {

template <typename T>
class FaultMailbox {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  // `plan` may be null (no fault injection); if non-null it must outlive the
  // mailbox. All sends are treated as traffic on `link`.
  explicit FaultMailbox(FaultPlan* plan = nullptr,
                        LinkClass link = LinkClass::kControl)
      : plan_(plan), link_(link) {}

  FaultMailbox(const FaultMailbox&) = delete;
  FaultMailbox& operator=(const FaultMailbox&) = delete;

  // Enqueues a message subject to fault injection. The sender cannot tell a
  // swallowed message from a delivered one.
  void Send(T message) {
    FaultDecision decision;
    if (plan_ != nullptr && plan_->enabled()) {
      decision = plan_->OnMessage(link_);
    }
    if (decision.drop) return;
    const TimePoint ready =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(decision.extra_delay.seconds()));
    if (decision.duplicate) queue_.push(Entry{ready, next_seq_++, message});
    queue_.push(Entry{ready, next_seq_++, std::move(message)});
  }

  // The next message ready by `now`, in (ready, seq) order; nullopt if none.
  std::optional<T> PopReady(TimePoint now) {
    if (queue_.empty() || queue_.top().ready > now) return std::nullopt;
    T message = std::move(const_cast<Entry&>(queue_.top()).message);
    queue_.pop();
    return message;
  }

 private:
  struct Entry {
    TimePoint ready;
    std::uint64_t seq;
    T message;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return std::tie(a.ready, a.seq) > std::tie(b.ready, b.seq);
    }
  };

  FaultPlan* plan_;
  LinkClass link_;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace specsync
