// Mailbox for message passing, with an optional FaultPlan in the wire.
//
// The runtime gives each worker one as the outbox of its control messages,
// which the worker itself drains into the scheduler (Send / ReceiveUntil /
// Close); Receive blocks, for a receiver on another thread. With a plan,
// each Send consults the plan's
// control-link decision: dropped messages are swallowed, duplicated messages
// are enqueued twice, and delayed messages become visible to receivers only
// after their extra delay elapses. With a null or inert plan every message is
// ready immediately and (ready, seq) ordering degenerates to FIFO: a plain
// mailbox.
//
// Close() releases all blocked receivers and makes still-delayed messages
// deliverable immediately (the shutdown path must drain, not wait out,
// injected latency).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
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

  // Enqueues a message subject to fault injection; returns false if the
  // mailbox is closed. A dropped message still returns true — the sender
  // cannot tell a swallowed message from a delivered one.
  bool Send(T message) {
    FaultDecision decision;
    if (plan_ != nullptr && plan_->enabled()) {
      decision = plan_->OnMessage(link_);
    }
    return Enqueue(std::move(message), decision);
  }

  // Enqueues bypassing fault injection. For lifecycle/control-plane events
  // (worker down/up) modeled as reliable failure detection, not as messages
  // on the lossy link.
  bool SendReliable(T message) { return Enqueue(std::move(message), {}); }

  // Blocks until a ready message arrives or the mailbox closes; nullopt on
  // close with an empty queue.
  std::optional<T> Receive() { return ReceiveUntil(TimePoint::max()); }

  // As Receive(), but also returns nullopt once `deadline` passes.
  std::optional<T> ReceiveUntil(TimePoint deadline) {
    std::unique_lock lock(mutex_);
    for (;;) {
      const TimePoint now = std::chrono::steady_clock::now();
      if (!queue_.empty() && (closed_ || queue_.top().ready <= now)) {
        return PopLocked();
      }
      if (closed_ && queue_.empty()) return std::nullopt;
      if (now >= deadline) return std::nullopt;
      TimePoint wake = deadline;
      if (!queue_.empty() && queue_.top().ready < wake) {
        wake = queue_.top().ready;
      }
      if (wake == TimePoint::max()) {
        available_.wait(lock);
      } else {
        available_.wait_until(lock, wake);
      }
    }
  }

  // Closed with nothing left to deliver (delayed messages become deliverable
  // on close, so closed + empty queue really is the end of the stream).
  bool drained() const {
    std::scoped_lock lock(mutex_);
    return closed_ && queue_.empty();
  }

  void Close() {
    {
      std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    available_.notify_all();
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

  bool Enqueue(T message, const FaultDecision& decision) {
    {
      std::scoped_lock lock(mutex_);
      if (closed_) return false;
      if (decision.drop) return true;
      const TimePoint ready =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(decision.extra_delay.seconds()));
      if (decision.duplicate) queue_.push(Entry{ready, next_seq_++, message});
      queue_.push(Entry{ready, next_seq_++, std::move(message)});
    }
    // A new front entry may move a receiver's wake-up earlier; duplicates
    // can satisfy two receivers at once.
    available_.notify_all();
    return true;
  }

  // Requires mutex_ held and queue_ non-empty.
  std::optional<T> PopLocked() {
    T message = std::move(const_cast<Entry&>(queue_.top()).message);
    queue_.pop();
    return message;
  }

  FaultPlan* plan_;
  LinkClass link_;
  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace specsync
