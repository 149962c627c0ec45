#include "sim/simulator.h"

#include <utility>

namespace specsync {

void Simulator::ScheduleAt(SimTime at, Callback fn) {
  SPECSYNC_CHECK(at >= now_) << "cannot schedule in the past: " << at
                             << " < " << now_;
  SPECSYNC_CHECK(static_cast<bool>(fn)) << "scheduling an empty callback";
  calendar_.Push(at, std::move(fn));
}

void Simulator::ScheduleAfter(Duration delay, Callback fn) {
  SPECSYNC_CHECK(delay >= Duration::Zero())
      << "negative delay: " << delay;
  ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Step() {
  if (pending_events() == 0) return false;
  // PopMin moves the callback out of the queue's node pool before we invoke
  // it: the callback may schedule new events, which can grow the pool and
  // relocate every node (calendar_queue.h lifetime rule 1).
  SimTime time;
  EventFn fn = calendar_.PopMin(&time);
  now_ = time;
  ++events_processed_;
  fn();
  return true;
}

void Simulator::Run(SimTime until) {
  stop_requested_ = false;
  while (!stop_requested_ && pending_events() > 0) {
    if (calendar_.PeekTime() > until) break;
    Step();
  }
}

}  // namespace specsync
