// Property-based event-queue equivalence harness (DESIGN.md §12).
//
// Each trial generates a random event-stream schedule — pushes with delta
// mixtures that force duplicate timestamps, zero-delay self-inserts (a push
// landing exactly at the last popped time), sub-bucket-width clusters, and
// far-future outliers (resize + direct-search paths) — interleaved with pops
// and cancels (including stale cancels of already-popped handles). The
// schedule replays against the queue under test and an independently written
// reference model (a flat vector popped by min-(time, sequence) scan, no
// shared code), and every observable must match exactly:
//
//  * pop order      — each pop returns the same (time, id) pair;
//  * peek           — PeekTime before each pop equals the reference min;
//  * cancel result  — Cancel(id) removed an event iff the reference still
//                     held it (stale/duplicate cancels are no-ops on both).
//
// On failure the harness shrinks the op list to a 1-minimal counterexample
// (greedy ddmin, same scheme as consistency_property_test) and prints it. A
// deliberately planted tie-break violation (LIFO among equal times) must be
// caught and shrunk to a hand-checkable handful of ops — the harness-teeth
// check.
//
// Schedules are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/calendar_queue.h"
#include "sim/event_fn.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() {
  if (const char* env = std::getenv("SPECSYNC_PROPERTY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260808;
}

// --- schedules ---------------------------------------------------------------

enum class OpKind { kPush, kPop, kCancel };

// One schedule event. kPush schedules event `id` at (last popped time +
// delta); kPop pops the minimum if any; kCancel cancels push `target` — a
// no-op (checked to agree on both sides) when that push never ran, already
// popped, or was already cancelled. Every op is executable after arbitrary
// deletions, which keeps shrinking well-defined.
struct Op {
  OpKind kind = OpKind::kPush;
  int id = 0;        // kPush: unique event id (its index in the op list)
  double delta = 0;  // kPush: seconds after the queue's current floor
  int target = 0;    // kCancel: id of the push to cancel
};

struct Schedule {
  std::vector<Op> ops;
};

Schedule GenerateSchedule(std::uint64_t seed) {
  Rng rng(seed);
  Schedule s;
  const std::size_t len = 10 + rng.Index(111);  // 10..120 ops
  s.ops.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    Op op;
    const std::size_t roll = rng.Index(100);
    if (roll < 55) {
      op.kind = OpKind::kPush;
      op.id = static_cast<int>(i);
      // Delta mixture: exact duplicates of the floor (zero-delay
      // self-inserts), exact duplicates of each other (integer grid),
      // sub-width fractions, and far-future outliers that leave the
      // calendar's current year.
      const std::size_t shape = rng.Index(10);
      if (shape < 2) {
        op.delta = 0.0;
      } else if (shape < 5) {
        op.delta = static_cast<double>(rng.Index(5));
      } else if (shape < 8) {
        op.delta = rng.Uniform(0.0, 2.0);
      } else if (shape < 9) {
        op.delta = rng.Uniform(100.0, 1100.0);
      } else {
        op.delta = rng.Uniform(1e6, 1e9);
      }
    } else if (roll < 85) {
      op.kind = OpKind::kPop;
    } else {
      op.kind = OpKind::kCancel;
      op.target = static_cast<int>(rng.Index(len));
    }
    s.ops.push_back(op);
  }
  return s;
}

std::string FormatOps(const Schedule& s) {
  std::ostringstream out;
  out << "ops:";
  for (const Op& op : s.ops) {
    out << ' ';
    switch (op.kind) {
      case OpKind::kPush:
        out << "P" << op.id << "@+" << op.delta;
        break;
      case OpKind::kPop:
        out << "pop";
        break;
      case OpKind::kCancel:
        out << "X" << op.target;
        break;
    }
  }
  return out.str();
}

// --- reference model ---------------------------------------------------------

// Independent implementation of the documented queue semantics: a flat list
// popped by linear min-(time, sequence) scan. Shares no code with the queues
// it judges.
struct RefQueue {
  struct Entry {
    double time = 0.0;
    std::uint64_t sequence = 0;
    int id = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t next_sequence = 0;

  void Push(double time, int id) {
    entries.push_back(Entry{time, next_sequence++, id});
  }
  bool Cancel(int id) {
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->id == id) {
        entries.erase(it);
        return true;
      }
    }
    return false;
  }
  std::optional<Entry> Pop() {
    if (entries.empty()) return std::nullopt;
    auto min = entries.begin();
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->time < min->time ||
          (it->time == min->time && it->sequence < min->sequence)) {
        min = it;
      }
    }
    Entry out = *min;
    entries.erase(min);
    return out;
  }
};

// --- subjects ----------------------------------------------------------------

// The queue under test, type-erased so the harness can drive the calendar
// queue and planted-bug impostors identically.
struct Subject {
  std::function<void(double time, int id)> push;
  std::function<bool(int id)> cancel;  // false = nothing removed
  // Returns (PeekTime, popped id); checks internally that peek matches pop.
  std::function<std::optional<std::pair<double, int>>()> pop;
  std::function<std::size_t()> size;
};

using SubjectFactory = std::function<Subject()>;

Subject CalendarSubject() {
  auto queue = std::make_shared<CalendarQueue<int>>();
  auto handles = std::make_shared<std::map<int, CalendarQueue<int>::Handle>>();
  return {
      [queue, handles](double time, int id) {
        (*handles)[id] = queue->Push(SimTime::FromSeconds(time), id);
      },
      [queue, handles](int id) {
        auto it = handles->find(id);
        return it != handles->end() && queue->Cancel(it->second);
      },
      [queue]() -> std::optional<std::pair<double, int>> {
        if (queue->empty()) return std::nullopt;
        const double peek = queue->PeekTime().seconds();
        SimTime popped_at;
        const int id = queue->PopMin(&popped_at);
        EXPECT_EQ(peek, popped_at.seconds());
        return std::make_pair(popped_at.seconds(), id);
      },
      [queue] { return queue->size(); },
  };
}

// The planted bug: correct times, but LIFO among equal times — the tie-break
// violation the (time, sequence) contract exists to forbid. The harness must
// catch it and shrink the witness to a few ops.
Subject LifoTieBreakSubject() {
  auto queue = std::make_shared<RefQueue>();
  return {
      [queue](double time, int id) { queue->Push(time, id); },
      [queue](int id) { return queue->Cancel(id); },
      [queue]() -> std::optional<std::pair<double, int>> {
        if (queue->entries.empty()) return std::nullopt;
        auto min = queue->entries.begin();
        for (auto it = queue->entries.begin(); it != queue->entries.end();
             ++it) {
          if (it->time < min->time ||
              (it->time == min->time && it->sequence > min->sequence)) {
            min = it;  // newest-first among ties: the bug
          }
        }
        auto out = std::make_pair(min->time, min->id);
        queue->entries.erase(min);
        return out;
      },
      [queue] { return queue->entries.size(); },
  };
}

// --- execution ---------------------------------------------------------------

struct RunOutcome {
  bool ok = true;
  std::string detail;
};

RunOutcome RunSchedule(const Schedule& schedule, const SubjectFactory& make) {
  Subject subject = make();
  RefQueue ref;
  RunOutcome out;
  double floor = 0.0;  // last popped time; pushes land at floor + delta

  const auto fail = [&](std::size_t op_index, const std::string& what) {
    std::ostringstream msg;
    msg << "op " << op_index << ": " << what;
    out.ok = false;
    out.detail = msg.str();
  };

  const auto check_pop = [&](std::size_t op_index) {
    const auto want = ref.Pop();
    const auto got = subject.pop();
    if (want.has_value() != got.has_value()) {
      fail(op_index, want.has_value() ? "subject empty, reference is not"
                                      : "subject popped from empty queue");
      return false;
    }
    if (!want.has_value()) return true;
    if (got->first != want->time || got->second != want->id) {
      std::ostringstream what;
      what << "pop mismatch: subject (" << got->first << ", id " << got->second
           << "), reference (" << want->time << ", id " << want->id << ")";
      fail(op_index, what.str());
      return false;
    }
    floor = want->time;
    return true;
  };

  for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
    const Op& op = schedule.ops[i];
    switch (op.kind) {
      case OpKind::kPush: {
        const double time = floor + op.delta;
        ref.Push(time, op.id);
        subject.push(time, op.id);
        break;
      }
      case OpKind::kPop:
        if (!check_pop(i)) return out;
        break;
      case OpKind::kCancel: {
        const bool got = subject.cancel(op.target);
        const bool want = ref.Cancel(op.target);
        if (got != want) {
          std::ostringstream what;
          what << "cancel(" << op.target << ") mismatch: subject "
               << (got ? "removed" : "no-op") << ", reference "
               << (want ? "removed" : "no-op");
          fail(i, what.str());
          return out;
        }
        break;
      }
    }
    if (subject.size() != ref.entries.size()) {
      std::ostringstream what;
      what << "size mismatch: subject " << subject.size() << ", reference "
           << ref.entries.size();
      fail(i, what.str());
      return out;
    }
  }

  // Drain: the full remaining order must match.
  while (!ref.entries.empty() || subject.size() > 0) {
    if (!check_pop(schedule.ops.size())) return out;
  }
  return out;
}

// --- shrinking ---------------------------------------------------------------

// Greedy ddmin, same scheme as consistency_property_test: repeatedly delete
// the largest op chunk that preserves the failure, halving the chunk until
// single ops survive. The result is 1-minimal.
Schedule Shrink(Schedule schedule, const SubjectFactory& make) {
  const auto still_fails = [&](const Schedule& candidate) {
    return !RunSchedule(candidate, make).ok;
  };
  std::size_t chunk = std::max<std::size_t>(1, schedule.ops.size() / 2);
  for (;;) {
    bool removed_any = false;
    std::size_t offset = 0;
    while (offset < schedule.ops.size()) {
      Schedule candidate = schedule;
      const std::size_t end = std::min(offset + chunk, candidate.ops.size());
      candidate.ops.erase(candidate.ops.begin() + offset,
                          candidate.ops.begin() + end);
      if (still_fails(candidate)) {
        schedule = std::move(candidate);
        removed_any = true;
      } else {
        offset += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed_any) break;
    } else {
      chunk /= 2;
    }
  }
  return schedule;
}

void RunTrials(const SubjectFactory& make, std::size_t trials) {
  const std::uint64_t base = BaseSeed();
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = base + trial * 1000003ULL;
    const Schedule schedule = GenerateSchedule(seed);
    const RunOutcome outcome = RunSchedule(schedule, make);
    if (!outcome.ok) {
      const Schedule minimal = Shrink(schedule, make);
      const RunOutcome replay = RunSchedule(minimal, make);
      FAIL() << "seed " << seed << " (trial " << trial
             << "): " << outcome.detail << "\nminimal counterexample ("
             << minimal.ops.size() << " ops): " << FormatOps(minimal)
             << "\nminimal failure: " << replay.detail;
    }
  }
}

// --- the battery -------------------------------------------------------------

TEST(CalendarQueueProperty, MatchesReferenceOn1kRandomStreams) {
  RunTrials(CalendarSubject, 1000);
}

TEST(CalendarQueueProperty, PlantedTieBreakViolationIsCaughtAndShrunk) {
  // The harness must have teeth: a LIFO-among-ties queue fails some stream,
  // and the witness shrinks to a hand-checkable size.
  const std::uint64_t base = BaseSeed();
  bool caught = false;
  for (std::size_t trial = 0; trial < 200 && !caught; ++trial) {
    const Schedule schedule = GenerateSchedule(base + trial * 1000003ULL);
    if (RunSchedule(schedule, LifoTieBreakSubject).ok) continue;
    caught = true;
    const Schedule minimal = Shrink(schedule, LifoTieBreakSubject);
    EXPECT_FALSE(RunSchedule(minimal, LifoTieBreakSubject).ok);
    // Minimal witness: two same-time pushes and a pop (a drain pop needs 0).
    EXPECT_LE(minimal.ops.size(), 4u)
        << "shrinker left a non-minimal witness: " << FormatOps(minimal);
  }
  EXPECT_TRUE(caught)
      << "no generated stream exposed the planted tie-break bug";
}

// --- deterministic edge cases ------------------------------------------------

TEST(CalendarQueueTest, EqualTimesPopInPushOrder) {
  CalendarQueue<int> queue;
  for (int i = 0; i < 100; ++i) queue.Push(SimTime::FromSeconds(1.0), i);
  for (int i = 0; i < 100; ++i) {
    SimTime at;
    EXPECT_EQ(queue.PopMin(&at), i);
    EXPECT_EQ(at.seconds(), 1.0);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueueTest, FarFutureBacklogFallsBackToDirectSearch) {
  // A huge time gap makes the forward scan's year useless; the direct-search
  // fallback must still find the true minimum and jump the calendar to it.
  CalendarQueue<int> queue;
  queue.Push(SimTime::FromSeconds(0.25), 1);
  queue.Push(SimTime::FromSeconds(1e12), 2);
  queue.Push(SimTime::FromSeconds(1e12 + 0.5), 3);
  EXPECT_EQ(queue.PopMin(), 1);
  EXPECT_EQ(queue.PopMin(), 2);
  queue.Push(SimTime::FromSeconds(1e12 + 0.25), 4);  // between the survivors
  EXPECT_EQ(queue.PopMin(), 4);
  EXPECT_EQ(queue.PopMin(), 3);
}

TEST(CalendarQueueTest, GrowAndShrinkPreserveStrictKeyOrder) {
  CalendarQueue<int> queue;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    queue.Push(SimTime::FromSeconds(rng.Uniform(0.0, 50.0)), i);
  }
  EXPECT_GT(queue.stats().resizes, 0u);
  double last_time = -1.0;
  int pops = 0;
  while (!queue.empty()) {
    SimTime at;
    queue.PopMin(&at);
    EXPECT_GE(at.seconds(), last_time);
    last_time = at.seconds();
    ++pops;
  }
  EXPECT_EQ(pops, 20000);
}

TEST(CalendarQueueTest, StaleCancelAfterSlotReuseIsNoOp) {
  CalendarQueue<int> queue;
  const auto handle = queue.Push(SimTime::FromSeconds(1.0), 1);
  EXPECT_EQ(queue.PopMin(), 1);
  // The node was freed; its slot may be recycled by the next push. The stale
  // handle's generation no longer matches, so the cancel is a no-op.
  queue.Push(SimTime::FromSeconds(2.0), 2);
  EXPECT_FALSE(queue.Cancel(handle));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.PopMin(), 2);
}

TEST(CalendarQueueTest, CancelledEventNeverPops) {
  CalendarQueue<int> queue;
  queue.Push(SimTime::FromSeconds(1.0), 1);
  const auto doomed = queue.Push(SimTime::FromSeconds(1.0), 2);
  queue.Push(SimTime::FromSeconds(1.0), 3);
  EXPECT_TRUE(queue.Cancel(doomed));
  EXPECT_FALSE(queue.Cancel(doomed));  // double cancel is a no-op
  EXPECT_EQ(queue.PopMin(), 1);
  EXPECT_EQ(queue.PopMin(), 3);
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueueTest, SchedulingBeforeTheLastPopIsRejected) {
  CalendarQueue<int> queue;
  queue.Push(SimTime::FromSeconds(5.0), 1);
  queue.PopMin();
  EXPECT_THROW(queue.Push(SimTime::FromSeconds(4.0), 2), CheckError);
  queue.Push(SimTime::FromSeconds(5.0), 3);  // exactly the floor is fine
  EXPECT_EQ(queue.PopMin(), 3);
}

// --- pool lifetime rules under EventFn payloads (ASan-backed) ----------------

TEST(CalendarQueueTest, PopDuringCallbackPushStormIsPoolSafe) {
  // The lifetime rule the Simulator relies on: the payload is moved out
  // before the caller invokes it, so a callback pushing enough events to
  // grow (and relocate) the pool is safe. ASan turns a violation into a
  // hard failure.
  CalendarQueue<EventFn> queue;
  int fired = 0;
  std::function<void(double)> seed_push = [&](double at) {
    queue.Push(SimTime::FromSeconds(at), [&fired, &queue, at] {
      ++fired;
      for (int i = 0; i < 64; ++i) {
        queue.Push(SimTime::FromSeconds(at + 1.0 + i), [&fired] { ++fired; });
      }
    });
  };
  seed_push(1.0);
  EventFn first = queue.PopMin();
  first();  // grows the pool from inside the "event"
  EXPECT_EQ(fired, 1);
  while (!queue.empty()) {
    EventFn fn = queue.PopMin();
    fn();
  }
  EXPECT_EQ(fired, 65);
}

TEST(CalendarQueueTest, CancelAndTeardownDestroyBoxedPayloads) {
  // Closures above EventFn's inline budget are heap-boxed; cancelling a
  // pending event and destroying a non-empty queue must both free the box
  // (ASan catches leaks and double-frees).
  auto token = std::make_shared<int>(42);
  struct Big {
    std::shared_ptr<int> token;
    char pad[128];
  };
  static_assert(sizeof(Big) > EventFn::kInlineBytes);
  {
    CalendarQueue<EventFn> queue;
    const auto doomed = queue.Push(
        SimTime::FromSeconds(1.0),
        [big = Big{token, {}}] { FAIL() << "cancelled event fired"; });
    queue.Push(SimTime::FromSeconds(2.0),
               [big = Big{token, {}}] { FAIL() << "never-popped event fired"; });
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_TRUE(queue.Cancel(doomed));
    EXPECT_EQ(token.use_count(), 2) << "cancel must destroy the payload now";
  }
  EXPECT_EQ(token.use_count(), 1) << "teardown must destroy pending payloads";
}

}  // namespace
}  // namespace specsync
