// Bounds regression for the calendar queue's occupancy-bitmap scan.
//
// This translation unit turns on libstdc++'s checked operator[] before any
// standard header is included, so an out-of-range bitmap word read aborts
// here even in a plain (unsanitized) build. The payload type is local to
// this file, so the CalendarQueue instantiation exercised below is compiled
// only here, with the checks on.
#define _GLIBCXX_ASSERTIONS 1

#include <gtest/gtest.h>

#include <cstdint>

#include "common/sim_time.h"
#include "sim/calendar_queue.h"

namespace specsync {
namespace {

struct BoundsPayload {
  int id = 0;
};

// FindMin walks [current day, last bucket] first. When the last bucket is
// occupied by an event from a later year, the walk rejects it and asks the
// bitmap for the next occupied bucket in [num_buckets, num_buckets) — an
// empty range whose bitmap word sits one past the end of the bitmap once the
// ring has >= 64 buckets. The scan must answer "none" without reading it.
TEST(CalendarQueueBoundsTest, FindMinScanPastTheLastBucketStaysInBounds) {
  CalendarQueue<BoundsPayload> queue;
  // 17 events force the first resize, to a ring of >= 64 buckets whose
  // width is derived from their spread. All of them lie years ahead of the
  // current day (time 0), so none is accepted by the forward walk.
  constexpr double kFar = 1000.0;
  for (int i = 0; i < 17; ++i) {
    queue.Push(SimTime::FromSeconds(kFar + i), BoundsPayload{i});
  }
  const std::size_t buckets = queue.num_buckets();
  const double width = queue.bucket_width();
  ASSERT_GE(buckets, 64u);
  ASSERT_GT(kFar, 2.0 * static_cast<double>(buckets) * width)
      << "the seeded events must sit at least one year ahead";

  // One more far-future event, hashed into the very last bucket.
  const std::uint64_t last_bucket_vb =
      static_cast<std::uint64_t>(kFar / width) / buckets * buckets +
      (buckets - 1);
  const double at = (static_cast<double>(last_bucket_vb) + 0.5) * width;
  ASSERT_GT(at, static_cast<double>(buckets) * width);
  queue.Push(SimTime::FromSeconds(at), BoundsPayload{99});
  ASSERT_EQ(queue.num_buckets(), buckets) << "layout must not change";

  // The scan reaches the last bucket, misses, and falls back to the direct
  // search, which still finds the true minimum.
  EXPECT_EQ(queue.PeekTime().seconds(), kFar);
  SimTime previous = SimTime::FromSeconds(0.0);
  int pops = 0;
  while (!queue.empty()) {
    SimTime popped;
    queue.PopMin(&popped);
    EXPECT_GE(popped.seconds(), previous.seconds());
    previous = popped;
    ++pops;
  }
  EXPECT_EQ(pops, 18);
}

}  // namespace
}  // namespace specsync
