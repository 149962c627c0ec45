// Calendar-queue event scheduling with pooled nodes (DESIGN.md §12).
//
// A calendar queue (Brown 1988) hashes each event by time into a circular
// array of day-buckets of width `width_` seconds; one "year" is
// num_buckets × width. Pops walk the calendar forward from the current day,
// so in the DES steady state (event times clustered a bounded horizon past
// `now`) both Push and PopMin are O(1) amortized — versus O(log n) with two
// std::function heap allocations per event for the binary-heap queue it
// replaced (reconstructed in benchmarks/bench_scale.cc as the A/B baseline).
//
// ## Ordering contract (the golden-trace invariant)
//
// Events pop in strictly increasing (time, sequence) order, where `sequence`
// is the queue-assigned insertion counter. This is the exact tie-break the
// old binary heap applied, so pop order — and therefore every pinned trace
// digest — survived the switch unchanged. The bucket layout, the bucket
// width, and every resize are invisible to pop order: they only decide where
// an event waits, never when it pops (regression-proved against an
// independent flat reference model in
// tests/sim/calendar_queue_property_test.cc).
//
// ## Pool lifetime rules
//
// Nodes live in one contiguous pool (`nodes_`) recycled through a free list.
// Two rules keep the pool sound (ASan-enforced by the property and sim
// suites):
//  1. PopMin() moves the payload OUT of the pool before returning — a
//     callback that pushes new events may grow the pool and relocate every
//     node, so callers must never invoke a payload in place.
//  2. A node's payload is destroyed (moved from) exactly once: on pop or with
//     the queue. The free list stores only empty payloads.
//
// ## Monotonicity contract
//
// Pushed times must be >= the last popped time (the DES "no scheduling in
// the past" rule); Push checks it. Times must be finite and non-negative.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"

namespace specsync {

struct CalendarQueueStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t resizes = 0;
  std::size_t max_size = 0;
  // Buckets inspected across all FindMin scans (scan_steps / pops ~ 1 when
  // the width heuristic is tracking the event-time distribution).
  std::uint64_t scan_steps = 0;
  // Chain links walked across all bucket insertions (insert_steps / pushes
  // ~ 0.5 at the target bucket load; sustained growth triggers a rebuild).
  std::uint64_t insert_steps = 0;
};

template <typename T>
class CalendarQueue {
 public:
  CalendarQueue() { Rebuild(kMinBuckets, /*new_width=*/1.0); }

  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const CalendarQueueStats& stats() const { return stats_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  double bucket_width() const { return width_; }

  // Schedules `value` at `time`; assigns the next sequence number (FIFO among
  // equal times). `time` must be finite, non-negative, and not before the
  // last popped time.
  void Push(SimTime time, T value) {
    const double t = time.seconds();
    SPECSYNC_CHECK(t >= 0.0 && time.is_finite())
        << "event time must be finite and non-negative: " << time;
    SPECSYNC_CHECK(t >= floor_time_)
        << "cannot schedule before the last popped time: " << time << " < "
        << floor_time_;
    if (size_ + 1 > (buckets_.size() << 1)) Resize();

    const std::uint32_t index = AllocNode();
    Node& node = nodes_[index];
    node.time = t;
    node.sequence = next_sequence_++;
    node.vb = VirtualBucket(t);
    node.value = std::move(value);
    InsertIntoBucket(index);
    ++size_;
    ++stats_.pushes;
    stats_.max_size = std::max(stats_.max_size, size_);
    // The cached minimum survives a push: the new event either beats it (one
    // key compare, cache retargets) or provably cannot be the minimum.
    if (cache_valid_ && KeyLess(node, nodes_[cached_min_])) {
      cached_min_ = index;
    }
    MaybeRebuildForDrift();
  }

  // Time of the minimum-(time, sequence) event. Queue must be non-empty.
  SimTime PeekTime() {
    FindMin();
    return SimTime::FromSeconds(nodes_[cached_min_].time);
  }

  // Pops the minimum-(time, sequence) event, moving its payload out of the
  // pool (see the lifetime rules above). Queue must be non-empty.
  T PopMin(SimTime* time_out = nullptr) {
    FindMin();
    const std::uint32_t index = cached_min_;
    Node& node = nodes_[index];
    if (time_out != nullptr) *time_out = SimTime::FromSeconds(node.time);
    floor_time_ = node.time;
    current_vb_ = node.vb;  // commit the calendar position the pop reached
    T value = std::move(node.value);
    node.value = T{};
    UnlinkFromBucket(index);
    const std::uint32_t next = node.next;
    const std::uint64_t vb = node.vb;
    FreeNode(index);
    --size_;
    ++stats_.pops;
    if (next != kNil && nodes_[next].vb == vb) {
      // The popped event's chain successor shares its day. Every other live
      // event sits in a later virtual bucket (vb is monotone in time, equal
      // times share a bucket), so the successor is the next global minimum —
      // no rescan needed.
      cached_min_ = next;
    } else {
      cache_valid_ = false;
    }
    MaybeShrink();
    return value;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kFreeBucket = 0xFFFFFFFFu;
  static constexpr std::size_t kMinBuckets = 8;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;
  static constexpr double kMinWidth = 1e-12;

  struct Node {
    double time = 0.0;
    std::uint64_t sequence = 0;
    std::uint64_t vb = 0;            // virtual (un-wrapped) bucket index
    std::uint32_t next = kNil;       // intra-bucket chain, (time, seq) sorted
    std::uint32_t bucket = kFreeBucket;  // kFreeBucket = on the free list
    T value{};
  };

  // floor(t * 1/width) — a cached-reciprocal multiply (division is the single
  // most expensive ALU op on the push path), clamped so that astronomically
  // distant times still land in a valid (far-future) virtual bucket. The
  // product is not bit-equal to t / width, but correctness never needed the
  // quotient — only that the map is monotone in t (fp multiply by a positive
  // constant is) and that equal times share a bucket.
  std::uint64_t VirtualBucket(double t) const {
    const double q = t * inv_width_;
    constexpr double kMaxVb = 9.0e18;  // < 2^63, exactly representable
    return q >= kMaxVb ? static_cast<std::uint64_t>(kMaxVb)
                       : static_cast<std::uint64_t>(q);
  }

  std::uint32_t AllocNode() {
    if (free_head_ != kNil) {
      const std::uint32_t index = free_head_;
      free_head_ = nodes_[index].next;
      return index;
    }
    SPECSYNC_CHECK_LT(nodes_.size(), static_cast<std::size_t>(kNil));
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  void FreeNode(std::uint32_t index) {
    Node& node = nodes_[index];
    node.bucket = kFreeBucket;
    node.next = free_head_;
    free_head_ = index;
  }

  static bool KeyLess(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.sequence < b.sequence;
  }

  void InsertIntoBucket(std::uint32_t index) {
    Node& node = nodes_[index];
    const std::uint32_t b =
        static_cast<std::uint32_t>(node.vb & (buckets_.size() - 1));
    node.bucket = b;
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    std::uint32_t* link = &buckets_[b];
    std::uint64_t steps = 0;
    while (*link != kNil && KeyLess(nodes_[*link], node)) {
      link = &nodes_[*link].next;
      ++steps;
    }
    insert_steps_since_rebuild_ += steps;
    stats_.insert_steps += steps;
    node.next = *link;
    *link = index;
  }

  // Width is normally recomputed only on size-triggered resizes, so a queue
  // whose event-time *spread* drifts at constant size (e.g. a schedule that
  // tightens from seconds to milliseconds of lookahead) can end up with every
  // event hashed into a handful of days, degrading inserts to long chain
  // walks. Detect that from the insert-step counter — sustained average walk
  // beyond ~4 links per push, with a grace of two full calendars — and
  // rebuild with a freshly measured width. Purely layout (pop order is
  // bucket-independent) and deterministic: the trigger depends only on the
  // push/pop history, never on wall time.
  void MaybeRebuildForDrift() {
    ++pushes_since_rebuild_;
    if (insert_steps_since_rebuild_ <=
        (pushes_since_rebuild_ << 2) + (buckets_.size() << 1)) {
      return;
    }
    const double new_width = WidthFor();
    if (new_width != width_) {
      Rebuild(NumBucketsFor(size_), new_width);
    } else {
      // Width can't help (e.g. a spike of equal times); just restart the
      // counters so the check does not fire on every subsequent push.
      pushes_since_rebuild_ = 0;
      insert_steps_since_rebuild_ = 0;
    }
  }

  void UnlinkFromBucket(std::uint32_t index) {
    Node& node = nodes_[index];
    std::uint32_t* link = &buckets_[node.bucket];
    while (*link != index) {
      SPECSYNC_CHECK(*link != kNil) << "node missing from its bucket chain";
      link = &nodes_[*link].next;
    }
    *link = node.next;
    if (buckets_[node.bucket] == kNil) {
      occupied_[node.bucket >> 6] &=
          ~(std::uint64_t{1} << (node.bucket & 63));
    }
  }

  // First occupied bucket in [from, limit), or limit when none. One l1-hot
  // word scan per 64 buckets instead of a probe per bucket. An empty range
  // returns before touching the bitmap: FindMin asks for [num_buckets,
  // num_buckets) after a miss in the last bucket, whose word would lie one
  // past the end of occupied_ once the ring has >= 64 buckets.
  std::size_t NextOccupied(std::size_t from, std::size_t limit) const {
    if (from >= limit) return limit;
    std::size_t w = from >> 6;
    std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
      if (word != 0) {
        const std::size_t b =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        return b < limit ? b : limit;
      }
      ++w;
      if ((w << 6) >= limit) return limit;
      word = occupied_[w];
    }
  }

  // Locates the minimum-(time, sequence) event and caches it. The forward
  // scan visits virtual buckets in ascending order starting from the last
  // pop's position; because every live event has vb >= current_vb_ (the
  // monotonicity contract) the first non-empty in-day head is the global
  // minimum. If a whole year passes without a hit (a sparse far-future
  // backlog), fall back to a direct scan of all bucket heads and jump the
  // calendar to the winner.
  void FindMin() {
    SPECSYNC_CHECK_GT(size_, 0u) << "empty calendar queue";
    if (cache_valid_) return;
    // Ring walk from the current day, skipping empty buckets through the
    // occupancy bitmap. Identical accept condition (and therefore identical
    // pop order) to a plain bucket-by-bucket probe: a bucket the bitmap
    // skips has a kNil head, which the probe would reject anyway.
    const std::size_t num_buckets = buckets_.size();
    const std::size_t mask = num_buckets - 1;
    const std::size_t start = static_cast<std::size_t>(current_vb_) & mask;
    const std::size_t segments[2][2] = {{start, num_buckets}, {0, start}};
    for (const auto& segment : segments) {
      std::size_t b = segment[0];
      while ((b = NextOccupied(b, segment[1])) != segment[1]) {
        ++stats_.scan_steps;
        const std::uint32_t head = buckets_[b];
        const std::uint64_t vb = current_vb_ + ((b - start) & mask);
        if (nodes_[head].vb == vb) {
          cached_min_ = head;
          cache_valid_ = true;
          return;
        }
        ++b;
      }
    }
    std::uint32_t best = kNil;
    for (std::uint32_t head : buckets_) {
      if (head == kNil) continue;
      if (best == kNil || KeyLess(nodes_[head], nodes_[best])) best = head;
    }
    SPECSYNC_CHECK(best != kNil) << "non-empty queue with all buckets empty";
    cached_min_ = best;
    cache_valid_ = true;
  }

  void Resize() {
    const std::size_t target = NumBucketsFor(size_ + 1);
    Rebuild(target, WidthFor());
  }

  void MaybeShrink() {
    if (buckets_.size() > kMinBuckets && size_ < (buckets_.size() >> 4)) {
      Rebuild(NumBucketsFor(size_), WidthFor());
    }
  }

  // Bucket-count policy: run at low load (~1/4 event per in-year bucket)
  // while the ring is small enough to stay cache-resident, then back off
  // toward load ~1/2 once the bucket array itself would start costing more
  // in cache footprint than the shorter chains save. Both the 8x term and
  // the 4x/64K cap are monotone in `size`, so growth never shrinks the ring
  // (a non-monotone policy re-thrashes at the boundary). Deterministic:
  // depends only on the queue size. The shrink threshold in MaybeShrink()
  // must stay at or below 1/8 of the bucket count so a transient pop/push
  // size dip never triggers a rebuild.
  static std::size_t NumBucketsFor(std::size_t size) {
    std::size_t low_load = kMinBuckets;   // pow2 >= 8 * size
    while (low_load < size * 8 && low_load < kMaxBuckets) low_load <<= 1;
    std::size_t half_load = kMinBuckets;  // pow2 >= 4 * size
    while (half_load < size * 4 && half_load < kMaxBuckets) half_load <<= 1;
    const std::size_t cap = std::max(std::size_t{1} << 16, half_load);
    return std::min(low_load, cap);
  }

  // Width is chosen so one *calendar year* (bucket count x width) spans twice
  // the live-event time spread: the current spread fills half the ring at
  // ~0.5 events per used bucket, and pushes landing beyond today's maximum
  // still fall inside the year instead of wrapping. Wrapped events alias into
  // earlier buckets and turn FindMin into full-ring scans plus the
  // direct-search fallback, so the 2x margin is the difference between O(1)
  // and O(n) pops under hold-model workloads whose increments reach the full
  // spread. Purely a performance heuristic — any positive width pops the same
  // order — and deterministic: it depends only on queue contents, never on
  // wall time or addresses.
  double WidthFor() const {
    if (size_ < 2) return width_;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const Node& node : nodes_) {
      if (node.bucket == kFreeBucket) continue;
      lo = std::min(lo, node.time);
      hi = std::max(hi, node.time);
    }
    const double spread = hi - lo;
    if (!(spread > 0.0)) return width_;
    return std::max(
        spread / static_cast<double>(NumBucketsFor(size_) >> 1),
        kMinWidth);
  }

  void Rebuild(std::size_t num_buckets, double new_width) {
    width_ = new_width;
    inv_width_ = 1.0 / new_width;
    buckets_.assign(num_buckets, kNil);
    occupied_.assign((num_buckets + 63) >> 6, 0);
    current_vb_ = VirtualBucket(floor_time_);
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      Node& node = nodes_[i];
      if (node.bucket == kFreeBucket) continue;
      node.vb = VirtualBucket(node.time);
      node.next = kNil;  // re-chained below
    }
    // Re-insert in pool order; intra-bucket order is re-sorted by key on
    // insertion, so the (time, sequence) contract is layout-independent.
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].bucket == kFreeBucket) continue;
      InsertIntoBucket(i);
    }
    cache_valid_ = false;
    pushes_since_rebuild_ = 0;
    insert_steps_since_rebuild_ = 0;
    ++stats_.resizes;
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> buckets_;
  std::vector<std::uint64_t> occupied_;  // one bit per bucket: head != kNil
  std::uint32_t free_head_ = kNil;
  double width_ = 1.0;
  double inv_width_ = 1.0;      // cached 1/width_ (see VirtualBucket)
  double floor_time_ = 0.0;     // last popped time (the queue's "now")
  std::uint64_t current_vb_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t pushes_since_rebuild_ = 0;
  std::uint64_t insert_steps_since_rebuild_ = 0;
  std::size_t size_ = 0;
  std::uint32_t cached_min_ = kNil;
  bool cache_valid_ = false;
  CalendarQueueStats stats_;
};

}  // namespace specsync
