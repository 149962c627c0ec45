// Property suite for ShardLayout::RouteInto on sorted sparse gradients.
//
// A gradient whose indices are strictly increasing (every engine's merge and
// MF kernel output) routes by one lower_bound per shard instead of a pass
// over its entries. Each trial draws a layout — an Even split or an explicit
// FromLengths slice list with zero-length shards, one shard sometimes — and a
// strictly increasing index set: empty, or mixing random indices with
// offset(s) - 1 and offset(s) at shard boundaries and dim - 1. Four checks:
//
//   1. the routes equal the per-index ShardOf reference in
//      tests/support/shard_routes.h, shards, bytes and [begin, end) alike;
//   2. the same entries added in a shuffled order, some of them twice, route
//      as the reference says before Coalesce and identically to check 1
//      after it;
//   3. the set with dim appended throws CheckError;
//   4. the rows of a drawn width (1-8) that hold those indices, emitted
//      whole through AssignOccupied and pushed through PushRoute over the
//      layout (row by row where a route is aligned; a boundary that cuts a
//      row, or a zero-length shard, falls back to entries), leave a store
//      bit-identical to the same entries applied one by one through
//      PushShardSparse, shard versions included, with and without clipping.
//
// On failure the harness shrinks the trial (greedy ddmin over the index set,
// then over the layout's shards) and prints it.
//
// Trials are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "models/model.h"
#include "optim/lr_schedule.h"
#include "optim/sgd.h"
#include "ps/param_store.h"
#include "ps/shard_layout.h"
#include "support/property.h"
#include "support/shard_routes.h"
#include "tensor/occupancy_bitmap.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() { return PropertySeed(20261019); }

constexpr std::size_t kTrials = 600;

struct Trial {
  bool even = false;                 // built by Even, else FromLengths
  std::vector<std::size_t> lengths;  // never empty; total > 0
  std::vector<std::uint64_t> indices;  // strictly increasing, < dim
  std::uint64_t shuffle_seed = 0;      // check 2's order and duplicates
  std::size_t width = 1;               // check 4's row width
  bool clip = false;                   // check 4 clips the gradient
};

std::size_t Dim(const Trial& t) {
  return std::accumulate(t.lengths.begin(), t.lengths.end(), std::size_t{0});
}

ShardLayout MakeLayout(const Trial& t) {
  return t.even ? ShardLayout::Even(Dim(t), t.lengths.size())
                : ShardLayout::FromLengths(t.lengths);
}

Trial GenerateTrial(std::uint64_t seed) {
  Rng rng(seed);
  Trial t;
  t.even = rng.Index(2) == 0;
  const std::size_t num_shards = rng.Index(5) == 0 ? 1 : 1 + rng.Index(8);
  if (t.even) {
    const std::size_t dim = num_shards + rng.Index(200);
    const ShardLayout layout = ShardLayout::Even(dim, num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      t.lengths.push_back(layout.length(s));
    }
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) {
      t.lengths.push_back(rng.Index(3) == 0 ? 0 : 1 + rng.Index(40));
    }
    if (Dim(t) == 0) t.lengths[rng.Index(num_shards)] = 1 + rng.Index(40);
  }
  const ShardLayout layout = MakeLayout(t);
  const std::size_t dim = layout.dim();
  std::set<std::uint64_t> set;
  const std::size_t mode = rng.Index(8);
  if (mode != 0) {  // mode 0: the empty set
    // Mode 1 takes every boundary index, the others a random share of them.
    const auto take = [&] { return mode == 1 || rng.Index(3) == 0; };
    for (std::size_t s = 0; s < layout.num_shards(); ++s) {
      if (layout.offset(s) > 0 && take()) set.insert(layout.offset(s) - 1);
      if (layout.offset(s) < dim && take()) set.insert(layout.offset(s));
    }
    if (take()) set.insert(dim - 1);
    const std::size_t extra = rng.Index(2) == 0 ? rng.Index(8) : rng.Index(dim);
    for (std::size_t i = 0; i < extra; ++i) set.insert(rng.Index(dim));
  }
  t.indices.assign(set.begin(), set.end());
  t.shuffle_seed = rng.engine()();
  t.width = 1 + rng.Index(8);
  t.clip = rng.Index(4) == 0;
  return t;
}

// Check 4's rows: every row of t.width that holds one of t.indices and lies
// wholly below dim, ascending.
std::vector<std::size_t> RowsOf(const Trial& t) {
  std::set<std::size_t> rows;
  for (const std::uint64_t index : t.indices) {
    const std::size_t row = index / t.width;
    if ((row + 1) * t.width <= Dim(t)) rows.insert(row);
  }
  return {rows.begin(), rows.end()};
}

std::string FormatTrial(const Trial& t) {
  std::ostringstream out;
  out << (t.even ? "Even" : "FromLengths") << " lengths {";
  for (std::size_t s = 0; s < t.lengths.size(); ++s) {
    out << (s > 0 ? "," : "") << t.lengths[s];
  }
  out << "} (dim " << Dim(t) << ") indices {";
  for (std::size_t i = 0; i < t.indices.size(); ++i) {
    out << (i > 0 ? "," : "") << t.indices[i];
  }
  out << "} shuffle_seed " << t.shuffle_seed << " width " << t.width
      << (t.clip ? " clipped" : "");
  return out.str();
}

std::string FormatRoutes(const std::vector<ShardRoute>& routes) {
  std::ostringstream out;
  for (const ShardRoute& r : routes) {
    out << " {shard " << r.shard << ", " << r.bytes << " B, [" << r.begin
        << ", " << r.end << ")}";
  }
  return out.str();
}

bool SameRoutes(const std::vector<ShardRoute>& a,
                const std::vector<ShardRoute>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ShardRoute& x, const ShardRoute& y) {
                      return x.shard == y.shard && x.bytes == y.bytes &&
                             x.begin == y.begin && x.end == y.end;
                    });
}

Gradient SparseOf(const std::vector<std::uint64_t>& indices) {
  Gradient g = Gradient::Sparse();
  for (const std::uint64_t index : indices) {
    g.sparse().Add(index, 0.5 + static_cast<double>(index));
  }
  return g;
}

// The four checks; returns the first failure, if any.
std::optional<std::string> RunTrial(const Trial& t) {
  const ShardLayout layout = MakeLayout(t);
  // One routes vector across the checks: stale contents must be cleared.
  std::vector<ShardRoute> routes(3, ShardRoute{7, 7, 7, 7});

  // 1. The sorted set routes as the per-index reference does.
  const Gradient sorted = SparseOf(t.indices);
  if (!sorted.sparse().strictly_increasing()) {
    return std::string("a sorted set lost the strictly-increasing flag");
  }
  const std::vector<ShardRoute> want = ReferenceRoutes(layout, t.indices);
  layout.RouteInto(sorted, routes);
  if (!SameRoutes(routes, want)) {
    return "sorted routes" + FormatRoutes(routes) + ", want" +
           FormatRoutes(want);
  }

  // 2. Shuffled (with some entries twice), then coalesced.
  Rng rng(t.shuffle_seed);
  std::vector<std::uint64_t> shuffled = t.indices;
  for (const std::uint64_t index : t.indices) {
    if (rng.Index(4) == 0) shuffled.push_back(index);
  }
  rng.Shuffle(shuffled);
  Gradient coalesced = SparseOf(shuffled);
  const std::vector<ShardRoute> want_shuffled =
      ReferenceRoutes(layout, shuffled);
  layout.RouteInto(coalesced, routes);
  if (!SameRoutes(routes, want_shuffled)) {
    return "shuffled routes" + FormatRoutes(routes) + ", want" +
           FormatRoutes(want_shuffled);
  }
  coalesced.sparse().Coalesce();
  layout.RouteInto(coalesced, routes);
  if (!SameRoutes(routes, want)) {
    return "coalesced routes" + FormatRoutes(routes) + ", want" +
           FormatRoutes(want);
  }

  // 3. An index at dim is past the end.
  std::vector<std::uint64_t> past = t.indices;
  past.push_back(layout.dim());
  try {
    layout.RouteInto(SparseOf(past), routes);
    return "a set ending at dim routed" + FormatRoutes(routes);
  } catch (const CheckError&) {
  }

  // 4. Whole rows through PushRoute, against their entries one by one.
  const std::size_t dim = layout.dim();
  std::vector<double> acc(dim);
  OccupancyBitmap occupied;
  occupied.Reserve(dim);
  for (const std::size_t row : RowsOf(t)) {
    occupied.Set(row);
    for (std::size_t i = row * t.width; i < (row + 1) * t.width; ++i) {
      acc[i] = (static_cast<double>(i % 11) - 5.0) / 3.0;  // some past clip
    }
  }
  Gradient rows = Gradient::Sparse();
  rows.sparse().AssignOccupied(occupied, acc, t.width);
  auto applier = std::make_shared<SgdApplier>(
      std::make_shared<ConstantSchedule>(0.3),
      SgdConfig{.clip = t.clip ? 1.0 : 0.0});
  ParameterServer by_row(layout, applier);
  ParameterServer by_entry(layout, applier);
  DenseVector init(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    init[i] = 0.1 + static_cast<double>(i) / 7.0;
  }
  by_row.SetParams(init);
  by_entry.SetParams(init);
  layout.RouteInto(rows, routes);
  by_row.Push(rows, 0, routes);
  for (std::size_t s = 0; s < layout.num_shards(); ++s) {
    by_entry.PushShardSparse(s, rows.sparse().indices(),
                             rows.sparse().values(), 0);
  }
  by_entry.CommitPush();
  const DenseVector row_params = by_row.Pull().params;
  const DenseVector entry_params = by_entry.Pull().params;
  for (std::size_t i = 0; i < dim; ++i) {
    if (std::memcmp(&row_params[i], &entry_params[i], sizeof(double)) != 0) {
      return "row push differs at index " + std::to_string(i) + ", routes" +
             FormatRoutes(routes);
    }
  }
  for (std::size_t s = 0; s < layout.num_shards(); ++s) {
    if (by_row.shard(s).version != by_entry.shard(s).version) {
      return "row push left shard " + std::to_string(s) + " at version " +
             std::to_string(by_row.shard(s).version) + ", want " +
             std::to_string(by_entry.shard(s).version);
    }
  }
  return std::nullopt;
}

Trial ShrinkTrial(Trial trial) {
  const auto fails = [](const Trial& candidate) {
    return RunTrial(candidate).has_value();
  };
  ShrinkList(trial.indices, 0, [&](const std::vector<std::uint64_t>& kept) {
    Trial candidate = trial;
    candidate.indices = kept;
    return fails(candidate);
  });
  // Fewer shards: an explicit slice list, indices past its end dropped.
  const auto with_lengths = [&](const std::vector<std::size_t>& lengths) {
    Trial candidate = trial;
    candidate.even = false;
    candidate.lengths = lengths;
    const std::size_t dim = Dim(candidate);
    std::erase_if(candidate.indices,
                  [dim](std::uint64_t index) { return index >= dim; });
    return candidate;
  };
  std::vector<std::size_t> lengths = trial.lengths;
  ShrinkList(lengths, 1, [&](const std::vector<std::size_t>& kept) {
    return std::accumulate(kept.begin(), kept.end(), std::size_t{0}) > 0 &&
           fails(with_lengths(kept));
  });
  if (lengths != trial.lengths) trial = with_lengths(lengths);
  return trial;
}

TEST(ShardRoutePropertyTest, SortedRoutesMatchPerIndexReference) {
  const std::uint64_t base = BaseSeed();
  // Non-vacuity: the generator reached every input class it promises.
  std::size_t empty_sets = 0;
  std::size_t zero_length_layouts = 0;
  std::size_t one_shard_layouts = 0;
  std::size_t last_index_sets = 0;
  std::size_t boundary_pairs = 0;  // offset(s) - 1 and offset(s), s > 0
  std::size_t cut_rows = 0;        // check 4 rows a boundary cuts
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    const Trial trial = GenerateTrial(base + i);
    if (const auto failure = RunTrial(trial)) {
      const Trial minimal = ShrinkTrial(trial);
      FAIL() << *failure << "\nseed " << base + i << "\ntrial "
             << FormatTrial(trial) << "\nminimal counterexample: "
             << FormatTrial(minimal) << "\n  fails with: "
             << RunTrial(minimal).value_or("(shrunk trial passes)");
    }
    const ShardLayout layout = MakeLayout(trial);
    const std::set<std::uint64_t> set(trial.indices.begin(),
                                      trial.indices.end());
    empty_sets += set.empty();
    zero_length_layouts +=
        std::count(trial.lengths.begin(), trial.lengths.end(), 0u) > 0;
    one_shard_layouts += trial.lengths.size() == 1;
    last_index_sets += set.contains(layout.dim() - 1);
    const std::vector<std::size_t> rows = RowsOf(trial);
    for (std::size_t s = 1; s < layout.num_shards(); ++s) {
      const std::size_t offset = layout.offset(s);
      boundary_pairs += set.contains(offset - 1) && set.contains(offset);
      cut_rows += offset % trial.width != 0 &&
                  std::binary_search(rows.begin(), rows.end(),
                                     offset / trial.width);
    }
  }
  EXPECT_GT(empty_sets, 0u);
  EXPECT_GT(zero_length_layouts, 0u);
  EXPECT_GT(one_shard_layouts, 0u);
  EXPECT_GT(last_index_sets, 0u);
  EXPECT_GT(boundary_pairs, 0u);
  EXPECT_GT(cut_rows, 0u);
}

}  // namespace
}  // namespace specsync
