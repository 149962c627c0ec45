// CandidateDeltas property suite (DESIGN.md §12).
//
// AdaptiveTuner::CandidateDeltas radix-sorts the pairwise push-time
// differences as bit patterns, then deduplicates and strides them. The
// equivalence battery replays decisions over whatever candidate list it is
// given, so this suite checks the list itself: bit for bit against the
// literal std::sort + unique + stride in tuner_full_replay.h, on timelines
// with equal push times, duplicate gaps, gaps exactly at max_delta, more
// gaps than max_candidates (the stride path), enough gaps for the radix
// path, and gaps spread over many binades. A planted radix sort that stops
// at the mantissa, and so mis-orders gaps across an exponent boundary, must
// be caught. On mismatch the timeline is shrunk to a 1-minimal
// counterexample.
//
// Timelines are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adaptive_tuner.h"
#include "support/property.h"
#include "tuner_full_replay.h"

namespace specsync {
namespace {

using CandidateFn = std::vector<Duration> (*)(const TuningInputs&, Duration,
                                              std::size_t);

struct Case {
  TuningInputs inputs;
  Duration max_delta;
  std::size_t max_candidates = 0;
};

// Push times of one of three shapes: a 1/8 s grid (equal times and
// duplicate gaps), exponential gaps with some zero gaps, or gaps scaled by
// 2^-k for k up to 40 (gaps over many binades).
Case GenerateCase(std::uint64_t seed) {
  Rng rng(seed);
  Case c;
  c.inputs.num_workers = 2 + rng.Index(8);
  const std::size_t pushes = 2 + rng.Index(150);
  const std::size_t shape = rng.Index(3);
  double t = 0.0;
  for (std::size_t p = 0; p < pushes; ++p) {
    if (shape == 0) {
      t += 0.125 * static_cast<double>(rng.Index(6));
    } else if (rng.Index(10) != 0) {  // else a zero gap: equal push times
      const double gap = rng.Exponential(1.0);
      t += shape == 1 ? gap
                      : std::ldexp(gap, -static_cast<int>(rng.Index(41)));
    }
    c.inputs.pushes.emplace_back(
        SimTime::FromSeconds(t),
        static_cast<WorkerId>(rng.Index(c.inputs.num_workers)));
  }
  // max_delta exactly at some gap, at a fraction of the timeline, or above
  // every gap.
  const std::size_t a = rng.Index(pushes);
  const std::size_t b = rng.Index(pushes);
  switch (rng.Index(3)) {
    case 0:
      c.max_delta = c.inputs.pushes[std::max(a, b)].first -
                    c.inputs.pushes[std::min(a, b)].first;
      break;
    case 1:
      c.max_delta = Duration::Seconds(t * rng.Uniform(0.0, 1.0));
      break;
    default:
      c.max_delta = Duration::Seconds(1e300);
  }
  // Unlimited, a small cap (the stride path), or the tuner's default.
  const std::array<std::size_t, 3> caps = {0, 1 + rng.Index(300), 4096};
  c.max_candidates = caps[rng.Index(caps.size())];
  return c;
}

std::string FormatCase(const Case& c) {
  std::ostringstream out;
  out << "max_delta=" << std::hexfloat << c.max_delta.seconds()
      << " max_candidates=" << std::defaultfloat << c.max_candidates
      << " pushes:" << std::hexfloat;
  for (const auto& [time, worker] : c.inputs.pushes) {
    out << ' ' << time.seconds();
  }
  return out.str();
}

// Compares `fn` with the literal reference on one case. Returns a failure
// description, or nullopt when the lists are equal bit for bit.
std::optional<std::string> CheckCandidates(const Case& c, CandidateFn fn) {
  const std::vector<Duration> got =
      fn(c.inputs, c.max_delta, c.max_candidates);
  const std::vector<Duration> want =
      reference::CandidateDeltas(c.inputs, c.max_delta, c.max_candidates);
  if (got.size() != want.size()) {
    std::ostringstream msg;
    msg << got.size() << " candidates != reference " << want.size();
    return msg.str();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i].seconds()) !=
        std::bit_cast<std::uint64_t>(want[i].seconds())) {
      std::ostringstream msg;
      msg << "candidate " << i << ": " << std::hexfloat << got[i].seconds()
          << " != reference " << want[i].seconds();
      return msg.str();
    }
  }
  return std::nullopt;
}

// Greedy shrink: drop single pushes while the mismatch persists.
Case Shrink(Case c, CandidateFn fn) {
  for (bool removed = true; removed;) {
    removed = false;
    for (std::size_t p = 0; p < c.inputs.pushes.size(); ++p) {
      Case smaller = c;
      smaller.inputs.pushes.erase(smaller.inputs.pushes.begin() + p);
      if (CheckCandidates(smaller, fn).has_value()) {
        c = std::move(smaller);
        removed = true;
        break;
      }
    }
  }
  return c;
}

constexpr std::size_t kTrials = 400;

std::uint64_t TrialSeed(std::size_t trial) {
  return PropertySeed(20260808) + trial * 0x9e3779b97f4a7c15ULL;
}

TEST(CandidateDeltasProperty, MatchesLiteralSortUniqueStride) {
  std::size_t radix_cases = 0;
  std::size_t strided_cases = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const Case c = GenerateCase(TrialSeed(trial));
    const auto failure = CheckCandidates(c, AdaptiveTuner::CandidateDeltas);
    if (failure.has_value()) {
      FAIL() << "seed " << TrialSeed(trial) << ": " << *failure
             << "\nminimal counterexample: "
             << FormatCase(Shrink(c, AdaptiveTuner::CandidateDeltas));
    }
    const std::size_t distinct =
        reference::CandidateDeltas(c.inputs, c.max_delta, 0).size();
    radix_cases += distinct >= 256 ? 1 : 0;
    strided_cases +=
        c.max_candidates != 0 && distinct > c.max_candidates ? 1 : 0;
  }
  // Non-vacuity: both the radix path and the stride path ran.
  EXPECT_GT(radix_cases, kTrials / 10);
  EXPECT_GT(strided_cases, kTrials / 10);
}

TEST(CandidateDeltasProperty, ScriptedEdges) {
  Case c;
  c.inputs.num_workers = 2;
  // Equal times (a zero gap), duplicate gaps of 1 and a gap of exactly 2.
  for (double t : {0.0, 0.0, 1.0, 2.0, 2.0, 3.0}) {
    c.inputs.pushes.emplace_back(SimTime::FromSeconds(t), 0);
  }
  c.max_delta = Duration::Seconds(2.0);
  EXPECT_EQ(CheckCandidates(c, AdaptiveTuner::CandidateDeltas), std::nullopt);
  const std::vector<Duration> got =
      AdaptiveTuner::CandidateDeltas(c.inputs, c.max_delta, 0);
  ASSERT_EQ(got.size(), 2u);  // {1, 2}: 3 is past max_delta
  EXPECT_EQ(got[1].seconds(), 2.0);
  c.max_candidates = 1;  // stride keeps the first
  EXPECT_EQ(CheckCandidates(c, AdaptiveTuner::CandidateDeltas), std::nullopt);
}

// A planted radix bug: the LSD passes cover only the 52 mantissa bits, so
// gaps in different binades come out ordered by mantissa alone (2.5 before
// 1.5). Unique and stride are the reference's.
std::vector<Duration> MantissaOnlyRadix(const TuningInputs& inputs,
                                        Duration max_delta,
                                        std::size_t max_candidates) {
  std::vector<std::uint64_t> keys;
  for (Duration d : reference::CandidateDeltas(inputs, max_delta, 0)) {
    keys.push_back(std::bit_cast<std::uint64_t>(d.seconds()));
  }
  std::vector<std::uint64_t> buffer(keys.size());
  for (int shift = 0; shift < 52; shift += 13) {  // BUG: exponent never sorted
    std::array<std::size_t, 1 << 13> offsets{};
    for (std::uint64_t key : keys) ++offsets[(key >> shift) & 0x1fff];
    std::size_t sum = 0;
    for (std::size_t& offset : offsets) sum += std::exchange(offset, sum);
    for (std::uint64_t key : keys) buffer[offsets[(key >> shift) & 0x1fff]++] = key;
    keys.swap(buffer);
  }
  std::vector<Duration> all;
  for (std::uint64_t key : keys) {
    all.push_back(Duration::Seconds(std::bit_cast<double>(key)));
  }
  if (max_candidates == 0 || all.size() <= max_candidates) return all;
  std::vector<Duration> strided;
  const double stride =
      static_cast<double>(all.size()) / static_cast<double>(max_candidates);
  for (std::size_t i = 0; i < max_candidates; ++i) {
    strided.push_back(
        all[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  }
  return strided;
}

TEST(CandidateDeltasProperty, PlantedMantissaOnlyRadixIsCaught) {
  Case c;
  c.inputs.num_workers = 2;
  for (double t : {0.0, 1.5, 4.0}) {  // gaps 1.5, 2.5 and 4
    c.inputs.pushes.emplace_back(SimTime::FromSeconds(t), 0);
  }
  c.max_delta = Duration::Seconds(10.0);
  EXPECT_NE(CheckCandidates(c, MantissaOnlyRadix), std::nullopt);
  std::size_t caught = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    if (CheckCandidates(GenerateCase(TrialSeed(trial)), MantissaOnlyRadix)) {
      ++caught;
    }
  }
  EXPECT_GT(caught, 0u)
      << "a radix sort that skips the exponent went undetected";
}

}  // namespace
}  // namespace specsync
