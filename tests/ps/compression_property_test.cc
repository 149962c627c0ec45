// Property-based encode/decode harness for the gradient codecs.
//
// Each trial generates a random push sequence (dense and sparse gradients
// over a random shard split, values drawn from a pool heavy in the floating
// point edge cases: zeros, negative zero, double denormals, half-overflow
// magnitudes) and checks the invariants ps/compression.h documents:
//
//  * top-k + error feedback — the codec's output and residual match an
//    independently written reference model exactly, and every push conserves
//    mass per coordinate: residual_after + sent == residual_before + input
//    in exact double arithmetic (values are moved, never recomputed);
//  * int8 / fp16 — Transform() is idempotent: transforming an already
//    transformed gradient reproduces the same bits, the property that makes
//    the in-process and TCP transports deliver identical parameter streams;
//  * none / delta — Transform() is the identity, bit for bit.
//
// On failure the harness shrinks the push list to a minimal counterexample
// (greedy ddmin, the consistency_property_test recipe) and prints it. Two
// deliberately planted bugs — a top-k that breaks ties toward the larger
// index and one that leaks a residual slot without sending it — must be
// caught and shrunk, so the harness proves its own teeth.
//
// Trials are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ps/compression.h"
#include "ps/shard_layout.h"
#include "support/property.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() { return PropertySeed(20260808); }

// Values that historically break quantizers: signed zeros, double denormals
// (below half's and float's ranges), the half-precision overflow boundary,
// and magnitudes spanning ~40 orders.
constexpr double kSpecialValues[] = {
    0.0,     -0.0,     5e-324,  -5e-324, 1e-310,  -1e-310, 2.2250738585072014e-308,
    6.1e-5,  -6.1e-5,  6.0e-8,  -6.0e-8, 65504.0, -65504.0, 65520.0,
    1e20,    -1e20,    1.0,     -1.0,    127.0,   -128.0,  0.333333333333333};

double RandomValue(Rng& rng) {
  const std::size_t roll = rng.Index(4);
  if (roll == 0) {
    return kSpecialValues[rng.Index(std::size(kSpecialValues))];
  }
  if (roll == 1) return rng.Uniform(-1e-6, 1e-6);
  return rng.Uniform(-10.0, 10.0);
}

// One push: dense carries `dim` values; sparse carries distinct sorted-free
// indices (no duplicates, so the reference model and SparseUpdate::Coalesce
// cannot disagree on duplicate-summation order).
struct Push {
  bool sparse = false;
  std::vector<std::uint64_t> indices;
  std::vector<double> values;
};

struct Trial {
  std::size_t dim = 8;
  std::size_t num_shards = 1;
  double fraction = 0.01;
  std::vector<Push> pushes;
};

Trial GenerateTrial(std::uint64_t seed) {
  Rng rng(seed);
  Trial t;
  t.dim = 4 + rng.Index(61);        // 4..64
  t.num_shards = 1 + rng.Index(4);  // 1..4
  const double fractions[] = {0.01, 0.05, 0.25, 1.0};
  t.fraction = fractions[rng.Index(std::size(fractions))];
  const std::size_t num_pushes = 1 + rng.Index(8);
  for (std::size_t p = 0; p < num_pushes; ++p) {
    Push push;
    push.sparse = rng.Index(2) == 1;
    if (push.sparse) {
      std::vector<std::uint64_t> pool(t.dim);
      for (std::size_t i = 0; i < t.dim; ++i) pool[i] = i;
      for (std::size_t i = pool.size(); i > 1; --i) {
        std::swap(pool[i - 1], pool[rng.Index(i)]);
      }
      const std::size_t nnz = 1 + rng.Index(t.dim);
      push.indices.assign(pool.begin(),
                          pool.begin() + static_cast<std::ptrdiff_t>(nnz));
      for (std::size_t i = 0; i < nnz; ++i) {
        push.values.push_back(RandomValue(rng));
      }
    } else {
      for (std::size_t i = 0; i < t.dim; ++i) {
        push.values.push_back(RandomValue(rng));
      }
    }
    t.pushes.push_back(std::move(push));
  }
  return t;
}

Gradient MakeGradient(const Push& push, std::size_t dim) {
  if (!push.sparse) {
    Gradient g = Gradient::Dense(dim);
    std::copy(push.values.begin(), push.values.end(), g.dense().begin());
    return g;
  }
  Gradient g = Gradient::Sparse();
  g.sparse().Reserve(push.indices.size());
  for (std::size_t i = 0; i < push.indices.size(); ++i) {
    g.sparse().Add(push.indices[i], push.values[i]);
  }
  return g;
}

std::string FormatTrial(const Trial& t) {
  std::ostringstream out;
  out << "dim=" << t.dim << " shards=" << t.num_shards
      << " fraction=" << t.fraction << " pushes:";
  for (const Push& push : t.pushes) {
    out << (push.sparse ? " S{" : " D{");
    for (std::size_t i = 0; i < push.values.size(); ++i) {
      if (i > 0) out << ',';
      if (push.sparse) out << push.indices[i] << ':';
      out << push.values[i];
    }
    out << '}';
  }
  return out.str();
}

// --- reference top-k + error feedback ---------------------------------------
//
// Transparent O(dim log dim) reimplementation of the documented semantics;
// shares no code with GradientCodec.
struct RefTopK {
  std::size_t dim;
  double fraction;
  std::vector<double> residual;

  RefTopK(std::size_t dim_in, double fraction_in)
      : dim(dim_in), fraction(fraction_in), residual(dim_in, 0.0) {}

  // Returns the (index-sorted) selected coordinates.
  std::vector<std::pair<std::uint64_t, double>> Apply(const Push& push) {
    std::size_t input_support = dim;
    if (push.sparse) {
      input_support = push.indices.size();
      for (std::size_t i = 0; i < push.indices.size(); ++i) {
        residual[push.indices[i]] += push.values[i];
      }
    } else {
      for (std::size_t i = 0; i < dim; ++i) residual[i] += push.values[i];
    }
    std::vector<std::uint64_t> candidates;
    for (std::size_t i = 0; i < dim; ++i) {
      if (residual[i] != 0.0) candidates.push_back(i);
    }
    const auto k = static_cast<std::size_t>(std::max<long long>(
        1,
        std::llround(fraction * static_cast<double>(input_support))));
    std::sort(candidates.begin(), candidates.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                const double ma = std::fabs(residual[a]);
                const double mb = std::fabs(residual[b]);
                if (ma != mb) return ma > mb;
                return a < b;
              });
    const std::size_t selected = std::min(k, candidates.size());
    std::vector<std::uint64_t> winners(
        candidates.begin(),
        candidates.begin() + static_cast<std::ptrdiff_t>(selected));
    std::sort(winners.begin(), winners.end());
    std::vector<std::pair<std::uint64_t, double>> out;
    for (const std::uint64_t idx : winners) {
      out.emplace_back(idx, residual[idx]);
      residual[idx] = 0.0;
    }
    return out;
  }
};

// --- subjects ---------------------------------------------------------------

enum class SubjectKind {
  kCodec,        // the real GradientCodec
  kTieBreakBug,  // planted: magnitude ties go to the *larger* index
  kLeakyBug,     // planted: zeroes one losing residual slot without sending
};

// Runs one push through the subject; returns (sent pairs, residual view).
class Subject {
 public:
  Subject(SubjectKind kind, const Trial& trial)
      : kind_(kind), trial_(trial), ref_(trial.dim, trial.fraction) {
    if (kind_ == SubjectKind::kCodec) {
      CompressionSpec spec;
      spec.kind = CodecKind::kTopK;
      spec.topk_fraction = trial.fraction;
      codec_ = std::make_unique<GradientCodec>(
          spec, /*num_workers=*/1,
          ShardLayout::Even(trial.dim, trial.num_shards));
    }
  }

  std::vector<std::pair<std::uint64_t, double>> Apply(const Push& push) {
    if (kind_ == SubjectKind::kCodec) {
      Gradient grad = MakeGradient(push, trial_.dim);
      codec_->Transform(0, grad);
      std::vector<std::pair<std::uint64_t, double>> out;
      for (std::size_t i = 0; i < grad.sparse().nnz(); ++i) {
        out.emplace_back(grad.sparse().indices()[i],
                         grad.sparse().values()[i]);
      }
      return out;
    }
    // The planted bugs piggyback on the reference with a twist.
    if (kind_ == SubjectKind::kTieBreakBug) {
      // Re-run selection with the broken comparator.
      std::size_t input_support =
          push.sparse ? push.indices.size() : trial_.dim;
      if (push.sparse) {
        for (std::size_t i = 0; i < push.indices.size(); ++i) {
          ref_.residual[push.indices[i]] += push.values[i];
        }
      } else {
        for (std::size_t i = 0; i < trial_.dim; ++i) {
          ref_.residual[i] += push.values[i];
        }
      }
      std::vector<std::uint64_t> candidates;
      for (std::size_t i = 0; i < trial_.dim; ++i) {
        if (ref_.residual[i] != 0.0) candidates.push_back(i);
      }
      const auto k = static_cast<std::size_t>(std::max<long long>(
          1, std::llround(trial_.fraction *
                          static_cast<double>(input_support))));
      std::sort(candidates.begin(), candidates.end(),
                [&](std::uint64_t a, std::uint64_t b) {
                  const double ma = std::fabs(ref_.residual[a]);
                  const double mb = std::fabs(ref_.residual[b]);
                  if (ma != mb) return ma > mb;
                  return a > b;  // the bug
                });
      const std::size_t selected = std::min(k, candidates.size());
      std::vector<std::uint64_t> winners(
          candidates.begin(),
          candidates.begin() + static_cast<std::ptrdiff_t>(selected));
      std::sort(winners.begin(), winners.end());
      std::vector<std::pair<std::uint64_t, double>> out;
      for (const std::uint64_t idx : winners) {
        out.emplace_back(idx, ref_.residual[idx]);
        ref_.residual[idx] = 0.0;
      }
      return out;
    }
    // kLeakyBug: correct selection, then silently zero the largest losing
    // residual slot (error feedback forgets it — conservation breaks).
    auto out = ref_.Apply(push);
    for (std::size_t i = 0; i < trial_.dim; ++i) {
      if (ref_.residual[i] != 0.0) {
        ref_.residual[i] = 0.0;
        break;
      }
    }
    return out;
  }

  std::span<const double> residual() const {
    if (kind_ == SubjectKind::kCodec) return codec_->residual(0);
    return ref_.residual;
  }

 private:
  SubjectKind kind_;
  const Trial& trial_;
  RefTopK ref_;  // planted bugs mutate this state directly
  std::unique_ptr<GradientCodec> codec_;
};

// --- the top-k property ------------------------------------------------------

std::optional<std::string> RunTopKTrial(const Trial& trial,
                                        SubjectKind kind) {
  Subject subject(kind, trial);
  RefTopK ref(trial.dim, trial.fraction);
  for (std::size_t p = 0; p < trial.pushes.size(); ++p) {
    const Push& push = trial.pushes[p];
    // Conservation bookkeeping: residual_before + input, per coordinate.
    std::vector<double> expected(trial.dim, 0.0);
    {
      const auto residual = subject.residual();
      for (std::size_t i = 0; i < residual.size(); ++i) {
        expected[i] = residual[i];
      }
      if (push.sparse) {
        for (std::size_t i = 0; i < push.indices.size(); ++i) {
          expected[push.indices[i]] += push.values[i];
        }
      } else {
        for (std::size_t i = 0; i < trial.dim; ++i) {
          expected[i] += push.values[i];
        }
      }
    }

    const auto got = subject.Apply(push);
    const auto want = ref.Apply(push);

    const auto fail = [&](const std::string& what) {
      std::ostringstream msg;
      msg << "push " << p << ": " << what;
      return msg.str();
    };

    // residual_after + sent == residual_before + input, exactly.
    std::vector<double> actual(trial.dim, 0.0);
    {
      const auto residual = subject.residual();
      for (std::size_t i = 0; i < residual.size(); ++i) {
        actual[i] = residual[i];
      }
      for (const auto& [idx, value] : got) actual[idx] += value;
    }
    for (std::size_t i = 0; i < trial.dim; ++i) {
      if (actual[i] != expected[i]) {
        return fail("conservation broken at coord " + std::to_string(i));
      }
    }

    // Output canonical form: strictly ascending indices, no zero values.
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i > 0 && got[i].first <= got[i - 1].first) {
        return fail("output indices not strictly ascending");
      }
      if (got[i].second == 0.0) return fail("zero value selected");
    }

    // Exact agreement with the reference model (selection + values +
    // residual state).
    if (got.size() != want.size()) {
      return fail("selected " + std::to_string(got.size()) + " coords, want " +
                  std::to_string(want.size()));
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].first != want[i].first || got[i].second != want[i].second) {
        return fail("selection differs from reference at slot " +
                    std::to_string(i));
      }
    }
    const auto residual = subject.residual();
    for (std::size_t i = 0; i < residual.size(); ++i) {
      if (residual[i] != ref.residual[i]) {
        return fail("residual differs from reference at coord " +
                    std::to_string(i));
      }
    }
  }
  return std::nullopt;
}

// Greedy ddmin over the push list: repeatedly delete the largest chunk that
// preserves the failure, halving the chunk until single pushes survive.
Trial ShrinkTrial(Trial trial, SubjectKind kind) {
  const auto still_fails = [&](const Trial& candidate) {
    return RunTopKTrial(candidate, kind).has_value();
  };
  std::size_t chunk = std::max<std::size_t>(1, trial.pushes.size() / 2);
  for (;;) {
    bool removed_any = false;
    std::size_t offset = 0;
    while (offset < trial.pushes.size()) {
      Trial candidate = trial;
      const std::size_t end =
          std::min(offset + chunk, candidate.pushes.size());
      candidate.pushes.erase(
          candidate.pushes.begin() + static_cast<std::ptrdiff_t>(offset),
          candidate.pushes.begin() + static_cast<std::ptrdiff_t>(end));
      if (still_fails(candidate)) {
        trial = std::move(candidate);
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
  return trial;
}

TEST(CompressionPropertyTest, TopKMatchesReferenceAndConserves) {
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t trial_idx = 0; trial_idx < 300; ++trial_idx) {
    const Trial trial = GenerateTrial(base + trial_idx);
    const auto failure = RunTopKTrial(trial, SubjectKind::kCodec);
    if (failure.has_value()) {
      const Trial minimal = ShrinkTrial(trial, SubjectKind::kCodec);
      FAIL() << *failure << "\nseed " << base + trial_idx
             << "\nminimal counterexample: " << FormatTrial(minimal);
    }
  }
}

// The harness has teeth: each planted bug is caught within a few trials and
// shrinks to a minimal witness.
TEST(CompressionPropertyTest, PlantedBugsAreCaughtAndShrunk) {
  const std::uint64_t base = BaseSeed();
  for (const SubjectKind kind :
       {SubjectKind::kTieBreakBug, SubjectKind::kLeakyBug}) {
    bool caught = false;
    for (std::uint64_t trial_idx = 0; trial_idx < 200 && !caught;
         ++trial_idx) {
      const Trial trial = GenerateTrial(base + trial_idx);
      if (RunTopKTrial(trial, kind).has_value()) {
        caught = true;
        const Trial minimal = ShrinkTrial(trial, kind);
        // A 1-minimal witness for either bug needs very few pushes.
        EXPECT_LE(minimal.pushes.size(), 3u)
            << "shrink left a large witness: " << FormatTrial(minimal);
        EXPECT_TRUE(RunTopKTrial(minimal, kind).has_value());
      }
    }
    EXPECT_TRUE(caught) << "planted bug survived 200 trials";
  }
}

// --- quantization properties -------------------------------------------------

void ExpectBitIdentical(const Gradient& a, const Gradient& b) {
  ASSERT_EQ(a.is_sparse(), b.is_sparse());
  if (a.is_sparse()) {
    ASSERT_EQ(a.sparse().nnz(), b.sparse().nnz());
    for (std::size_t i = 0; i < a.sparse().nnz(); ++i) {
      EXPECT_EQ(a.sparse().indices()[i], b.sparse().indices()[i]);
      std::uint64_t bits_a = 0;
      std::uint64_t bits_b = 0;
      std::memcpy(&bits_a, &a.sparse().values()[i], sizeof(bits_a));
      std::memcpy(&bits_b, &b.sparse().values()[i], sizeof(bits_b));
      EXPECT_EQ(bits_a, bits_b) << "value bits differ at entry " << i;
    }
    return;
  }
  ASSERT_EQ(a.dense().size(), b.dense().size());
  for (std::size_t i = 0; i < a.dense().size(); ++i) {
    std::uint64_t bits_a = 0;
    std::uint64_t bits_b = 0;
    std::memcpy(&bits_a, &a.dense()[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b.dense()[i], sizeof(bits_b));
    EXPECT_EQ(bits_a, bits_b) << "value bits differ at coord " << i;
  }
}

// Transform is idempotent for the quantizers and the identity for none /
// delta — the bit-identity contract between the two transports.
TEST(CompressionPropertyTest, QuantizersIdempotentIdentityCodecsExact) {
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t trial_idx = 0; trial_idx < 200; ++trial_idx) {
    const Trial trial = GenerateTrial(base ^ (0xABCD0000 + trial_idx));
    for (const CodecKind kind : {CodecKind::kInt8, CodecKind::kFp16,
                                 CodecKind::kNone, CodecKind::kDelta}) {
      CompressionSpec spec;
      spec.kind = kind;
      GradientCodec codec(spec, 1,
                          ShardLayout::Even(trial.dim, trial.num_shards));
      for (const Push& push : trial.pushes) {
        Gradient original = MakeGradient(push, trial.dim);
        Gradient once = MakeGradient(push, trial.dim);
        codec.Transform(0, once);
        if (kind == CodecKind::kNone || kind == CodecKind::kDelta) {
          ExpectBitIdentical(once, original);
          continue;
        }
        Gradient twice = once;
        codec.Transform(0, twice);
        ExpectBitIdentical(twice, once);
      }
    }
  }
}

// Every non-NaN half value is a fixed point of Decode -> Encode (exhaustive:
// 65536 cases), so fp16 re-encoding on the wire is lossless.
TEST(CompressionPropertyTest, Fp16DecodeEncodeExhaustive) {
  for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    const bool is_nan = (half & 0x7c00u) == 0x7c00u && (half & 0x3ffu) != 0;
    if (is_nan) continue;  // NaN payloads canonicalize; skip
    EXPECT_EQ(EncodeFp16(DecodeFp16(half)), half)
        << "half 0x" << std::hex << h;
  }
}

// The wire encoder recomputes the int8 scale from the already-quantized
// slice it ships; whatever scale it lands on, requantizing must reproduce
// the slice bit-for-bit (the scale itself may legitimately differ in one
// corner: a slice whose max underflows max/127 to zero quantizes entirely
// to zeros, and the zeros slice reports scale 0).
TEST(CompressionPropertyTest, Int8RequantizationReproducesQuantizedSlice) {
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t trial_idx = 0; trial_idx < 300; ++trial_idx) {
    Rng rng(base ^ (0x5CA1E000 + trial_idx));
    std::vector<double> slice(1 + rng.Index(32));
    for (double& v : slice) v = RandomValue(rng);
    const double scale = Int8ScaleFor(slice);
    for (double& v : slice) {
      v = DequantizeInt8(QuantizeInt8(v, scale), scale);
    }
    const double rescale = Int8ScaleFor(slice);
    for (const double v : slice) {
      EXPECT_EQ(DequantizeInt8(QuantizeInt8(v, rescale), rescale), v);
    }
  }
}

}  // namespace
}  // namespace specsync
