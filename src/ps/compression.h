// Pluggable gradient compression for the sharded PS wire path.
//
// SpecSync's economics hinge on how cheap it is to move parameters after a
// speculative abort: shrinking bytes-on-wire shifts the optimal ABORT_TIME
// the paper tunes. This seam provides the standard PS-side toolkit (GeoMX
// ships the same three families): top-k sparsification with per-worker
// error-feedback residuals, low-precision quantization (int8 / fp16), and
// delta-encoded pulls that skip shards whose per-shard version has not
// advanced.
//
// Determinism contract (load-bearing — golden digests and the wire tests pin
// it):
//  - codec=none is the identity: no transform, no RNG, no allocation. Every
//    caller gates on `CompressionSpec::enabled()` so the uncompressed path is
//    byte-for-byte the pre-codec code path.
//  - Quantization is *idempotent*: Transform() maps a gradient onto exactly
//    the values the wire decoder would produce, so the in-process transport
//    and the TCP transport see bit-identical parameter streams. Int8 achieves
//    this with power-of-two scale selection (see Int8ScaleFor); fp16 because
//    every half value round-trips through double exactly.
//  - Quantization scales are chosen *per shard slice* (the unit a
//    PushShardReq carries), so the wire encoder can recompute the scale from
//    the slice it ships and land on the same bits.
//  - Top-k selection breaks magnitude ties by smaller index, so the selected
//    support is a pure function of the accumulated values.
//
// Error feedback (top-k): values that lose the top-k race are not dropped but
// accumulated into a per-worker dense residual and re-enter the race on the
// next push. The exact invariant, checked by compression_property_test:
//   residual_after + sent == residual_before + input   (per coordinate, in
// exact double arithmetic — values are moved, never recomputed).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "models/model.h"
#include "ps/shard_layout.h"

namespace specsync {

enum class CodecKind : std::uint8_t {
  kNone = 0,
  kTopK = 1,  // top-k sparsification + error feedback (pushes)
  kInt8 = 2,  // 8-bit linear quantization, power-of-two scale (pushes)
  kFp16 = 3,  // IEEE half precision (pushes)
  kDelta = 4  // version-gated delta pulls (pulls; pushes untouched)
};

const char* CodecKindName(CodecKind kind);

// Parsed form of `--compression=none|topk:F|int8|fp16|delta`. `topk:F`
// accepts a fraction ("topk:0.01") or a percentage ("topk:1%"); bare "topk"
// means 1%.
struct CompressionSpec {
  CodecKind kind = CodecKind::kNone;
  // Fraction of the *input* support each push keeps (top-k only). k is
  // pegged to the input support — not the residual-augmented candidate set —
  // so a sparse push shrinks by ~1/fraction regardless of residual growth.
  double topk_fraction = 0.01;

  bool enabled() const { return kind != CodecKind::kNone; }
  bool transforms_pushes() const {
    return kind == CodecKind::kTopK || kind == CodecKind::kInt8 ||
           kind == CodecKind::kFp16;
  }
  bool delta_pulls() const { return kind == CodecKind::kDelta; }

  static std::optional<CompressionSpec> Parse(std::string_view text);
  std::string Label() const;
};

// --- deterministic quantization helpers (shared by codec + wire codec) ------

// Smallest power of two >= max|v| / 127, or 0.0 when all values are zero.
// Power-of-two scales make q = round(v / scale) and v' = q * scale exact
// floating-point operations, which is what makes int8 quantization
// idempotent: re-quantizing a quantized slice reproduces the same scale and
// the same bytes (the max element maps to |q| in [64, 127], pinning the
// recomputed scale).
double Int8ScaleFor(std::span<const double> values);

// round(value / scale) clamped to [-127, 127]; 0 when scale == 0. Note -0.0
// quantizes to 0 and dequantizes to +0.0 (int8 does not preserve the sign of
// zero; fp16 does).
std::int8_t QuantizeInt8(double value, double scale);
inline double DequantizeInt8(std::int8_t q, double scale) {
  return static_cast<double>(q) * scale;
}

// IEEE binary16 conversion (round-to-nearest-even, overflow to +-inf,
// gradual underflow through half denormals, underflow to signed zero).
// DecodeFp16(EncodeFp16(x)) is idempotent: every half value is exactly
// representable as a double.
std::uint16_t EncodeFp16(double value);
double DecodeFp16(std::uint16_t half);

// Wire-byte model: bytes a per-shard push message carries after coding,
// given the raw f64 bytes ShardLayout::RouteInto computed (sparse:
// 16 B/entry, dense: 8 B/param). Int8 ships 1 B per value plus an 8 B scale;
// fp16 ships 2 B per value. Top-k and delta do not recode values, so their
// routes charge raw bytes (top-k already shrank the support itself).
std::uint64_t CodedRouteBytes(CodecKind kind, bool sparse,
                              std::uint64_t raw_bytes);

// Rewrites each route's raw bytes to its coded size under `kind`
// (CodedRouteBytes), keeping the raw size where coding would not shrink the
// message, and returns the bytes that saved over all routes. The simulator
// charges the rewritten routes; the wire client counts the savings.
std::uint64_t CodeRoutes(CodecKind kind, bool sparse,
                         std::span<ShardRoute> routes);

// --- the codec --------------------------------------------------------------

// Worker-side compression stage. One instance serves all workers of an
// engine; per-worker error-feedback residuals are isolated, so concurrent
// Transform() calls for *distinct* workers are safe (the runtime's worker
// threads), while calls for the same worker must be serialized (they are:
// each worker pushes from its own thread).
class GradientCodec {
 public:
  // `layout` is the store's shard layout: the slices quantization scales
  // are computed over, one per PushShardReq.
  GradientCodec(CompressionSpec spec, std::size_t num_workers,
                ShardLayout layout);

  const CompressionSpec& spec() const { return spec_; }
  std::size_t param_dim() const { return layout_.dim(); }

  // Transforms the gradient `worker` is about to push, in place:
  //  - kTopK: folds the gradient into the worker's residual, emits the top-k
  //    accumulated coordinates as a sparse gradient, keeps the rest.
  //  - kInt8/kFp16: per-shard-slice quantize/dequantize so the in-memory
  //    values equal what the wire would deliver.
  //  - kNone/kDelta: identity.
  void Transform(WorkerId worker, Gradient& grad);

  // The worker's error-feedback residual (empty span until its first top-k
  // push). Test hook for the conservation invariant.
  std::span<const double> residual(WorkerId worker) const;

 private:
  void TransformTopK(WorkerId worker, Gradient& grad);
  void QuantizeInPlace(Gradient& grad) const;

  CompressionSpec spec_;
  ShardLayout layout_;
  // Per-worker dense residual (lazily sized to param_dim on first top-k
  // push) plus the sorted support of its nonzero coordinates, kept so a
  // sparse push costs O(nnz log nnz), not O(dim).
  std::vector<std::vector<double>> residuals_;
  std::vector<std::vector<std::size_t>> supports_;
};

}  // namespace specsync
