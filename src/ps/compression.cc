#include "ps/compression.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace specsync {

namespace {

// Parses a full-string double; rejects empty / trailing junk / non-finite.
std::optional<double> ParseDouble(std::string_view text) {
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

const char* CodecKindName(CodecKind kind) {
  switch (kind) {
    case CodecKind::kNone:
      return "none";
    case CodecKind::kTopK:
      return "topk";
    case CodecKind::kInt8:
      return "int8";
    case CodecKind::kFp16:
      return "fp16";
    case CodecKind::kDelta:
      return "delta";
  }
  return "unknown";
}

std::optional<CompressionSpec> CompressionSpec::Parse(std::string_view text) {
  CompressionSpec spec;
  if (text == "none") return spec;
  if (text == "int8") {
    spec.kind = CodecKind::kInt8;
    return spec;
  }
  if (text == "fp16") {
    spec.kind = CodecKind::kFp16;
    return spec;
  }
  if (text == "delta") {
    spec.kind = CodecKind::kDelta;
    return spec;
  }
  if (text == "topk") {
    spec.kind = CodecKind::kTopK;
    return spec;
  }
  constexpr std::string_view kTopkPrefix = "topk:";
  if (text.substr(0, kTopkPrefix.size()) == kTopkPrefix) {
    std::string_view arg = text.substr(kTopkPrefix.size());
    const bool percent = !arg.empty() && arg.back() == '%';
    if (percent) arg.remove_suffix(1);
    const std::optional<double> parsed = ParseDouble(arg);
    if (!parsed.has_value()) return std::nullopt;
    const double fraction = percent ? *parsed / 100.0 : *parsed;
    if (!(fraction > 0.0 && fraction <= 1.0)) return std::nullopt;
    spec.kind = CodecKind::kTopK;
    spec.topk_fraction = fraction;
    return spec;
  }
  return std::nullopt;
}

std::string CompressionSpec::Label() const {
  if (kind != CodecKind::kTopK) return CodecKindName(kind);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "topk:%g", topk_fraction);
  return buf;
}

double Int8ScaleFor(std::span<const double> values) {
  double max_abs = 0.0;
  for (const double v : values) max_abs = std::max(max_abs, std::fabs(v));
  if (max_abs == 0.0) return 0.0;
  const double ratio = max_abs / 127.0;
  int exp = 0;
  const double mantissa = std::frexp(ratio, &exp);  // ratio = m * 2^exp
  // Smallest power of two >= ratio: 2^(exp-1) when ratio is itself a power
  // of two (m == 0.5), else 2^exp.
  return std::ldexp(1.0, mantissa == 0.5 ? exp - 1 : exp);
}

std::int8_t QuantizeInt8(double value, double scale) {
  if (scale == 0.0) return 0;
  const long long q = std::llround(value / scale);
  return static_cast<std::int8_t>(std::clamp(q, -127LL, 127LL));
}

std::uint16_t EncodeFp16(double value) {
  const float f = static_cast<float>(value);
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::uint32_t exp = (bits >> 23) & 0xffu;
  std::uint32_t mant = bits & 0x7fffffu;
  if (exp == 0xffu) {  // inf / nan
    return static_cast<std::uint16_t>(sign | 0x7c00u | (mant != 0 ? 0x200u : 0u));
  }
  const int half_exp = static_cast<int>(exp) - 127 + 15;
  if (half_exp >= 0x1f) {  // overflow -> signed infinity
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (half_exp <= 0) {  // half denormal (or zero)
    if (half_exp < -10 || exp == 0) {  // underflow to signed zero
      return static_cast<std::uint16_t>(sign);
    }
    mant |= 0x800000u;  // restore the implicit leading 1
    const int shift = 14 - half_exp;  // in [14, 24]
    std::uint32_t half_mant = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u) != 0)) {
      ++half_mant;  // a carry out of the mantissa lands in exponent 1: correct
    }
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  std::uint32_t half = sign | (static_cast<std::uint32_t>(half_exp) << 10) |
                       (mant >> 13);
  const std::uint32_t rem = mant & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u) != 0)) {
    ++half;  // carry may roll into the exponent, 0x7c00 (inf) included: correct
  }
  return static_cast<std::uint16_t>(half);
}

double DecodeFp16(std::uint16_t half) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half) & 0x8000u) << 16;
  const std::uint32_t exp = (half >> 10) & 0x1fu;
  const std::uint32_t mant = half & 0x3ffu;
  std::uint32_t bits = 0;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // signed zero
    } else {
      // Denormal half: value = mant * 2^-24. Normalize into a float.
      std::uint32_t m = mant;
      int shift = 0;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++shift;
      }
      bits = sign | (static_cast<std::uint32_t>(113 - shift) << 23) |
             ((m & 0x3ffu) << 13);
    }
  } else if (exp == 0x1f) {
    bits = sign | 0x7f800000u | (mant << 13);
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return static_cast<double>(f);
}

std::uint64_t CodedRouteBytes(CodecKind kind, bool sparse,
                              std::uint64_t raw_bytes) {
  if (raw_bytes == 0) return 0;
  switch (kind) {
    case CodecKind::kInt8:
      // sparse: 8 B index + 1 B value per entry; dense: 1 B per value.
      // Either way one 8 B scale per message.
      return (sparse ? (raw_bytes / 16) * 9 : raw_bytes / 8) + 8;
    case CodecKind::kFp16:
      return sparse ? (raw_bytes / 16) * 10 : raw_bytes / 4;
    case CodecKind::kNone:
    case CodecKind::kTopK:
    case CodecKind::kDelta:
      return raw_bytes;
  }
  return raw_bytes;
}

std::uint64_t CodeRoutes(CodecKind kind, bool sparse,
                         std::span<ShardRoute> routes) {
  std::uint64_t saved = 0;
  for (ShardRoute& route : routes) {
    const std::uint64_t coded = CodedRouteBytes(kind, sparse, route.bytes);
    if (coded < route.bytes) {
      saved += route.bytes - coded;
      route.bytes = coded;
    }
  }
  return saved;
}

GradientCodec::GradientCodec(CompressionSpec spec, std::size_t num_workers,
                             ShardLayout layout)
    : spec_(spec),
      layout_(std::move(layout)),
      residuals_(num_workers),
      supports_(num_workers) {}

void GradientCodec::Transform(WorkerId worker, Gradient& grad) {
  switch (spec_.kind) {
    case CodecKind::kNone:
    case CodecKind::kDelta:
      return;
    case CodecKind::kTopK:
      TransformTopK(worker, grad);
      return;
    case CodecKind::kInt8:
    case CodecKind::kFp16:
      QuantizeInPlace(grad);
      return;
  }
}

std::span<const double> GradientCodec::residual(WorkerId worker) const {
  SPECSYNC_CHECK_LT(worker, residuals_.size());
  return residuals_[worker];
}

void GradientCodec::TransformTopK(WorkerId worker, Gradient& grad) {
  SPECSYNC_CHECK_LT(worker, residuals_.size());
  const std::size_t dim = layout_.dim();
  std::vector<double>& residual = residuals_[worker];
  if (residual.empty()) residual.assign(dim, 0.0);
  std::vector<std::size_t>& support = supports_[worker];

  // Fold the input into the residual; `support` becomes the union of the old
  // residual support and the input support.
  std::size_t input_support = 0;
  if (grad.is_sparse()) {
    grad.sparse().Coalesce();
    const auto indices = grad.sparse().indices();
    const auto values = grad.sparse().values();
    input_support = indices.size();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      SPECSYNC_CHECK_LT(indices[i], dim);
      residual[indices[i]] += values[i];
      support.push_back(static_cast<std::size_t>(indices[i]));
    }
    std::sort(support.begin(), support.end());
    support.erase(std::unique(support.begin(), support.end()), support.end());
  } else {
    SPECSYNC_CHECK_EQ(grad.dense().size(), dim);
    input_support = dim;
    for (std::size_t i = 0; i < dim; ++i) {
      residual[i] += grad.dense()[i];
    }
    support.clear();
    for (std::size_t i = 0; i < dim; ++i) {
      if (residual[i] != 0.0) support.push_back(i);
    }
  }

  // Candidates: coordinates with a nonzero accumulated value (the threshold
  // part of "top-k + threshold": exact zeros never compete or linger).
  std::vector<std::size_t> candidates;
  candidates.reserve(support.size());
  for (const std::size_t idx : support) {
    if (residual[idx] != 0.0) candidates.push_back(idx);
  }

  // k is pegged to the *input* support (see CompressionSpec::topk_fraction).
  const auto k = static_cast<std::size_t>(std::max<long long>(
      1, std::llround(spec_.topk_fraction *
                      static_cast<double>(input_support))));
  const std::size_t selected = std::min(k, candidates.size());
  if (candidates.size() > selected) {
    const auto better = [&](std::size_t a, std::size_t b) {
      const double ma = std::fabs(residual[a]);
      const double mb = std::fabs(residual[b]);
      if (ma != mb) return ma > mb;
      return a < b;  // deterministic tie-break
    };
    std::nth_element(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(selected),
                     candidates.end(), better);
  }

  // Emit the winners (index-sorted, canonical), zero their residual slots;
  // the losers *are* the new residual support.
  std::vector<std::size_t> winners(
      candidates.begin(),
      candidates.begin() + static_cast<std::ptrdiff_t>(selected));
  std::sort(winners.begin(), winners.end());
  Gradient out = Gradient::Sparse();
  out.sparse().Reserve(winners.size());
  for (const std::size_t idx : winners) {
    out.sparse().Add(idx, residual[idx]);
    residual[idx] = 0.0;
  }
  support.assign(candidates.begin() + static_cast<std::ptrdiff_t>(selected),
                 candidates.end());
  std::sort(support.begin(), support.end());
  grad = std::move(out);
}

void GradientCodec::QuantizeInPlace(Gradient& grad) const {
  std::span<double> values;
  if (grad.is_sparse()) {
    grad.sparse().Coalesce();
    values = grad.sparse().mutable_values();
  } else {
    values = grad.dense();
  }
  if (spec_.kind == CodecKind::kFp16) {
    for (double& v : values) v = DecodeFp16(EncodeFp16(v));
    return;
  }
  // Int8: one scale per shard, over exactly the entries its PushShardReq
  // ships. The indices are coalesced (sorted), so each route's entry range
  // holds its shard's entries and nothing else.
  std::vector<ShardRoute> routes;
  layout_.RouteInto(grad, routes);
  for (const ShardRoute& route : routes) {
    const std::span<double> slice =
        values.subspan(route.begin, route.end - route.begin);
    const double scale = Int8ScaleFor(slice);
    for (double& v : slice) v = DequantizeInt8(QuantizeInt8(v, scale), scale);
  }
}

}  // namespace specsync
