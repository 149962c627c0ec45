#include "net/wire.h"

#include <bit>
#include <cstring>
#include <iterator>

#include "common/check.h"
#include "ps/compression.h"

namespace specsync::net {

// Fields and arrays are copied in host byte order, which is the wire's only
// on a little-endian host. A big-endian port would need a byte-swapping
// codec; rather than carry one nothing runs, the build refuses.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies host-order bytes; the wire is "
              "little-endian");

namespace {

constexpr std::size_t kTraceExtFrameBytes = 4 + 2 + kTraceExtBytes;

// Unchecked write cursor into a frame EncodeFrame has already sized exactly
// with EncodedPayloadBytes. Loops keep the cursor in a local: a store through
// a uint8_t* may alias the member, which would force a reload per element.
class Writer {
 public:
  explicit Writer(std::uint8_t* pos) : pos_(pos) {}

  void PutU8(std::uint8_t v) { Put(v); }
  void PutU16(std::uint16_t v) { Put(v); }
  void PutU32(std::uint32_t v) { Put(v); }
  void PutU64(std::uint64_t v) { Put(v); }
  void PutF64(double v) { Put(v); }

  template <typename T>
  void PutArray(std::span<const T> values) {
    if (values.empty()) return;  // data() may be null, and memcpy(null) is UB
    std::memcpy(pos_, values.data(), values.size_bytes());
    pos_ += values.size_bytes();
  }

  // indices.size() x (u64 index, f64 value); values.size() == indices.size().
  void PutPairs(std::span<const std::uint64_t> indices,
                std::span<const double> values) {
    std::uint8_t* out = pos_;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      std::memcpy(out, &indices[i], 8);
      std::memcpy(out + 8, &values[i], 8);
      out += 16;
    }
    pos_ = out;
  }

  // One T per value, as `quantize` maps it.
  template <typename T, typename Quantize>
  void PutQuantized(std::span<const double> values, Quantize quantize) {
    std::uint8_t* out = pos_;
    for (const double v : values) {
      const T q = quantize(v);
      std::memcpy(out, &q, sizeof(q));
      out += sizeof(q);
    }
    pos_ = out;
  }

 private:
  template <typename T>
  void Put(T v) {
    std::memcpy(pos_, &v, sizeof(v));
    pos_ += sizeof(v);
  }

  std::uint8_t* pos_;
};

// Bounds-checked reader over one payload. Every Take sets `ok = false`
// instead of reading past the end, so decoding a truncated payload degrades
// to a single status check at the end.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t TakeU8() { return Take<std::uint8_t>(); }
  std::uint16_t TakeU16() { return Take<std::uint16_t>(); }
  std::uint32_t TakeU32() { return Take<std::uint32_t>(); }
  std::uint64_t TakeU64() { return Take<std::uint64_t>(); }
  double TakeF64() { return Take<double>(); }

  // The next count * item_bytes bytes, or an empty view and !ok() when they
  // are not all there. Every read goes through this one bounds check.
  std::span<const std::uint8_t> TakeBytes(std::uint64_t count,
                                          std::size_t item_bytes) {
    if (!ok_ || !CanTake(count, item_bytes)) {
      ok_ = false;
      return {};
    }
    const std::span<const std::uint8_t> out =
        bytes_.subspan(pos_, count * item_bytes);
    pos_ += out.size();
    return out;
  }

  // `count` T's copied in one go into `out`, sized once. False (and !ok())
  // when the payload does not hold them; `out` is then left untouched, so a
  // corrupt count cannot allocate more than the payload could carry.
  template <typename T>
  bool TakeArray(std::uint64_t count, std::vector<T>& out) {
    const std::span<const std::uint8_t> in = TakeBytes(count, sizeof(T));
    if (!ok_) return false;
    out.resize(count);
    if (!in.empty()) std::memcpy(out.data(), in.data(), in.size());
    return true;
  }

  // `count` interleaved (u64 index, f64 value) pairs, split into two arrays.
  bool TakePairs(std::uint64_t count, std::vector<std::uint64_t>& indices,
                 std::vector<double>& values) {
    const std::span<const std::uint8_t> in = TakeBytes(count, 16);
    if (!ok_) return false;
    indices.resize(count);
    values.resize(count);
    const std::uint8_t* pair = in.data();
    for (std::size_t i = 0; i < count; ++i, pair += 16) {
      std::memcpy(&indices[i], pair, 8);
      std::memcpy(&values[i], pair + 8, 8);
    }
    return true;
  }

  void Skip(std::size_t n) { TakeBytes(n, 1); }

  // True when `count` items of `item_bytes` each still fit (overflow-safe:
  // a corrupt count cannot wrap the product back into range).
  bool CanTake(std::uint64_t count, std::size_t item_bytes) const {
    return count <= (bytes_.size() - pos_) / item_bytes;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  T Take() {
    T v{};
    const std::span<const std::uint8_t> in = TakeBytes(1, sizeof(T));
    if (ok_) std::memcpy(&v, in.data(), sizeof(T));
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// The MsgType of each WireMessage alternative, in variant order.
constexpr MsgType kMessageTypes[] = {
    MsgType::kPullShardReq,  MsgType::kPullShardResp, MsgType::kPushShardReq,
    MsgType::kCommitPushReq, MsgType::kAck,           MsgType::kPullBatchReq,
    MsgType::kPullBatchResp, MsgType::kPushPullReq,   MsgType::kPushPullResp,
};
static_assert(std::size(kMessageTypes) == std::variant_size_v<WireMessage>);

MsgType TypeOf(const WireMessage& message) {
  return kMessageTypes[message.index()];
}

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPullShardReq: return "PullShardReq";
    case MsgType::kPullShardResp: return "PullShardResp";
    case MsgType::kPushShardReq: return "PushShardReq";
    case MsgType::kCommitPushReq: return "CommitPushReq";
    case MsgType::kAck: return "AckResp";
    case MsgType::kPullBatchReq: return "PullBatchReq";
    case MsgType::kPullBatchResp: return "PullBatchResp";
    case MsgType::kPushPullReq: return "PushPullReq";
    case MsgType::kPushPullResp: return "PushPullResp";
  }
  return "unknown";
}

// u32 shard, u64 offset, u64 shard_version, u64 global_version, u64 count.
constexpr std::size_t kPullShardRespHeadBytes = 4 + 8 + 8 + 8 + 8;
// u32 shard, u64 shard_version, u64 global_version.
constexpr std::size_t kNotModifiedBytes = 4 + 8 + 8;
// u32 shard, u64 known_version.
constexpr std::size_t kPullBatchEntryBytes = 4 + 8;

std::size_t PullShardRespBytes(std::size_t params) {
  return kPullShardRespHeadBytes + 8 * params;
}

// A batch item: the kind byte, then its slice.
std::size_t PullBatchItemBytes(const PullBatchItem& item) {
  if (const auto* full = std::get_if<PullShardResp>(&item)) {
    return PullBatchFullItemBytes(full->params.size());
  }
  return 1 + kNotModifiedBytes;
}

bool IsInt8(const PushShardReq& m) {
  return m.coded == static_cast<std::uint8_t>(CodecKind::kInt8);
}

// The values a slice ships: the sparse entries' or the dense slice's.
std::span<const double> SliceValues(const PushShardReq& m) {
  return m.sparse ? std::span<const double>(m.values)
                  : std::span<const double>(m.dense);
}

// EncodePushShard's output size.
std::size_t PushShardBytes(const PushShardReq& m) {
  if (m.sparse) {
    // One index per value: the encoders read values[i] for every index.
    SPECSYNC_CHECK_EQ(m.indices.size(), m.values.size());
  }
  const std::size_t n = SliceValues(m).size();
  // u32 shard, u64 epoch, u8 kind, then u64 nnz or u64 offset + u64 count.
  const std::size_t head = 4 + 8 + 1 + (m.sparse ? 8 : 16);
  if (m.coded == 0) return head + n * (m.sparse ? 16 : 8);
  // u8 codec, u8 sparse, f64 scale (int8), u64 index per value (sparse).
  const bool int8 = IsInt8(m);
  return head + 2 + (int8 ? 8 : 0) + n * ((m.sparse ? 8 : 0) + (int8 ? 1 : 2));
}

// Kind-2 (coded) value payload. The doubles in the struct are already
// quantization-idempotent (produced by GradientCodec::Transform or by a
// previous decode), so re-deriving the quantized form here reproduces the
// exact bytes the original encoder emitted.
void EncodeCodedPush(const PushShardReq& m, Writer& w) {
  w.PutU8(2);  // kind
  w.PutU8(m.coded);
  w.PutU8(m.sparse ? 1 : 0);
  const std::span<const double> values = SliceValues(m);
  const bool int8 = IsInt8(m);
  const double scale = int8 ? Int8ScaleFor(values) : 0.0;
  if (int8) w.PutF64(scale);
  if (m.sparse) {
    w.PutU64(m.indices.size());
    w.PutArray<std::uint64_t>(m.indices);
  } else {
    w.PutU64(m.dense_offset);
    w.PutU64(m.dense.size());
  }
  if (int8) {
    w.PutQuantized<std::int8_t>(
        values, [scale](double v) { return QuantizeInt8(v, scale); });
  } else {
    w.PutQuantized<std::uint16_t>(values, EncodeFp16);
  }
}

// One slice's payload: the whole of a standalone PushShardReq frame's
// payload, and one element of a CommitPushReq batch.
void EncodePushShard(const PushShardReq& m, Writer& w) {
  w.PutU32(m.shard);
  w.PutU64(m.epoch);
  if (m.coded != 0) {
    EncodeCodedPush(m, w);
    return;
  }
  w.PutU8(m.sparse ? 1 : 0);
  if (m.sparse) {
    w.PutU64(m.indices.size());
    w.PutPairs(m.indices, m.values);
  } else {
    w.PutU64(m.dense_offset);
    w.PutU64(m.dense.size());
    w.PutArray<double>(m.dense);
  }
}

// One full shard: the whole of a standalone PullShardResp frame's payload,
// and the slice of a kind-0 PullBatchResp item.
void EncodePullShardResp(const PullShardResp& m, Writer& w) {
  w.PutU32(m.shard);
  w.PutU64(m.offset);
  w.PutU64(m.shard_version);
  w.PutU64(m.global_version);
  w.PutU64(m.params.size());
  w.PutArray<double>(m.params);
}

void EncodePullBatchItem(const PullBatchItem& item, Writer& w) {
  w.PutU8(static_cast<std::uint8_t>(item.index()));
  if (const auto* full = std::get_if<PullShardResp>(&item)) {
    EncodePullShardResp(*full, w);
    return;
  }
  const auto& unchanged = std::get<PullShardNotModified>(item);
  w.PutU32(unchanged.shard);
  w.PutU64(unchanged.shard_version);
  w.PutU64(unchanged.global_version);
}

// One overload per message: the payload fields, trace extension excluded.
// The fused types are their two halves back to back, each byte-identical to
// the standalone payload.
void EncodeBody(const PullShardReq& m, Writer& w) { w.PutU32(m.shard); }
void EncodeBody(const PullShardResp& m, Writer& w) {
  EncodePullShardResp(m, w);
}
void EncodeBody(const PushShardReq& m, Writer& w) { EncodePushShard(m, w); }
void EncodeBody(const CommitPushReq& m, Writer& w) {
  w.PutU64(m.client_id);
  w.PutU64(m.push_seq);
  w.PutU32(static_cast<std::uint32_t>(m.slices.size()));
  for (const PushShardReq& slice : m.slices) EncodePushShard(slice, w);
}
void EncodeBody(const AckResp& m, Writer& w) {
  w.PutU32(m.status);
  w.PutU64(m.value);
}
void EncodeBody(const PullBatchReq& m, Writer& w) {
  w.PutU32(static_cast<std::uint32_t>(m.entries.size()));
  for (const PullBatchEntry& entry : m.entries) {
    w.PutU32(entry.shard);
    w.PutU64(entry.known_version);
  }
}
void EncodeBody(const PullBatchResp& m, Writer& w) {
  w.PutU32(static_cast<std::uint32_t>(m.items.size()));
  for (const PullBatchItem& item : m.items) EncodePullBatchItem(item, w);
}
void EncodeBody(const PushPullReq& m, Writer& w) {
  EncodeBody(m.push, w);
  EncodeBody(m.pull, w);
}
void EncodeBody(const PushPullResp& m, Writer& w) {
  EncodeBody(m.ack, w);
  EncodeBody(m.pull, w);
}

// EncodeBody's output size, overload for overload.
std::size_t BodyBytes(const PullShardReq&) { return 4; }
std::size_t BodyBytes(const PullShardResp& m) {
  return PullShardRespBytes(m.params.size());
}
std::size_t BodyBytes(const PushShardReq& m) { return PushShardBytes(m); }
std::size_t BodyBytes(const CommitPushReq& m) {
  std::size_t bytes = 8 + 8 + 4;
  for (const PushShardReq& slice : m.slices) bytes += PushShardBytes(slice);
  return bytes;
}
std::size_t BodyBytes(const AckResp&) { return 4 + 8; }
std::size_t BodyBytes(const PullBatchReq& m) {
  return 4 + kPullBatchEntryBytes * m.entries.size();
}
std::size_t BodyBytes(const PullBatchResp& m) {
  std::size_t bytes = kPullBatchRespHeadBytes;
  for (const PullBatchItem& item : m.items) bytes += PullBatchItemBytes(item);
  return bytes;
}
std::size_t BodyBytes(const PushPullReq& m) {
  return BodyBytes(m.push) + BodyBytes(m.pull);
}
std::size_t BodyBytes(const PushPullResp& m) {
  return BodyBytes(m.ack) + BodyBytes(m.pull);
}

}  // namespace

std::string TraceIdHex(std::uint64_t id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const unsigned nibble = (id >> shift) & 0xf;
    if (!started && nibble == 0 && shift != 0) continue;
    started = true;
    out += kHex[nibble];
  }
  return out;
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kShortHeader: return "short_header";
    case WireStatus::kBadMagic: return "bad_magic";
    case WireStatus::kBadVersion: return "bad_version";
    case WireStatus::kBadType: return "bad_type";
    case WireStatus::kOversized: return "oversized";
    case WireStatus::kTruncated: return "truncated";
    case WireStatus::kMalformed: return "malformed";
  }
  return "unknown";
}

std::size_t EncodedPayloadBytes(const WireMessage& message,
                                const TraceContext* trace) {
  const bool traced = trace != nullptr && trace->valid();
  return std::visit([](const auto& m) { return BodyBytes(m); }, message) +
         (traced ? kTraceExtFrameBytes : 0);
}

std::size_t PullBatchFullItemBytes(std::size_t params) {
  return 1 + PullShardRespBytes(params);
}

std::vector<std::uint8_t> EncodeFrame(const WireMessage& message,
                                      std::uint64_t request_id,
                                      const TraceContext* trace) {
  const MsgType type = TypeOf(message);
  const std::size_t payload = EncodedPayloadBytes(message, trace);
  SPECSYNC_CHECK_LE(payload, kMaxPayloadBytes)
      << "refusing to encode a " << MsgTypeName(type) << " frame with "
      << payload << " payload bytes: the wire caps a payload at "
      << kMaxPayloadBytes << " bytes";
  std::vector<std::uint8_t> frame(kHeaderBytes + payload);
  Writer w(frame.data());
  w.PutU32(kWireMagic);
  w.PutU16(kWireVersion);
  w.PutU16(static_cast<std::uint16_t>(type));
  w.PutU64(request_id);
  w.PutU32(static_cast<std::uint32_t>(payload));
  std::visit([&w](const auto& m) { EncodeBody(m, w); }, message);
  if (trace != nullptr && trace->valid()) {
    w.PutU32(kTraceExtMagic);
    w.PutU16(kTraceExtBytes);
    w.PutU64(trace->trace_id);
    w.PutU64(trace->parent_span);
  }
  return frame;
}

WireStatus DecodeHeader(std::span<const std::uint8_t> bytes,
                        FrameHeader& out) {
  if (bytes.size() < kHeaderBytes) return WireStatus::kShortHeader;
  Reader r(bytes);
  const std::uint32_t magic = r.TakeU32();
  if (magic != kWireMagic) return WireStatus::kBadMagic;
  out.version = r.TakeU16();
  if (out.version != kWireVersion) return WireStatus::kBadVersion;
  const auto type = static_cast<MsgType>(r.TakeU16());
  switch (type) {
    case MsgType::kPullShardReq:
    case MsgType::kPullShardResp:
    case MsgType::kPushShardReq:
    case MsgType::kCommitPushReq:
    case MsgType::kAck:
    case MsgType::kPullBatchReq:
    case MsgType::kPullBatchResp:
    case MsgType::kPushPullReq:
    case MsgType::kPushPullResp:
      break;
    default:
      return WireStatus::kBadType;  // includes the reserved 6 and 7
  }
  out.type = type;
  out.request_id = r.TakeU64();
  out.payload_bytes = r.TakeU32();
  if (out.payload_bytes > kMaxPayloadBytes) return WireStatus::kOversized;
  return WireStatus::kOk;
}

namespace {

// Shared payload tail: either the payload is exhausted (no extension), or the
// remainder must be a complete trace-context extension. Anything else keeps
// the strict-decode contract: non-extension trailing bytes are kMalformed, a
// extension cut short is kTruncated. `ext_bytes` longer than the 16 bytes we
// understand is skipped for forward compatibility.
WireStatus DecodeTraceTail(Reader& r, TraceContext* trace) {
  if (trace != nullptr) *trace = TraceContext{};
  if (r.exhausted()) return WireStatus::kOk;
  TraceContext parsed;
  const std::uint32_t ext_magic = r.TakeU32();
  const std::uint16_t ext_bytes = r.TakeU16();
  if (!r.ok() || ext_magic != kTraceExtMagic || ext_bytes < kTraceExtBytes) {
    return WireStatus::kMalformed;
  }
  parsed.trace_id = r.TakeU64();
  parsed.parent_span = r.TakeU64();
  r.Skip(ext_bytes - kTraceExtBytes);
  if (!r.ok()) return WireStatus::kTruncated;
  if (!r.exhausted()) return WireStatus::kMalformed;
  if (trace != nullptr) *trace = parsed;
  return WireStatus::kOk;
}

// Parses one slice (EncodePushShard's layout) from the reader's position.
WireStatus DecodePushShard(Reader& r, PushShardReq& m) {
  m.shard = r.TakeU32();
  m.epoch = r.TakeU64();
  const std::uint8_t kind = r.TakeU8();
  if (!r.ok() || kind > 2) {
    return r.ok() ? WireStatus::kMalformed : WireStatus::kTruncated;
  }
  if (kind == 2) {
    const std::uint8_t codec = r.TakeU8();
    const std::uint8_t sparse = r.TakeU8();
    if (!r.ok() ||
        (codec != static_cast<std::uint8_t>(CodecKind::kInt8) &&
         codec != static_cast<std::uint8_t>(CodecKind::kFp16)) ||
        sparse > 1) {
      return r.ok() ? WireStatus::kMalformed : WireStatus::kTruncated;
    }
    m.coded = codec;
    m.sparse = sparse == 1;
    const bool int8 = IsInt8(m);
    const double scale = int8 ? r.TakeF64() : 0.0;
    const std::size_t value_bytes = int8 ? 1 : 2;
    std::uint64_t count = 0;
    if (m.sparse) {
      count = r.TakeU64();
      // Indices and values together, before the indices are sized.
      if (!r.ok() || !r.CanTake(count, 8 + value_bytes)) {
        return WireStatus::kTruncated;
      }
      r.TakeArray(count, m.indices);
    } else {
      m.dense_offset = r.TakeU64();
      count = r.TakeU64();
    }
    const std::span<const std::uint8_t> coded = r.TakeBytes(count, value_bytes);
    if (!r.ok()) return WireStatus::kTruncated;
    std::vector<double>& values = m.sparse ? m.values : m.dense;
    values.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (int8) {
        values[i] = DequantizeInt8(static_cast<std::int8_t>(coded[i]), scale);
      } else {
        std::uint16_t half = 0;
        std::memcpy(&half, coded.data() + 2 * i, 2);
        values[i] = DecodeFp16(half);
      }
    }
    return WireStatus::kOk;
  }
  m.sparse = kind == 1;
  if (m.sparse) {
    const std::uint64_t nnz = r.TakeU64();
    if (!r.TakePairs(nnz, m.indices, m.values)) return WireStatus::kTruncated;
  } else {
    m.dense_offset = r.TakeU64();
    const std::uint64_t count = r.TakeU64();
    if (!r.TakeArray(count, m.dense)) return WireStatus::kTruncated;
  }
  return WireStatus::kOk;
}

// The smallest slice: u32 shard, u64 epoch, u8 kind, u64 count/nnz. Bounds a
// batch's claimed slice count before anything is reserved for it.
constexpr std::size_t kMinPushShardBytes = 4 + 8 + 1 + 8;

// Parses one full shard (EncodePullShardResp's layout); false = truncated.
bool DecodePullShardResp(Reader& r, PullShardResp& m) {
  m.shard = r.TakeU32();
  m.offset = r.TakeU64();
  m.shard_version = r.TakeU64();
  m.global_version = r.TakeU64();
  const std::uint64_t count = r.TakeU64();
  return r.TakeArray(count, m.params);
}

WireStatus DecodePullBatchItem(Reader& r, PullBatchItem& item) {
  const std::uint8_t kind = r.TakeU8();
  if (!r.ok()) return WireStatus::kTruncated;
  if (kind == 0) {
    PullShardResp& full = item.emplace<PullShardResp>();
    return DecodePullShardResp(r, full) ? WireStatus::kOk
                                        : WireStatus::kTruncated;
  }
  if (kind != 1) return WireStatus::kMalformed;
  PullShardNotModified& unchanged = item.emplace<PullShardNotModified>();
  unchanged.shard = r.TakeU32();
  unchanged.shard_version = r.TakeU64();
  unchanged.global_version = r.TakeU64();
  return r.ok() ? WireStatus::kOk : WireStatus::kTruncated;
}

// The smallest item: a kind byte and a not-modified slice.
constexpr std::size_t kMinPullBatchItemBytes = 1 + kNotModifiedBytes;

// One overload per message, EncodeBody's inverse: the payload fields from
// the reader's position, trace extension excluded.
WireStatus DecodeBody(Reader& r, PullShardReq& m) {
  m.shard = r.TakeU32();
  return r.ok() ? WireStatus::kOk : WireStatus::kTruncated;
}
WireStatus DecodeBody(Reader& r, PullShardResp& m) {
  return DecodePullShardResp(r, m) ? WireStatus::kOk : WireStatus::kTruncated;
}
WireStatus DecodeBody(Reader& r, PushShardReq& m) {
  return DecodePushShard(r, m);
}
WireStatus DecodeBody(Reader& r, CommitPushReq& m) {
  m.client_id = r.TakeU64();
  m.push_seq = r.TakeU64();
  const std::uint32_t count = r.TakeU32();
  if (!r.ok() || !r.CanTake(count, kMinPushShardBytes)) {
    return WireStatus::kTruncated;
  }
  m.slices.resize(count);
  for (PushShardReq& slice : m.slices) {
    const WireStatus status = DecodePushShard(r, slice);
    if (status != WireStatus::kOk) return status;
  }
  return WireStatus::kOk;
}
WireStatus DecodeBody(Reader& r, AckResp& m) {
  m.status = r.TakeU32();
  m.value = r.TakeU64();
  return r.ok() ? WireStatus::kOk : WireStatus::kTruncated;
}
WireStatus DecodeBody(Reader& r, PullBatchReq& m) {
  const std::uint32_t count = r.TakeU32();
  if (!r.ok() || !r.CanTake(count, kPullBatchEntryBytes)) {
    return WireStatus::kTruncated;
  }
  m.entries.resize(count);
  for (PullBatchEntry& entry : m.entries) {
    entry.shard = r.TakeU32();
    entry.known_version = r.TakeU64();
  }
  return WireStatus::kOk;
}
WireStatus DecodeBody(Reader& r, PullBatchResp& m) {
  const std::uint32_t count = r.TakeU32();
  if (!r.ok() || !r.CanTake(count, kMinPullBatchItemBytes)) {
    return WireStatus::kTruncated;
  }
  m.items.resize(count);
  for (PullBatchItem& item : m.items) {
    const WireStatus status = DecodePullBatchItem(r, item);
    if (status != WireStatus::kOk) return status;
  }
  return WireStatus::kOk;
}
WireStatus DecodeBody(Reader& r, PushPullReq& m) {
  const WireStatus push = DecodeBody(r, m.push);
  return push != WireStatus::kOk ? push : DecodeBody(r, m.pull);
}
WireStatus DecodeBody(Reader& r, PushPullResp& m) {
  const WireStatus ack = DecodeBody(r, m.ack);
  return ack != WireStatus::kOk ? ack : DecodeBody(r, m.pull);
}

// A whole payload: the body, then the optional trace extension. `out` is
// assigned only when both decode.
template <typename T>
WireStatus DecodeMessage(Reader& r, WireMessage& out, TraceContext* trace) {
  T m;
  WireStatus status = DecodeBody(r, m);
  if (status == WireStatus::kOk) status = DecodeTraceTail(r, trace);
  if (status == WireStatus::kOk) out = std::move(m);
  return status;
}

}  // namespace

WireStatus DecodePayload(const FrameHeader& header,
                         std::span<const std::uint8_t> payload,
                         WireMessage& out, TraceContext* trace) {
  if (payload.size() < header.payload_bytes) return WireStatus::kTruncated;
  if (payload.size() > header.payload_bytes) return WireStatus::kMalformed;
  Reader r(payload);
  switch (header.type) {
    case MsgType::kPullShardReq:
      return DecodeMessage<PullShardReq>(r, out, trace);
    case MsgType::kPullShardResp:
      return DecodeMessage<PullShardResp>(r, out, trace);
    case MsgType::kPushShardReq:
      return DecodeMessage<PushShardReq>(r, out, trace);
    case MsgType::kCommitPushReq:
      return DecodeMessage<CommitPushReq>(r, out, trace);
    case MsgType::kAck:
      return DecodeMessage<AckResp>(r, out, trace);
    case MsgType::kPullBatchReq:
      return DecodeMessage<PullBatchReq>(r, out, trace);
    case MsgType::kPullBatchResp:
      return DecodeMessage<PullBatchResp>(r, out, trace);
    case MsgType::kPushPullReq:
      return DecodeMessage<PushPullReq>(r, out, trace);
    case MsgType::kPushPullResp:
      return DecodeMessage<PushPullResp>(r, out, trace);
  }
  return WireStatus::kBadType;
}

WireStatus DecodeFrame(std::span<const std::uint8_t> frame,
                       std::uint64_t& request_id, WireMessage& out,
                       TraceContext* trace) {
  FrameHeader header;
  const WireStatus header_status = DecodeHeader(frame, header);
  if (header_status != WireStatus::kOk) return header_status;
  request_id = header.request_id;
  return DecodePayload(header, frame.subspan(kHeaderBytes), out, trace);
}

}  // namespace specsync::net
