#include "net/wire.h"

#include <bit>
#include <cstring>

#include "ps/compression.h"

namespace specsync::net {

namespace {

void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutF64(std::vector<std::uint8_t>& out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

// Bounds-checked little-endian reader over one payload. Every Take sets
// `ok = false` instead of reading past the end, so decoding a truncated
// payload degrades to a single status check at the end.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t TakeU8() {
    if (!Need(1)) return 0;
    return bytes_[pos_++];
  }
  std::uint16_t TakeU16() {
    if (!Need(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(v | (bytes_[pos_ + i] << (8 * i)));
    }
    pos_ += 2;
    return v;
  }
  std::uint32_t TakeU32() {
    if (!Need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t TakeU64() {
    if (!Need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  double TakeF64() { return std::bit_cast<double>(TakeU64()); }

  void Skip(std::size_t n) {
    if (Need(n)) pos_ += n;
  }

  // True when `count` items of `item_bytes` each still fit (overflow-safe:
  // a corrupt count cannot wrap the product back into range).
  bool CanTake(std::uint64_t count, std::size_t item_bytes) const {
    return count <= (bytes_.size() - pos_) / item_bytes;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  bool Need(std::size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

MsgType TypeOf(const WireMessage& message) {
  struct Visitor {
    MsgType operator()(const PullShardReq&) { return MsgType::kPullShardReq; }
    MsgType operator()(const PullShardResp&) { return MsgType::kPullShardResp; }
    MsgType operator()(const PushShardReq&) { return MsgType::kPushShardReq; }
    MsgType operator()(const CommitPushReq&) { return MsgType::kCommitPushReq; }
    MsgType operator()(const AckResp&) { return MsgType::kAck; }
    MsgType operator()(const PullShardDeltaReq&) {
      return MsgType::kPullShardDeltaReq;
    }
    MsgType operator()(const PullShardNotModified&) {
      return MsgType::kPullShardNotModified;
    }
  };
  return std::visit(Visitor{}, message);
}

// Kind-2 (coded) value payload. The doubles in the struct are already
// quantization-idempotent (produced by GradientCodec::Transform or by a
// previous decode), so re-deriving the quantized form here reproduces the
// exact bytes the original encoder emitted.
void EncodeCodedPush(const PushShardReq& m, std::vector<std::uint8_t>& out) {
  PutU8(out, 2);  // kind
  PutU8(out, m.coded);
  PutU8(out, m.sparse ? 1 : 0);
  const std::span<const double> values =
      m.sparse ? std::span<const double>(m.values)
               : std::span<const double>(m.dense);
  const bool int8 = m.coded == static_cast<std::uint8_t>(CodecKind::kInt8);
  double scale = 0.0;
  if (int8) {
    scale = Int8ScaleFor(values);
    PutF64(out, scale);
  }
  if (m.sparse) {
    PutU64(out, m.indices.size());
    for (std::uint64_t index : m.indices) PutU64(out, index);
  } else {
    PutU64(out, m.dense_offset);
    PutU64(out, m.dense.size());
  }
  for (double v : values) {
    if (int8) {
      PutU8(out, static_cast<std::uint8_t>(QuantizeInt8(v, scale)));
    } else {
      PutU16(out, EncodeFp16(v));
    }
  }
}

// One slice's payload: the whole of a standalone PushShardReq frame's
// payload, and one element of a CommitPushReq batch.
void EncodePushShard(const PushShardReq& m, std::vector<std::uint8_t>& out) {
  PutU32(out, m.shard);
  PutU64(out, m.epoch);
  if (m.coded != 0) {
    EncodeCodedPush(m, out);
    return;
  }
  PutU8(out, m.sparse ? 1 : 0);
  if (m.sparse) {
    PutU64(out, m.indices.size());
    for (std::size_t i = 0; i < m.indices.size(); ++i) {
      PutU64(out, m.indices[i]);
      PutF64(out, m.values[i]);
    }
  } else {
    PutU64(out, m.dense_offset);
    PutU64(out, m.dense.size());
    for (double v : m.dense) PutF64(out, v);
  }
}

void EncodePayload(const WireMessage& message, std::vector<std::uint8_t>& out) {
  struct Visitor {
    std::vector<std::uint8_t>& out;
    void operator()(const PullShardReq& m) { PutU32(out, m.shard); }
    void operator()(const PullShardResp& m) {
      PutU32(out, m.shard);
      PutU64(out, m.offset);
      PutU64(out, m.shard_version);
      PutU64(out, m.global_version);
      PutU64(out, m.params.size());
      for (double v : m.params) PutF64(out, v);
    }
    void operator()(const PushShardReq& m) { EncodePushShard(m, out); }
    void operator()(const CommitPushReq& m) {
      PutU64(out, m.client_id);
      PutU64(out, m.push_seq);
      PutU32(out, static_cast<std::uint32_t>(m.slices.size()));
      for (const PushShardReq& slice : m.slices) EncodePushShard(slice, out);
    }
    void operator()(const AckResp& m) {
      PutU32(out, m.status);
      PutU64(out, m.value);
    }
    void operator()(const PullShardDeltaReq& m) {
      PutU32(out, m.shard);
      PutU64(out, m.known_version);
    }
    void operator()(const PullShardNotModified& m) {
      PutU32(out, m.shard);
      PutU64(out, m.shard_version);
      PutU64(out, m.global_version);
    }
  };
  std::visit(Visitor{out}, message);
}

}  // namespace

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

std::vector<std::uint8_t> EncodeFrame(const WireMessage& message,
                                      std::uint64_t request_id,
                                      const TraceContext* trace) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + 64);
  PutU32(frame, kWireMagic);
  PutU16(frame, kWireVersion);
  PutU16(frame, static_cast<std::uint16_t>(TypeOf(message)));
  PutU64(frame, request_id);
  PutU32(frame, 0);  // payload_bytes, patched below
  EncodePayload(message, frame);
  if (trace != nullptr && trace->valid()) {
    PutU32(frame, kTraceExtMagic);
    PutU16(frame, kTraceExtBytes);
    PutU64(frame, trace->trace_id);
    PutU64(frame, trace->parent_span);
  }
  const std::uint64_t payload = frame.size() - kHeaderBytes;
  frame[16] = static_cast<std::uint8_t>(payload);
  frame[17] = static_cast<std::uint8_t>(payload >> 8);
  frame[18] = static_cast<std::uint8_t>(payload >> 16);
  frame[19] = static_cast<std::uint8_t>(payload >> 24);
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
  const std::uint16_t type = r.TakeU16();
  if (type < static_cast<std::uint16_t>(MsgType::kPullShardReq) ||
      type > static_cast<std::uint16_t>(MsgType::kPullShardNotModified)) {
    return WireStatus::kBadType;
  }
  out.type = static_cast<MsgType>(type);
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
    const bool int8 = codec == static_cast<std::uint8_t>(CodecKind::kInt8);
    const double scale = int8 ? r.TakeF64() : 0.0;
    const std::size_t value_bytes = int8 ? 1 : 2;
    std::uint64_t count = 0;
    if (m.sparse) {
      count = r.TakeU64();
      if (!r.ok() || !r.CanTake(count, 8 + value_bytes)) {
        return WireStatus::kTruncated;
      }
      m.indices.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        m.indices.push_back(r.TakeU64());
      }
    } else {
      m.dense_offset = r.TakeU64();
      count = r.TakeU64();
      if (!r.ok() || !r.CanTake(count, value_bytes)) {
        return WireStatus::kTruncated;
      }
    }
    std::vector<double>& values = m.sparse ? m.values : m.dense;
    values.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      if (int8) {
        values.push_back(
            DequantizeInt8(static_cast<std::int8_t>(r.TakeU8()), scale));
      } else {
        values.push_back(DecodeFp16(r.TakeU16()));
      }
    }
    return r.ok() ? WireStatus::kOk : WireStatus::kTruncated;
  }
  m.sparse = kind == 1;
  if (m.sparse) {
    const std::uint64_t nnz = r.TakeU64();
    if (!r.ok() || !r.CanTake(nnz, 16)) return WireStatus::kTruncated;
    m.indices.reserve(nnz);
    m.values.reserve(nnz);
    for (std::uint64_t i = 0; i < nnz; ++i) {
      m.indices.push_back(r.TakeU64());
      m.values.push_back(r.TakeF64());
    }
  } else {
    m.dense_offset = r.TakeU64();
    const std::uint64_t count = r.TakeU64();
    if (!r.ok() || !r.CanTake(count, sizeof(double))) {
      return WireStatus::kTruncated;
    }
    m.dense.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) m.dense.push_back(r.TakeF64());
  }
  return r.ok() ? WireStatus::kOk : WireStatus::kTruncated;
}

// The smallest slice: u32 shard, u64 epoch, u8 kind, u64 count/nnz. Bounds a
// batch's claimed slice count before anything is reserved for it.
constexpr std::size_t kMinPushShardBytes = 4 + 8 + 1 + 8;

}  // namespace

WireStatus DecodePayload(const FrameHeader& header,
                         std::span<const std::uint8_t> payload,
                         WireMessage& out, TraceContext* trace) {
  if (payload.size() < header.payload_bytes) return WireStatus::kTruncated;
  if (payload.size() > header.payload_bytes) return WireStatus::kMalformed;
  Reader r(payload);
  switch (header.type) {
    case MsgType::kPullShardReq: {
      PullShardReq m;
      m.shard = r.TakeU32();
      if (!r.ok()) return WireStatus::kTruncated;
      const WireStatus tail = DecodeTraceTail(r, trace);
      if (tail != WireStatus::kOk) return tail;
      out = std::move(m);
      return WireStatus::kOk;
    }
    case MsgType::kPullShardResp: {
      PullShardResp m;
      m.shard = r.TakeU32();
      m.offset = r.TakeU64();
      m.shard_version = r.TakeU64();
      m.global_version = r.TakeU64();
      const std::uint64_t count = r.TakeU64();
      if (!r.ok() || !r.CanTake(count, sizeof(double))) {
        return WireStatus::kTruncated;
      }
      m.params.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) m.params.push_back(r.TakeF64());
      if (!r.ok()) return WireStatus::kTruncated;
      const WireStatus tail = DecodeTraceTail(r, trace);
      if (tail != WireStatus::kOk) return tail;
      out = std::move(m);
      return WireStatus::kOk;
    }
    case MsgType::kPushShardReq: {
      PushShardReq m;
      const WireStatus slice = DecodePushShard(r, m);
      if (slice != WireStatus::kOk) return slice;
      const WireStatus tail = DecodeTraceTail(r, trace);
      if (tail != WireStatus::kOk) return tail;
      out = std::move(m);
      return WireStatus::kOk;
    }
    case MsgType::kCommitPushReq: {
      CommitPushReq m;
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
      const WireStatus tail = DecodeTraceTail(r, trace);
      if (tail != WireStatus::kOk) return tail;
      out = std::move(m);
      return WireStatus::kOk;
    }
    case MsgType::kAck: {
      AckResp m;
      m.status = r.TakeU32();
      m.value = r.TakeU64();
      if (!r.ok()) return WireStatus::kTruncated;
      const WireStatus tail = DecodeTraceTail(r, trace);
      if (tail != WireStatus::kOk) return tail;
      out = m;
      return WireStatus::kOk;
    }
    case MsgType::kPullShardDeltaReq: {
      PullShardDeltaReq m;
      m.shard = r.TakeU32();
      m.known_version = r.TakeU64();
      if (!r.ok()) return WireStatus::kTruncated;
      const WireStatus tail = DecodeTraceTail(r, trace);
      if (tail != WireStatus::kOk) return tail;
      out = m;
      return WireStatus::kOk;
    }
    case MsgType::kPullShardNotModified: {
      PullShardNotModified m;
      m.shard = r.TakeU32();
      m.shard_version = r.TakeU64();
      m.global_version = r.TakeU64();
      if (!r.ok()) return WireStatus::kTruncated;
      const WireStatus tail = DecodeTraceTail(r, trace);
      if (tail != WireStatus::kOk) return tail;
      out = m;
      return WireStatus::kOk;
    }
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
