// Property suite for the bulk wire codec (net/wire.cc).
//
// The byte-at-a-time encoder and decoder that the bulk codec replaced live
// on below as the reference, extended in the same style to the pull batch
// types; the fused push+pull types are built from its existing payloads,
// back to back. Each trial is a short list of seeded random messages — all
// nine types; dense, sparse, int8 and fp16 slices; pull batches mixing full
// and not-modified items; empty arrays and batches; NaN and -0 bit patterns;
// trace extension on and off — and for every message:
//  - EncodeFrame equals the reference frame byte for byte;
//  - EncodedPayloadBytes equals the frame's payload size;
//  - the whole frame, every prefix of it, every payload prefix under a
//    header patched to that length, and a few random single-byte flips
//    decode to the reference decoder's WireStatus (and, when both accept,
//    to the same message and trace context, compared bit for bit).
//
// On failure the harness shrinks the trial (greedy ddmin over messages, then
// batch slices or items, then array entries — the compression_property_test
// recipe, descending into both halves of a fused message) and prints it.
// Three planted bugs must be caught and shrunk:
// sparse pairs written value first, a bulk f64 take that skips CanTake, and
// a pull batch decoder that ignores each item's kind byte.
//
// Trials are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/wire.h"
#include "ps/compression.h"
#include "support/property.h"

namespace specsync::net {
namespace {

// --- reference: the byte-at-a-time codec, kept only to prove equivalence ----

namespace ref {

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
    MsgType operator()(const PullBatchReq&) { return MsgType::kPullBatchReq; }
    MsgType operator()(const PullBatchResp&) {
      return MsgType::kPullBatchResp;
    }
    MsgType operator()(const PushPullReq&) { return MsgType::kPushPullReq; }
    MsgType operator()(const PushPullResp&) { return MsgType::kPushPullResp; }
  };
  return std::visit(Visitor{}, message);
}

// One full shard: a standalone PullShardResp payload, and the slice of a
// kind-0 PullBatchResp item.
void EncodePullShardResp(const PullShardResp& m,
                         std::vector<std::uint8_t>& out) {
  PutU32(out, m.shard);
  PutU64(out, m.offset);
  PutU64(out, m.shard_version);
  PutU64(out, m.global_version);
  PutU64(out, m.params.size());
  for (double v : m.params) PutF64(out, v);
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
    void operator()(const PullShardResp& m) { EncodePullShardResp(m, out); }
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
    void operator()(const PullBatchReq& m) {
      PutU32(out, static_cast<std::uint32_t>(m.entries.size()));
      for (const PullBatchEntry& entry : m.entries) {
        PutU32(out, entry.shard);
        PutU64(out, entry.known_version);
      }
    }
    void operator()(const PullBatchResp& m) {
      PutU32(out, static_cast<std::uint32_t>(m.items.size()));
      for (const PullBatchItem& item : m.items) {
        if (const auto* full = std::get_if<PullShardResp>(&item)) {
          PutU8(out, 0);
          EncodePullShardResp(*full, out);
        } else {
          const auto& unchanged = std::get<PullShardNotModified>(item);
          PutU8(out, 1);
          PutU32(out, unchanged.shard);
          PutU64(out, unchanged.shard_version);
          PutU64(out, unchanged.global_version);
        }
      }
    }
    // The fused types: the two standalone payloads back to back.
    void operator()(const PushPullReq& m) {
      (*this)(m.push);
      (*this)(m.pull);
    }
    void operator()(const PushPullResp& m) {
      (*this)(m.ack);
      (*this)(m.pull);
    }
  };
  std::visit(Visitor{out}, message);
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
  // 1..5 and 8..11; 6 and 7 are the retired delta-pull types.
  if (type < static_cast<std::uint16_t>(MsgType::kPullShardReq) ||
      type > static_cast<std::uint16_t>(MsgType::kPushPullResp) ||
      (type > static_cast<std::uint16_t>(MsgType::kAck) &&
       type < static_cast<std::uint16_t>(MsgType::kPullBatchReq))) {
    return WireStatus::kBadType;
  }
  out.type = static_cast<MsgType>(type);
  out.request_id = r.TakeU64();
  out.payload_bytes = r.TakeU32();
  if (out.payload_bytes > kMaxPayloadBytes) return WireStatus::kOversized;
  return WireStatus::kOk;
}

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

// Parses one full shard (EncodePullShardResp's layout).
WireStatus DecodePullShardResp(Reader& r, PullShardResp& m) {
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
  return r.ok() ? WireStatus::kOk : WireStatus::kTruncated;
}

// The smallest pull batch item: u8 kind, then a not-modified slice.
constexpr std::size_t kMinPullBatchItemBytes = 1 + 4 + 8 + 8;

// A PullBatchResp's count and items. `ignore_kind` is a planted bug for the
// harness: every item is read as a full shard whatever its kind byte says.
WireStatus DecodePullBatchResp(Reader& r, PullBatchResp& m,
                               bool ignore_kind) {
  const std::uint32_t count = r.TakeU32();
  if (!r.ok() || !r.CanTake(count, kMinPullBatchItemBytes)) {
    return WireStatus::kTruncated;
  }
  m.items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t kind = r.TakeU8();
    if (!r.ok()) return WireStatus::kTruncated;
    if (kind == 0 || ignore_kind) {
      PullShardResp full;
      const WireStatus status = DecodePullShardResp(r, full);
      if (status != WireStatus::kOk) return status;
      m.items.emplace_back(std::move(full));
      continue;
    }
    if (kind != 1) return WireStatus::kMalformed;
    PullShardNotModified unchanged;
    unchanged.shard = r.TakeU32();
    unchanged.shard_version = r.TakeU64();
    unchanged.global_version = r.TakeU64();
    if (!r.ok()) return WireStatus::kTruncated;
    m.items.emplace_back(unchanged);
  }
  return WireStatus::kOk;
}

// A CommitPushReq payload: the standalone message, and a fused push half.
WireStatus DecodeCommitPush(Reader& r, CommitPushReq& m) {
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

// An AckResp payload: the standalone message, and a fused answer's ack.
WireStatus DecodeAck(Reader& r, AckResp& m) {
  m.status = r.TakeU32();
  m.value = r.TakeU64();
  return r.ok() ? WireStatus::kOk : WireStatus::kTruncated;
}

// A PullBatchReq payload: the standalone message, and a fused pull half.
WireStatus DecodePullBatchReq(Reader& r, PullBatchReq& m) {
  const std::uint32_t count = r.TakeU32();
  if (!r.ok() || !r.CanTake(count, 4 + 8)) return WireStatus::kTruncated;
  m.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PullBatchEntry entry;
    entry.shard = r.TakeU32();
    entry.known_version = r.TakeU64();
    m.entries.push_back(entry);
  }
  return r.ok() ? WireStatus::kOk : WireStatus::kTruncated;
}

// Finishes a message whose fields decoded with `fields`: the trace tail,
// then the assignment.
template <typename T>
WireStatus Finish(WireStatus fields, Reader& r, TraceContext* trace, T& m,
                  WireMessage& out) {
  if (fields != WireStatus::kOk) return fields;
  const WireStatus tail = DecodeTraceTail(r, trace);
  if (tail != WireStatus::kOk) return tail;
  out = std::move(m);
  return WireStatus::kOk;
}

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
      return Finish(r.ok() ? WireStatus::kOk : WireStatus::kTruncated, r,
                    trace, m, out);
    }
    case MsgType::kPullShardResp: {
      PullShardResp m;
      return Finish(DecodePullShardResp(r, m), r, trace, m, out);
    }
    case MsgType::kPushShardReq: {
      PushShardReq m;
      return Finish(DecodePushShard(r, m), r, trace, m, out);
    }
    case MsgType::kCommitPushReq: {
      CommitPushReq m;
      return Finish(DecodeCommitPush(r, m), r, trace, m, out);
    }
    case MsgType::kAck: {
      AckResp m;
      return Finish(DecodeAck(r, m), r, trace, m, out);
    }
    case MsgType::kPullBatchReq: {
      PullBatchReq m;
      return Finish(DecodePullBatchReq(r, m), r, trace, m, out);
    }
    case MsgType::kPullBatchResp: {
      PullBatchResp m;
      return Finish(DecodePullBatchResp(r, m, /*ignore_kind=*/false), r,
                    trace, m, out);
    }
    case MsgType::kPushPullReq: {
      PushPullReq m;
      WireStatus fields = DecodeCommitPush(r, m.push);
      if (fields == WireStatus::kOk) fields = DecodePullBatchReq(r, m.pull);
      return Finish(fields, r, trace, m, out);
    }
    case MsgType::kPushPullResp: {
      PushPullResp m;
      WireStatus fields = DecodeAck(r, m.ack);
      if (fields == WireStatus::kOk) {
        fields = DecodePullBatchResp(r, m.pull, /*ignore_kind=*/false);
      }
      return Finish(fields, r, trace, m, out);
    }
  }
  return WireStatus::kBadType;
}

}  // namespace ref

// --- generated messages ------------------------------------------------------

std::uint64_t BaseSeed() { return PropertySeed(20261017); }

struct Case {
  WireMessage message;
  std::uint64_t request_id = 0;
  TraceContext trace;  // trace_id 0: no extension
  std::uint64_t flip_seed = 0;  // picks the flipped bytes and masks
};

struct Trial {
  std::vector<Case> cases;
};

std::uint64_t RandomU64(Rng& rng) {
  constexpr std::uint64_t kSpecial[] = {
      0, 1, 0xff, 0xffffffffull, std::numeric_limits<std::uint64_t>::max()};
  if (rng.Index(4) == 0) return kSpecial[rng.Index(std::size(kSpecial))];
  return rng.engine()();
}

std::uint32_t RandomU32(Rng& rng) {
  return static_cast<std::uint32_t>(RandomU64(rng));
}

// Raw f64 payload values: NaN (quiet and with a payload), -0 and the other
// bit patterns a byte-order or width slip would mangle.
double RandomRawValue(Rng& rng) {
  constexpr double kSpecial[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0xfff4000000000abcull}),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      0.1,
      1.0 / 3};
  if (rng.Index(4) == 0) return kSpecial[rng.Index(std::size(kSpecial))];
  return rng.Uniform(-10.0, 10.0);
}

// Coded values stay finite and inside float range; fp16 still sees -0,
// underflow and overflow.
double RandomCodedValue(Rng& rng) {
  constexpr double kSpecial[] = {0.0, -0.0, 65504.0, 1e-9, -7e4, 0.5};
  if (rng.Index(4) == 0) return kSpecial[rng.Index(std::size(kSpecial))];
  return rng.Uniform(-100.0, 100.0);
}

std::size_t RandomLength(Rng& rng) {
  if (rng.Index(6) == 0) return 0;
  if (rng.Index(10) == 0) return 1 + rng.Index(80);
  return 1 + rng.Index(12);
}

PushShardReq RandomSlice(Rng& rng) {
  PushShardReq m;
  m.shard = RandomU32(rng);
  m.epoch = RandomU64(rng);
  m.sparse = rng.Index(2) == 0;
  constexpr std::uint8_t kCodecs[] = {
      0, 0, static_cast<std::uint8_t>(CodecKind::kInt8),
      static_cast<std::uint8_t>(CodecKind::kFp16)};
  m.coded = kCodecs[rng.Index(std::size(kCodecs))];
  const std::size_t n = RandomLength(rng);
  std::vector<double>& values = m.sparse ? m.values : m.dense;
  for (std::size_t i = 0; i < n; ++i) {
    if (m.sparse) m.indices.push_back(RandomU64(rng));
    values.push_back(m.coded != 0 ? RandomCodedValue(rng)
                                  : RandomRawValue(rng));
  }
  if (!m.sparse) m.dense_offset = RandomU64(rng);
  return m;
}

PullShardResp RandomPullShardResp(Rng& rng) {
  PullShardResp m;
  m.shard = RandomU32(rng);
  m.offset = RandomU64(rng);
  m.shard_version = RandomU64(rng);
  m.global_version = RandomU64(rng);
  const std::size_t n = RandomLength(rng);
  for (std::size_t i = 0; i < n; ++i) m.params.push_back(RandomRawValue(rng));
  return m;
}

CommitPushReq RandomCommitPush(Rng& rng) {
  CommitPushReq m;
  m.client_id = RandomU64(rng);
  m.push_seq = RandomU64(rng);
  const std::size_t slices = rng.Index(5);
  for (std::size_t s = 0; s < slices; ++s) {
    m.slices.push_back(RandomSlice(rng));
  }
  return m;
}

AckResp RandomAck(Rng& rng) { return AckResp{RandomU32(rng), RandomU64(rng)}; }

PullBatchReq RandomPullBatchReq(Rng& rng) {
  PullBatchReq m;
  const std::size_t entries = rng.Index(6);
  for (std::size_t e = 0; e < entries; ++e) {
    m.entries.push_back(
        {RandomU32(rng), rng.Index(3) == 0 ? kPullAnyVersion : RandomU64(rng)});
  }
  return m;
}

// Full and not-modified items mixed; empty batches included.
PullBatchResp RandomPullBatchResp(Rng& rng) {
  PullBatchResp m;
  const std::size_t items = rng.Index(5);
  for (std::size_t i = 0; i < items; ++i) {
    if (rng.Index(2) == 0) {
      m.items.emplace_back(RandomPullShardResp(rng));
    } else {
      m.items.emplace_back(
          PullShardNotModified{RandomU32(rng), RandomU64(rng), RandomU64(rng)});
    }
  }
  return m;
}

WireMessage RandomMessage(Rng& rng) {
  switch (rng.Index(9)) {
    case 0:
      return PullShardReq{RandomU32(rng)};
    case 1:
      return RandomPullShardResp(rng);
    case 2:
      return RandomSlice(rng);
    case 3:
      return RandomCommitPush(rng);
    case 4:
      return RandomAck(rng);
    case 5:
      return RandomPullBatchReq(rng);
    case 6:
      return RandomPullBatchResp(rng);
    case 7: {
      PushPullReq m;
      m.push = RandomCommitPush(rng);
      m.pull = RandomPullBatchReq(rng);
      return m;
    }
    default: {
      PushPullResp m;
      m.ack = RandomAck(rng);
      m.pull = RandomPullBatchResp(rng);
      return m;
    }
  }
}

Trial GenerateTrial(std::uint64_t seed) {
  Rng rng(seed);
  Trial t;
  const std::size_t n = 1 + rng.Index(4);
  for (std::size_t i = 0; i < n; ++i) {
    Case c;
    c.message = RandomMessage(rng);
    c.request_id = RandomU64(rng);
    if (rng.Index(2) == 0) {
      c.trace.trace_id = 1 + rng.Index(1u << 30);
      c.trace.parent_span = RandomU64(rng);
    }
    c.flip_seed = rng.engine()();
    t.cases.push_back(std::move(c));
  }
  return t;
}

void DescribeF64s(std::ostream& out, const std::vector<double>& values) {
  out << '[';
  for (const double v : values) out << std::bit_cast<std::uint64_t>(v) << ' ';
  out << ']';
}

void DescribeSlice(std::ostream& out, const PushShardReq& m) {
  out << "{shard=" << m.shard << " epoch=" << m.epoch << " sparse=" << m.sparse
      << " coded=" << int{m.coded};
  if (m.sparse) {
    out << " indices=[";
    for (const std::uint64_t i : m.indices) out << i << ' ';
    out << "] values=";
    DescribeF64s(out, m.values);
  } else {
    out << " offset=" << m.dense_offset << " dense=";
    DescribeF64s(out, m.dense);
  }
  out << '}';
}

void DescribePullShardResp(std::ostream& out, const PullShardResp& m) {
  out << "PullShardResp{shard=" << m.shard << " offset=" << m.offset
      << " versions=" << m.shard_version << '/' << m.global_version
      << " params=";
  DescribeF64s(out, m.params);
  out << '}';
}

// Every field of a message in hex, doubles as bit patterns: two messages are
// the same exactly when their descriptions are.
std::string Describe(const WireMessage& message) {
  struct Visitor {
    std::ostream& out;
    void operator()(const PullShardReq& m) {
      out << "PullShardReq{shard=" << m.shard << '}';
    }
    void operator()(const PullShardResp& m) { DescribePullShardResp(out, m); }
    void operator()(const PushShardReq& m) {
      out << "PushShardReq";
      DescribeSlice(out, m);
    }
    void operator()(const CommitPushReq& m) {
      out << "CommitPushReq{client=" << m.client_id << " seq=" << m.push_seq
          << " slices=";
      for (const PushShardReq& s : m.slices) DescribeSlice(out, s);
      out << '}';
    }
    void operator()(const AckResp& m) {
      out << "AckResp{status=" << m.status << " value=" << m.value << '}';
    }
    void operator()(const PullBatchReq& m) {
      out << "PullBatchReq{entries=";
      for (const PullBatchEntry& entry : m.entries) {
        out << '(' << entry.shard << ' ' << entry.known_version << ')';
      }
      out << '}';
    }
    void operator()(const PullBatchResp& m) {
      out << "PullBatchResp{items=";
      for (const PullBatchItem& item : m.items) {
        if (const auto* full = std::get_if<PullShardResp>(&item)) {
          DescribePullShardResp(out, *full);
          continue;
        }
        const auto& unchanged = std::get<PullShardNotModified>(item);
        out << "NotModified{shard=" << unchanged.shard
            << " versions=" << unchanged.shard_version << '/'
            << unchanged.global_version << '}';
      }
      out << '}';
    }
    void operator()(const PushPullReq& m) {
      out << "PushPullReq{";
      (*this)(m.push);
      (*this)(m.pull);
      out << '}';
    }
    void operator()(const PushPullResp& m) {
      out << "PushPullResp{";
      (*this)(m.ack);
      (*this)(m.pull);
      out << '}';
    }
  };
  std::ostringstream out;
  out << std::hex;
  std::visit(Visitor{out}, message);
  return out.str();
}

std::string FormatTrial(const Trial& t) {
  std::ostringstream out;
  for (const Case& c : t.cases) {
    out << "\n  id=" << c.request_id << " trace=" << c.trace.trace_id << '/'
        << c.trace.parent_span << " flip_seed=" << c.flip_seed << "\n    "
        << Describe(c.message);
  }
  return out.str();
}

// --- subjects ----------------------------------------------------------------

enum class SubjectKind {
  kCodec,              // the real EncodeFrame / DecodePayload
  kSwappedPairs,       // planted: sparse pairs written value first
  kUncheckedBulkTake,  // planted: the pull-response f64 take skips CanTake
  kIgnoredItemKind,    // planted: pull batch items all decoded as full
};

// The kSwappedPairs encoder: the real encoder fed every raw sparse pair with
// its index and value bits exchanged, which is exactly the frame a pair
// writer that stores the value first would produce.
std::vector<std::uint8_t> EncodeSwappedPairs(const Case& c) {
  WireMessage message = c.message;
  const auto swap = [](PushShardReq& m) {
    if (!m.sparse || m.coded != 0) return;
    for (std::size_t i = 0; i < m.indices.size(); ++i) {
      const std::uint64_t index = m.indices[i];
      m.indices[i] = std::bit_cast<std::uint64_t>(m.values[i]);
      m.values[i] = std::bit_cast<double>(index);
    }
  };
  if (auto* push = std::get_if<PushShardReq>(&message)) swap(*push);
  CommitPushReq* batch = std::get_if<CommitPushReq>(&message);
  if (auto* fused = std::get_if<PushPullReq>(&message)) batch = &fused->push;
  if (batch != nullptr) {
    for (PushShardReq& slice : batch->slices) swap(slice);
  }
  return EncodeFrame(message, c.request_id, &c.trace);
}

// The kUncheckedBulkTake decoder for PullShardResp (other types go to the
// real decoder). Its params take trusts the count: when the array fits it
// behaves exactly like the real take, and when it does not it copies on past
// the payload's end. `backing` is the untruncated payload the view was cut
// from, so that over-read stays inside the test's own buffer (in wire.cc it
// would run off the heap block); the array then swallows the rest of the
// payload and the decode "succeeds".
WireStatus DecodeUncheckedPullResp(const FrameHeader& header,
                                   std::span<const std::uint8_t> payload,
                                   std::span<const std::uint8_t> backing,
                                   WireMessage& out, TraceContext* trace) {
  constexpr std::size_t kHead = 4 + 8 + 8 + 8 + 8;
  std::uint64_t count = 0;
  if (payload.size() >= kHead) std::memcpy(&count, payload.data() + 28, 8);
  if (payload.size() != header.payload_bytes || payload.size() < kHead ||
      count <= (payload.size() - kHead) / 8) {
    return DecodePayload(header, payload, out, trace);
  }
  PullShardResp m;
  std::memcpy(&m.shard, payload.data(), 4);
  std::memcpy(&m.offset, payload.data() + 4, 8);
  std::memcpy(&m.shard_version, payload.data() + 12, 8);
  std::memcpy(&m.global_version, payload.data() + 20, 8);
  m.params.resize(std::min<std::uint64_t>(count, (backing.size() - kHead) / 8));
  if (!m.params.empty()) {
    std::memcpy(m.params.data(), backing.data() + kHead,
                m.params.size() * sizeof(double));
  }
  if (trace != nullptr) *trace = TraceContext{};
  out = std::move(m);
  return WireStatus::kOk;
}

// The kIgnoredItemKind decoder for PullBatchResp (other types go to the real
// decoder): the byte-wise batch decoder with every item's kind byte ignored.
WireStatus DecodeIgnoringItemKind(const FrameHeader& header,
                                  std::span<const std::uint8_t> payload,
                                  WireMessage& out, TraceContext* trace) {
  if (payload.size() < header.payload_bytes) return WireStatus::kTruncated;
  if (payload.size() > header.payload_bytes) return WireStatus::kMalformed;
  ref::Reader r(payload);
  PullBatchResp m;
  const WireStatus items = ref::DecodePullBatchResp(r, m, /*ignore_kind=*/true);
  if (items != WireStatus::kOk) return items;
  const WireStatus tail = ref::DecodeTraceTail(r, trace);
  if (tail != WireStatus::kOk) return tail;
  out = std::move(m);
  return WireStatus::kOk;
}

// One decode outcome: the status and, on kOk, what was decoded.
struct Decoded {
  WireStatus status = WireStatus::kOk;
  std::string message;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool operator==(const Decoded&) const = default;
};

std::string Format(const Decoded& d) {
  std::ostringstream out;
  out << WireStatusName(d.status);
  if (d.status == WireStatus::kOk) {
    out << ' ' << d.message << " trace=" << d.trace_id << '/' << d.parent_span;
  }
  return out.str();
}

Decoded Outcome(WireStatus status, const WireMessage& message,
                const TraceContext& trace) {
  if (status != WireStatus::kOk) return {status, "", 0, 0};
  return {status, Describe(message), trace.trace_id, trace.parent_span};
}

// Decodes `payload` (cut from `backing`) under `header` with the subject and
// with the reference.
std::pair<Decoded, Decoded> DecodeBoth(SubjectKind kind,
                                       const FrameHeader& header,
                                       std::span<const std::uint8_t> payload,
                                       std::span<const std::uint8_t> backing) {
  WireMessage got;
  TraceContext got_trace{99, 99};  // stale values must be overwritten
  WireStatus got_status;
  if (kind == SubjectKind::kUncheckedBulkTake &&
      header.type == MsgType::kPullShardResp) {
    got_status =
        DecodeUncheckedPullResp(header, payload, backing, got, &got_trace);
  } else if (kind == SubjectKind::kIgnoredItemKind &&
             header.type == MsgType::kPullBatchResp) {
    got_status = DecodeIgnoringItemKind(header, payload, got, &got_trace);
  } else {
    got_status = DecodePayload(header, payload, got, &got_trace);
  }
  WireMessage want;
  TraceContext want_trace{99, 99};
  const WireStatus want_status =
      ref::DecodePayload(header, payload, want, &want_trace);
  return {Outcome(got_status, got, got_trace),
          Outcome(want_status, want, want_trace)};
}

// Whole-frame decode (header included) with the subject and the reference.
std::pair<Decoded, Decoded> DecodeFrameBoth(
    SubjectKind kind, std::span<const std::uint8_t> frame) {
  FrameHeader header;
  const WireStatus got = DecodeHeader(frame, header);
  FrameHeader want_header;
  const WireStatus want = ref::DecodeHeader(frame, want_header);
  if (got != WireStatus::kOk || want != WireStatus::kOk) {
    return {{got, "", 0, 0}, {want, "", 0, 0}};
  }
  if (header.request_id != want_header.request_id ||
      header.payload_bytes != want_header.payload_bytes ||
      header.type != want_header.type) {
    return {{got, "header fields differ", 0, 0}, {want, "", 0, 0}};
  }
  const std::span<const std::uint8_t> payload = frame.subspan(kHeaderBytes);
  return DecodeBoth(kind, header, payload, payload);
}

std::optional<std::string> Mismatch(const std::string& what,
                                    const std::pair<Decoded, Decoded>& d) {
  if (d.first == d.second) return std::nullopt;
  return what + ": decoded " + Format(d.first) + ", reference " +
         Format(d.second);
}

std::optional<std::string> CheckCase(const Case& c, SubjectKind kind) {
  const std::vector<std::uint8_t> frame =
      kind == SubjectKind::kSwappedPairs
          ? EncodeSwappedPairs(c)
          : EncodeFrame(c.message, c.request_id, &c.trace);
  const std::vector<std::uint8_t> want =
      ref::EncodeFrame(c.message, c.request_id, &c.trace);
  if (frame != want) {
    const auto diff = std::mismatch(frame.begin(), frame.end(), want.begin(),
                                    want.end());
    return "frame differs from the reference at byte " +
           std::to_string(diff.first - frame.begin()) + " (sizes " +
           std::to_string(frame.size()) + " vs " +
           std::to_string(want.size()) + ")";
  }
  if (EncodedPayloadBytes(c.message, &c.trace) != frame.size() - kHeaderBytes) {
    return "EncodedPayloadBytes " +
           std::to_string(EncodedPayloadBytes(c.message, &c.trace)) +
           " vs payload " + std::to_string(frame.size() - kHeaderBytes);
  }
  const std::span<const std::uint8_t> bytes(frame);
  if (auto bad = Mismatch("whole frame", DecodeFrameBoth(kind, bytes))) {
    return bad;
  }
  // Every prefix of the frame as it would arrive, then every payload prefix
  // under a header that agrees with its length, so each field boundary is
  // hit by a cut.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    if (auto bad = Mismatch("frame prefix " + std::to_string(cut),
                            DecodeFrameBoth(kind, bytes.first(cut)))) {
      return bad;
    }
  }
  FrameHeader header;
  if (DecodeHeader(bytes, header) != WireStatus::kOk) {
    return "header of an encoded frame does not decode";
  }
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderBytes);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    FrameHeader cut_header = header;
    cut_header.payload_bytes = static_cast<std::uint32_t>(cut);
    if (auto bad = Mismatch(
            "payload cut at " + std::to_string(cut),
            DecodeBoth(kind, cut_header, payload.first(cut), payload))) {
      return bad;
    }
  }
  Rng rng(c.flip_seed);
  for (int flip = 0; flip < 3; ++flip) {
    std::vector<std::uint8_t> flipped = frame;
    const std::size_t pos = rng.Index(flipped.size());
    flipped[pos] ^= static_cast<std::uint8_t>(1 + rng.Index(255));
    if (auto bad = Mismatch("byte " + std::to_string(pos) + " flipped",
                            DecodeFrameBoth(kind, flipped))) {
      return bad;
    }
  }
  return std::nullopt;
}

std::optional<std::string> RunTrial(const Trial& trial, SubjectKind kind) {
  for (std::size_t i = 0; i < trial.cases.size(); ++i) {
    if (auto failure = CheckCase(trial.cases[i], kind)) {
      return "message " + std::to_string(i) + ": " + *failure;
    }
  }
  return std::nullopt;
}

// --- shrinking ---------------------------------------------------------------

// Shrinks one slice's entries; `fails` tests a candidate slice.
template <typename Fails>
void ShrinkSlice(PushShardReq& slice, const Fails& fails) {
  if (!slice.sparse) {
    ShrinkList(slice.dense, 0, [&](const std::vector<double>& dense) {
      PushShardReq candidate = slice;
      candidate.dense = dense;
      return fails(candidate);
    });
    return;
  }
  std::vector<std::size_t> entries(slice.indices.size());
  for (std::size_t i = 0; i < entries.size(); ++i) entries[i] = i;
  const auto project = [&](const std::vector<std::size_t>& kept) {
    PushShardReq out = slice;
    out.indices.clear();
    out.values.clear();
    for (const std::size_t i : kept) {
      out.indices.push_back(slice.indices[i]);
      out.values.push_back(slice.values[i]);
    }
    return out;
  };
  ShrinkList(entries, 0, [&](const std::vector<std::size_t>& kept) {
    return fails(project(kept));
  });
  slice = project(entries);
}

// Shrinks a push batch's slice list, then each slice's entries; `fails`
// tests a candidate batch.
template <typename Fails>
void ShrinkCommitPush(CommitPushReq& batch, const Fails& fails) {
  ShrinkList(batch.slices, 0, [&](const std::vector<PushShardReq>& slices) {
    CommitPushReq candidate = batch;
    candidate.slices = slices;
    return fails(candidate);
  });
  for (std::size_t s = 0; s < batch.slices.size(); ++s) {
    ShrinkSlice(batch.slices[s], [&](const PushShardReq& candidate) {
      CommitPushReq shrunk = batch;
      shrunk.slices[s] = candidate;
      return fails(shrunk);
    });
  }
}

// Shrinks a pull batch answer's item list, then each full item's params;
// `fails` tests a candidate answer.
template <typename Fails>
void ShrinkPullBatchResp(PullBatchResp& pulls, const Fails& fails) {
  ShrinkList(pulls.items, 0, [&](const std::vector<PullBatchItem>& items) {
    return fails(PullBatchResp{items});
  });
  for (std::size_t i = 0; i < pulls.items.size(); ++i) {
    auto* full = std::get_if<PullShardResp>(&pulls.items[i]);
    if (full == nullptr) continue;
    ShrinkList(full->params, 0, [&](const std::vector<double>& params) {
      PullBatchResp shrunk = pulls;
      std::get<PullShardResp>(shrunk.items[i]).params = params;
      return fails(shrunk);
    });
  }
}

Trial ShrinkTrial(Trial trial, SubjectKind kind) {
  const auto fails = [&](const Trial& candidate) {
    return RunTrial(candidate, kind).has_value();
  };
  ShrinkList(trial.cases, 1, [&](const std::vector<Case>& cases) {
    Trial candidate = trial;
    candidate.cases = cases;
    return fails(candidate);
  });
  for (std::size_t i = 0; i < trial.cases.size(); ++i) {
    const auto fails_with = [&](WireMessage message) {
      Trial candidate = trial;
      candidate.cases[i].message = std::move(message);
      return fails(candidate);
    };
    WireMessage& message = trial.cases[i].message;
    if (auto* resp = std::get_if<PullShardResp>(&message)) {
      ShrinkList(resp->params, 0, [&](const std::vector<double>& params) {
        PullShardResp candidate = *resp;
        candidate.params = params;
        return fails_with(candidate);
      });
    } else if (auto* push = std::get_if<PushShardReq>(&message)) {
      ShrinkSlice(*push, [&](const PushShardReq& candidate) {
        return fails_with(candidate);
      });
    } else if (auto* batch = std::get_if<CommitPushReq>(&message)) {
      ShrinkCommitPush(*batch, fails_with);
    } else if (auto* pulls = std::get_if<PullBatchResp>(&message)) {
      ShrinkPullBatchResp(*pulls, fails_with);
    } else if (auto* fused = std::get_if<PushPullReq>(&message)) {
      ShrinkCommitPush(fused->push, [&](const CommitPushReq& candidate) {
        return fails_with(PushPullReq{candidate, fused->pull});
      });
      ShrinkList(fused->pull.entries, 0,
                 [&](const std::vector<PullBatchEntry>& entries) {
                   return fails_with(PushPullReq{fused->push, {entries}});
                 });
    } else if (auto* answer = std::get_if<PushPullResp>(&message)) {
      ShrinkPullBatchResp(answer->pull, [&](const PullBatchResp& candidate) {
        return fails_with(PushPullResp{answer->ack, candidate});
      });
    }
  }
  return trial;
}

// Array entries left in a trial: the size of a shrunk witness.
std::size_t Entries(const Trial& trial) {
  const auto slice_entries = [](const PushShardReq& m) {
    return m.sparse ? m.values.size() : m.dense.size();
  };
  const auto push_entries = [&](const CommitPushReq& batch) {
    std::size_t entries = batch.slices.size();
    for (const PushShardReq& s : batch.slices) entries += slice_entries(s);
    return entries;
  };
  const auto pull_entries = [](const PullBatchResp& pulls) {
    std::size_t entries = pulls.items.size();
    for (const PullBatchItem& item : pulls.items) {
      if (const auto* full = std::get_if<PullShardResp>(&item)) {
        entries += full->params.size();
      }
    }
    return entries;
  };
  std::size_t entries = 0;
  for (const Case& c : trial.cases) {
    if (const auto* resp = std::get_if<PullShardResp>(&c.message)) {
      entries += resp->params.size();
    } else if (const auto* push = std::get_if<PushShardReq>(&c.message)) {
      entries += slice_entries(*push);
    } else if (const auto* batch = std::get_if<CommitPushReq>(&c.message)) {
      entries += push_entries(*batch);
    } else if (const auto* pulls = std::get_if<PullBatchResp>(&c.message)) {
      entries += pull_entries(*pulls);
    } else if (const auto* fused = std::get_if<PushPullReq>(&c.message)) {
      entries += push_entries(fused->push) + fused->pull.entries.size();
    } else if (const auto* answer = std::get_if<PushPullResp>(&c.message)) {
      entries += pull_entries(answer->pull);
    }
  }
  return entries;
}

// --- tests -------------------------------------------------------------------

TEST(WireCodecPropertyTest, BulkCodecMatchesByteWiseReference) {
  const std::uint64_t base = BaseSeed();
  for (std::uint64_t trial_idx = 0; trial_idx < 300; ++trial_idx) {
    const Trial trial = GenerateTrial(base + trial_idx);
    const auto failure = RunTrial(trial, SubjectKind::kCodec);
    if (failure.has_value()) {
      const Trial minimal = ShrinkTrial(trial, SubjectKind::kCodec);
      FAIL() << *failure << "\nseed " << base + trial_idx
             << "\nminimal counterexample:" << FormatTrial(minimal);
    }
  }
}

// The harness has teeth: each planted bug is caught within a few trials and
// shrinks to one message holding one array entry.
TEST(WireCodecPropertyTest, PlantedBugsAreCaughtAndShrunk) {
  const std::uint64_t base = BaseSeed();
  for (const SubjectKind kind :
       {SubjectKind::kSwappedPairs, SubjectKind::kUncheckedBulkTake,
        SubjectKind::kIgnoredItemKind}) {
    bool caught = false;
    for (std::uint64_t trial_idx = 0; trial_idx < 200 && !caught;
         ++trial_idx) {
      const Trial trial = GenerateTrial(base + trial_idx);
      if (!RunTrial(trial, kind).has_value()) continue;
      caught = true;
      const Trial minimal = ShrinkTrial(trial, kind);
      EXPECT_TRUE(RunTrial(minimal, kind).has_value());
      EXPECT_EQ(minimal.cases.size(), 1u)
          << "shrink left a large witness:" << FormatTrial(minimal);
      // A swapped pair needs one entry (plus its slice, in a batch); the
      // unchecked take needs one double to cut into; an ignored kind needs
      // one not-modified item.
      EXPECT_LE(Entries(minimal), 2u)
          << "shrink left a large witness:" << FormatTrial(minimal);
    }
    EXPECT_TRUE(caught) << "planted bug survived 200 trials";
  }
}

// Full-size arrays, like a pull response and a push batch on the MF
// workload (standalone and fused), through the bulk memcpy and pair loops:
// equal to the reference
// and round-tripping bit for bit.
TEST(WireCodecPropertyTest, LargeFramesMatchReference) {
  Rng rng(BaseSeed());
  PullShardResp resp;
  resp.shard = 3;
  for (int i = 0; i < 2000; ++i) resp.params.push_back(RandomRawValue(rng));
  CommitPushReq batch{7, 8, {}};
  for (int s = 0; s < 4; ++s) {
    PushShardReq slice;
    slice.shard = static_cast<std::uint32_t>(s);
    slice.sparse = true;
    for (int i = 0; i < 635; ++i) {
      slice.indices.push_back(rng.engine()());
      slice.values.push_back(RandomRawValue(rng));
    }
    batch.slices.push_back(std::move(slice));
  }
  const PushPullReq fused{batch, PullBatchReq{{{0, kPullAnyVersion}}}};
  const PushPullResp answer{AckResp{kAckOk, 9}, PullBatchResp{{resp}}};
  const TraceContext trace{5, 6};
  for (const WireMessage& message :
       {WireMessage(resp), WireMessage(batch), WireMessage(fused),
        WireMessage(answer)}) {
    const std::vector<std::uint8_t> frame = EncodeFrame(message, 1, &trace);
    EXPECT_EQ(frame, ref::EncodeFrame(message, 1, &trace));
    EXPECT_EQ(EncodedPayloadBytes(message, &trace),
              frame.size() - kHeaderBytes);
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_EQ(DecodeFrame(frame, id, out), WireStatus::kOk);
    EXPECT_EQ(Describe(out), Describe(message));
  }
}

}  // namespace
}  // namespace specsync::net
