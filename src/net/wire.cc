#include "net/wire.h"

#include <bit>
#include <cstring>
#include <iterator>

#include "common/check.h"

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

  // indices.size() / width rows of (u64 first index, width x f64): kind 1's
  // pairs at width 1, kind 3's rows above it. values.size() ==
  // indices.size(), a multiple of width.
  void PutRows(std::span<const std::uint64_t> indices,
               std::span<const double> values, std::size_t width) {
    std::uint8_t* out = pos_;
    const std::size_t row_bytes = 8 * width;
    for (std::size_t i = 0; i < indices.size(); i += width) {
      std::memcpy(out, &indices[i], 8);
      std::memcpy(out + 8, &values[i], row_bytes);
      out += 8 + row_bytes;
    }
    pos_ = out;
  }

  // Skips `n` bytes, to be filled in later; returns where they start.
  std::uint8_t* Reserve(std::size_t n) {
    std::uint8_t* at = pos_;
    pos_ += n;
    return at;
  }

  std::uint8_t* pos() const { return pos_; }

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

  // `rows` rows of (u64 first index, width x f64), each expanded into
  // `width` consecutive indices and their values. Rejects, before sizing
  // either array, a row count the payload cannot hold (kTruncated; the
  // overflow-safe bound also covers rows x width) and a first index whose
  // row would pass UINT64_MAX (kMalformed).
  WireStatus TakeRows(std::uint64_t rows, std::size_t width,
                      std::vector<std::uint64_t>& indices,
                      std::vector<double>& values) {
    const std::size_t row_bytes = 8 + 8 * width;
    const std::span<const std::uint8_t> in = TakeBytes(rows, row_bytes);
    if (!ok_) return WireStatus::kTruncated;
    const std::uint64_t last_first = ~std::uint64_t{0} - (width - 1);
    for (std::size_t r = 0; width > 1 && r < rows; ++r) {
      std::uint64_t first;
      std::memcpy(&first, in.data() + r * row_bytes, 8);
      if (first > last_first) return WireStatus::kMalformed;
    }
    indices.resize(rows * width);
    values.resize(rows * width);
    const std::uint8_t* row = in.data();
    for (std::size_t i = 0; i < indices.size(); i += width, row += row_bytes) {
      std::uint64_t first;
      std::memcpy(&first, row, 8);
      for (std::size_t k = 0; k < width; ++k) indices[i + k] = first + k;
      std::memcpy(&values[i], row + 8, 8 * width);
    }
    return WireStatus::kOk;
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
// u32 shard, u64 reserved.
constexpr std::size_t kPullBatchEntryBytes = 4 + 8;
// The value a pull-batch entry's reserved slot always holds.
constexpr std::uint64_t kPullEntryReserved = ~std::uint64_t{0};

std::size_t PullShardRespBytes(std::size_t params) {
  return kPullShardRespHeadBytes + 8 * params;
}

// A PullBatchResp's u32 count, and one full item: its kind byte and slice.
constexpr std::size_t kPullBatchRespHeadBytes = 4;
std::size_t PullBatchFullItemBytes(std::size_t params) {
  return 1 + PullShardRespBytes(params);
}

// The sparse kinds: width-1 entry pairs, and rows of block_width > 1.
constexpr std::uint8_t kSparseKind = 1;
constexpr std::uint8_t kRowsKind = 3;

// EncodePushShard's output size.
std::size_t PushShardBytes(const PushShardReq& m) {
  // u32 shard, u64 epoch, u8 kind.
  constexpr std::size_t kHead = 4 + 8 + 1;
  if (!m.sparse) return kHead + 16 + 8 * m.dense.size();
  // One index per value, and whole rows: the encoder reads values[i] for
  // every index and one index per row.
  SPECSYNC_CHECK_EQ(m.indices.size(), m.values.size());
  SPECSYNC_CHECK_GE(m.block_width, 1u);
  SPECSYNC_CHECK_EQ(m.indices.size() % m.block_width, 0u);
  const std::size_t width = m.block_width;
  const std::size_t rows = m.indices.size() / width;
  // Kind 3 adds its u32 width; both kinds then carry a u64 row count.
  return kHead + (width > 1 ? 4 : 0) + 8 + rows * (8 + 8 * width);
}

// One slice's payload: the whole of a standalone PushShardReq frame's
// payload, and one element of a CommitPushReq batch.
void EncodePushShard(const PushShardReq& m, Writer& w) {
  w.PutU32(m.shard);
  w.PutU64(m.epoch);
  if (!m.sparse) {
    w.PutU8(0);
    w.PutU64(m.dense_offset);
    w.PutU64(m.dense.size());
    w.PutArray<double>(m.dense);
    return;
  }
  const std::size_t width = m.block_width;
  if (width == 1) {
    w.PutU8(kSparseKind);
  } else {
    w.PutU8(kRowsKind);
    w.PutU32(m.block_width);
  }
  w.PutU64(m.indices.size() / width);
  w.PutRows(m.indices, m.values, width);
}

// The one pull-item layout: a standalone PullShardResp payload, and a
// PullBatchResp item behind its kind byte. Writes the head with the version
// slots left open (the versions are read during and after the shard's copy)
// and returns them.
std::uint8_t* PutPullItemHead(Writer& w, std::uint32_t shard,
                              std::uint64_t offset, std::uint64_t count) {
  w.PutU32(shard);
  w.PutU64(offset);
  std::uint8_t* versions = w.Reserve(16);
  w.PutU64(count);
  return versions;
}
void PutPullItemVersions(std::uint8_t* versions, std::uint64_t shard_version,
                         std::uint64_t global_version) {
  std::memcpy(versions, &shard_version, 8);
  std::memcpy(versions + 8, &global_version, 8);
}

void EncodePullShardResp(const PullShardResp& m, Writer& w) {
  std::uint8_t* versions =
      PutPullItemHead(w, m.shard, m.offset, m.params.size());
  w.PutArray<double>(m.params);
  PutPullItemVersions(versions, m.shard_version, m.global_version);
}

// Refuses a frame every peer would reject.
void CheckPayloadFits(MsgType type, std::size_t payload) {
  SPECSYNC_CHECK_LE(payload, kMaxPayloadBytes)
      << "refusing to encode a " << MsgTypeName(type) << " frame with "
      << payload << " payload bytes: the wire caps a payload at "
      << kMaxPayloadBytes << " bytes";
}

void PutHeader(Writer& w, MsgType type, std::uint64_t request_id,
               std::size_t payload) {
  w.PutU32(kWireMagic);
  w.PutU16(kWireVersion);
  w.PutU16(static_cast<std::uint16_t>(type));
  w.PutU64(request_id);
  w.PutU32(static_cast<std::uint32_t>(payload));
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
    w.PutU64(kPullEntryReserved);
  }
}
void EncodeBody(const PullBatchResp& m, Writer& w) {
  w.PutU32(static_cast<std::uint32_t>(m.items.size()));
  for (const PullShardResp& item : m.items) {
    w.PutU8(0);  // kind
    EncodePullShardResp(item, w);
  }
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
  for (const PullShardResp& item : m.items) {
    bytes += PullBatchFullItemBytes(item.params.size());
  }
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

std::size_t PullAnswerPayloadBytes(std::size_t items, std::size_t params,
                                   bool fused) {
  return (fused ? BodyBytes(AckResp{}) : 0) + kPullBatchRespHeadBytes +
         items * PullBatchFullItemBytes(0) + 8 * params;
}

void EncodeFrame(const WireMessage& message, std::uint64_t request_id,
                 const TraceContext* trace, std::vector<std::uint8_t>& frame) {
  const MsgType type = TypeOf(message);
  const std::size_t payload = EncodedPayloadBytes(message, trace);
  CheckPayloadFits(type, payload);
  frame.resize(kHeaderBytes + payload);
  Writer w(frame.data());
  PutHeader(w, type, request_id, payload);
  std::visit([&w](const auto& m) { EncodeBody(m, w); }, message);
  if (trace != nullptr && trace->valid()) {
    w.PutU32(kTraceExtMagic);
    w.PutU16(kTraceExtBytes);
    w.PutU64(trace->trace_id);
    w.PutU64(trace->parent_span);
  }
}

std::vector<std::uint8_t> EncodeFrame(const WireMessage& message,
                                      std::uint64_t request_id,
                                      const TraceContext* trace) {
  std::vector<std::uint8_t> frame;
  EncodeFrame(message, request_id, trace, frame);
  return frame;
}

PullAnswerWriter::PullAnswerWriter(std::vector<std::uint8_t>& frame,
                                   std::uint64_t request_id,
                                   std::size_t items, std::size_t params,
                                   const AckResp* ack) {
  const bool fused = ack != nullptr;
  const MsgType type = fused ? MsgType::kPushPullResp : MsgType::kPullBatchResp;
  const std::size_t payload = PullAnswerPayloadBytes(items, params, fused);
  CheckPayloadFits(type, payload);
  frame.resize(kHeaderBytes + payload);
  Writer w(frame.data());
  PutHeader(w, type, request_id, payload);
  if (fused) EncodeBody(*ack, w);
  w.PutU32(static_cast<std::uint32_t>(items));
  pos_ = w.pos();
  end_ = frame.data() + frame.size();
}

std::span<std::byte> PullAnswerWriter::BeginItem(std::uint32_t shard,
                                                 std::uint64_t offset,
                                                 std::size_t count) {
  SPECSYNC_CHECK_LE(PullBatchFullItemBytes(count),
                    static_cast<std::size_t>(end_ - pos_))
      << "item past the answer the writer was sized for";
  Writer w(pos_);
  w.PutU8(0);  // kind
  versions_ = PutPullItemHead(w, shard, offset, count);
  auto* params = reinterpret_cast<std::byte*>(w.Reserve(8 * count));
  pos_ = w.pos();
  return {params, 8 * count};
}

void PullAnswerWriter::EndItem(std::uint64_t shard_version,
                               std::uint64_t global_version) {
  SPECSYNC_CHECK(versions_ != nullptr);
  PutPullItemVersions(versions_, shard_version, global_version);
  versions_ = nullptr;
}

void PullItemView::CopyTo(std::span<double> dest) const {
  SPECSYNC_CHECK_EQ(dest.size(), count());
  if (!params.empty()) std::memcpy(dest.data(), params.data(), params.size());
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

// Parses one slice (EncodePushShard's layout) from the reader's position,
// setting every field, so a reused slice keeps nothing of its last value.
WireStatus DecodePushShard(Reader& r, PushShardReq& m) {
  m.shard = r.TakeU32();
  m.epoch = r.TakeU64();
  const std::uint8_t kind = r.TakeU8();
  if (!r.ok()) return WireStatus::kTruncated;
  if (kind != 0 && kind != kSparseKind && kind != kRowsKind) {
    return WireStatus::kMalformed;
  }
  m.sparse = kind != 0;
  m.block_width = 1;
  if (!m.sparse) {
    m.indices.clear();
    m.values.clear();
    m.dense_offset = r.TakeU64();
    const std::uint64_t count = r.TakeU64();
    return r.TakeArray(count, m.dense) ? WireStatus::kOk
                                       : WireStatus::kTruncated;
  }
  m.dense_offset = 0;
  m.dense.clear();
  if (kind == kRowsKind) {
    m.block_width = r.TakeU32();
    if (!r.ok()) return WireStatus::kTruncated;
    if (m.block_width < 2) return WireStatus::kMalformed;
  }
  const std::uint64_t rows = r.TakeU64();
  if (!r.ok()) return WireStatus::kTruncated;
  return r.TakeRows(rows, m.block_width, m.indices, m.values);
}

// The smallest slice: u32 shard, u64 epoch, u8 kind, u64 count/nnz. Bounds a
// batch's claimed slice count before anything is reserved for it.
constexpr std::size_t kMinPushShardBytes = 4 + 8 + 1 + 8;

// Reads one item (PutPullItemHead's layout, then its doubles) in place;
// false = truncated.
bool ReadPullItem(Reader& r, PullItemView& item) {
  item.shard = r.TakeU32();
  item.offset = r.TakeU64();
  item.shard_version = r.TakeU64();
  item.global_version = r.TakeU64();
  const std::uint64_t count = r.TakeU64();
  item.params = r.TakeBytes(count, 8);
  return r.ok();
}

// The struct form of one item, copied out of the frame.
void ToStruct(const PullItemView& item, PullShardResp& m) {
  m.shard = item.shard;
  m.offset = item.offset;
  m.shard_version = item.shard_version;
  m.global_version = item.global_version;
  m.params.resize(item.count());
  item.CopyTo(m.params);
}

// The smallest item: a kind byte and an empty shard.
constexpr std::size_t kMinPullBatchItemBytes = 1 + kPullShardRespHeadBytes;

// A PullBatchResp body read in place: the count, then each item's kind
// byte, which must be 0, and its shard.
WireStatus ReadPullBatch(Reader& r, std::vector<PullItemView>& items) {
  const std::uint32_t count = r.TakeU32();
  if (!r.ok() || !r.CanTake(count, kMinPullBatchItemBytes)) {
    return WireStatus::kTruncated;
  }
  items.resize(count);
  for (PullItemView& item : items) {
    const std::uint8_t kind = r.TakeU8();
    if (!r.ok()) return WireStatus::kTruncated;
    if (kind != 0) return WireStatus::kMalformed;
    if (!ReadPullItem(r, item)) return WireStatus::kTruncated;
  }
  return WireStatus::kOk;
}

// One overload per message, EncodeBody's inverse: the payload fields from
// the reader's position, trace extension excluded.
WireStatus DecodeBody(Reader& r, PullShardReq& m) {
  m.shard = r.TakeU32();
  return r.ok() ? WireStatus::kOk : WireStatus::kTruncated;
}
WireStatus DecodeBody(Reader& r, PullShardResp& m) {
  PullItemView item;
  if (!ReadPullItem(r, item)) return WireStatus::kTruncated;
  ToStruct(item, m);
  return WireStatus::kOk;
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
    if (r.TakeU64() != kPullEntryReserved) return WireStatus::kMalformed;
  }
  return WireStatus::kOk;
}
WireStatus DecodeBody(Reader& r, PullBatchResp& m) {
  std::vector<PullItemView> items;
  const WireStatus status = ReadPullBatch(r, items);
  if (status != WireStatus::kOk) return status;
  m.items.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) ToStruct(items[i], m.items[i]);
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

// A whole payload: the body, then the optional trace extension, decoded in
// place when `out` already holds a T.
template <typename T>
WireStatus DecodeMessage(Reader& r, WireMessage& out, TraceContext* trace) {
  T* m = std::get_if<T>(&out);
  if (m == nullptr) m = &out.emplace<T>();
  const WireStatus status = DecodeBody(r, *m);
  return status == WireStatus::kOk ? DecodeTraceTail(r, trace) : status;
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

WireStatus DecodeAnswer(const FrameHeader& header,
                        std::span<const std::uint8_t> payload, Answer& out) {
  out.type = header.type;
  out.ack = AckResp{};
  out.items.clear();
  if (payload.size() < header.payload_bytes) return WireStatus::kTruncated;
  if (payload.size() > header.payload_bytes) return WireStatus::kMalformed;
  Reader r(payload);
  WireStatus status = WireStatus::kOk;
  switch (header.type) {
    case MsgType::kAck:
      status = DecodeBody(r, out.ack);
      break;
    case MsgType::kPullBatchResp:
      status = ReadPullBatch(r, out.items);
      break;
    case MsgType::kPushPullResp:
      status = DecodeBody(r, out.ack);
      if (status == WireStatus::kOk) status = ReadPullBatch(r, out.items);
      break;
    default: {
      WireMessage message;
      return DecodePayload(header, payload, message);
    }
  }
  return status == WireStatus::kOk ? DecodeTraceTail(r, nullptr) : status;
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
