// Wire-format tests: every message round-trips bit-exactly, and every class
// of malformed frame is rejected with the right status (the transport must
// never guess at corrupt bytes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "net/wire.h"
#include "ps/compression.h"

namespace specsync::net {
namespace {

// Encode → decode, checking the request id echoes through, and hand the
// typed message back to the caller for field-level comparison.
template <typename T>
T RoundTrip(const T& message, std::uint64_t request_id = 42) {
  const std::vector<std::uint8_t> frame = EncodeFrame(message, request_id);
  std::uint64_t decoded_id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, decoded_id, out), WireStatus::kOk);
  EXPECT_EQ(decoded_id, request_id);
  EXPECT_TRUE(std::holds_alternative<T>(out));
  return std::get<T>(out);
}

// Overwrites `bytes` little-endian at `pos` (frame corruption helper).
void PutU16(std::vector<std::uint8_t>& frame, std::size_t pos,
            std::uint16_t v) {
  frame[pos] = static_cast<std::uint8_t>(v & 0xff);
  frame[pos + 1] = static_cast<std::uint8_t>(v >> 8);
}
void PutU32(std::vector<std::uint8_t>& frame, std::size_t pos,
            std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    frame[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(WireTest, PullShardReqRoundTrip) {
  const PullShardReq decoded = RoundTrip(PullShardReq{7});
  EXPECT_EQ(decoded.shard, 7u);
}

TEST(WireTest, PullShardRespRoundTrip) {
  PullShardResp resp;
  resp.shard = 2;
  resp.offset = 100;
  resp.shard_version = 5;
  resp.global_version = 17;
  resp.params = {1.5, -2.25, 0.0, std::numeric_limits<double>::min(),
                 std::numeric_limits<double>::max()};
  const PullShardResp decoded = RoundTrip(resp, 0xdeadbeefcafeull);
  EXPECT_EQ(decoded.shard, 2u);
  EXPECT_EQ(decoded.offset, 100u);
  EXPECT_EQ(decoded.shard_version, 5u);
  EXPECT_EQ(decoded.global_version, 17u);
  EXPECT_EQ(decoded.params, resp.params);
}

TEST(WireTest, EmptyParamsRoundTrip) {
  PullShardResp resp;  // zero-length shard: params empty is a valid reply
  const PullShardResp decoded = RoundTrip(resp);
  EXPECT_TRUE(decoded.params.empty());
}

TEST(WireTest, DensePushRoundTrip) {
  PushShardReq req;
  req.shard = 1;
  req.epoch = 9;
  req.sparse = false;
  req.dense_offset = 64;
  req.dense = {0.125, -7.5, 1e300};
  const PushShardReq decoded = RoundTrip(req);
  EXPECT_EQ(decoded.shard, 1u);
  EXPECT_EQ(decoded.epoch, 9u);
  EXPECT_FALSE(decoded.sparse);
  EXPECT_EQ(decoded.dense_offset, 64u);
  EXPECT_EQ(decoded.dense, req.dense);
  EXPECT_TRUE(decoded.indices.empty());
}

TEST(WireTest, SparsePushSpanningShardBoundaryRoundTrip) {
  // Indices 4 and 5 straddle the [0,5)/[5,10) boundary of a dim-10 2-shard
  // layout; on the wire they are just global indices, shipped verbatim.
  PushShardReq req;
  req.shard = 0;
  req.epoch = 3;
  req.sparse = true;
  req.indices = {4, 5, 9};
  req.values = {0.5, -0.5, 2.0};
  const PushShardReq decoded = RoundTrip(req);
  EXPECT_TRUE(decoded.sparse);
  EXPECT_EQ(decoded.indices, req.indices);
  EXPECT_EQ(decoded.values, req.values);
}

TEST(WireTest, EmptySparsePushRoundTrip) {
  // The empty-gradient push still crosses the wire as one message.
  PushShardReq req;
  req.sparse = true;
  const PushShardReq decoded = RoundTrip(req);
  EXPECT_TRUE(decoded.sparse);
  EXPECT_TRUE(decoded.indices.empty());
  EXPECT_TRUE(decoded.values.empty());
}

TEST(WireTest, CommitAndAckRoundTrip) {
  CommitPushReq batch;
  batch.client_id = 0xabcdef0123456789ull;
  batch.push_seq = 17;
  PushShardReq dense;
  dense.shard = 1;
  dense.epoch = 4;
  dense.dense_offset = 8;
  dense.dense = {0.5, -0.25};
  PushShardReq sparse;
  sparse.shard = 3;
  sparse.epoch = 4;
  sparse.sparse = true;
  sparse.indices = {30, 31};
  sparse.values = {1.0, -2.0};
  batch.slices = {dense, sparse};
  const CommitPushReq commit = RoundTrip(batch);
  EXPECT_EQ(commit.client_id, batch.client_id);
  EXPECT_EQ(commit.push_seq, 17u);
  ASSERT_EQ(commit.slices.size(), 2u);
  EXPECT_EQ(commit.slices[0].shard, 1u);
  EXPECT_EQ(commit.slices[0].dense, dense.dense);
  EXPECT_EQ(commit.slices[0].dense_offset, 8u);
  EXPECT_TRUE(commit.slices[1].sparse);
  EXPECT_EQ(commit.slices[1].indices, sparse.indices);
  EXPECT_EQ(commit.slices[1].values, sparse.values);
  EXPECT_TRUE(RoundTrip(CommitPushReq{}).slices.empty());

  const AckResp decoded = RoundTrip(AckResp{kAckBadShard, 123});
  EXPECT_EQ(decoded.status, kAckBadShard);
  EXPECT_EQ(decoded.value, 123u);
}

TEST(WireTest, NegativeZeroAndNaNBitPatternsSurvive) {
  PullShardResp resp;
  resp.params = {-0.0, std::numeric_limits<double>::quiet_NaN()};
  const PullShardResp decoded = RoundTrip(resp);
  EXPECT_TRUE(std::signbit(decoded.params[0]));
  EXPECT_TRUE(std::isnan(decoded.params[1]));
}

TEST(WireTest, ShortHeaderRejected) {
  const auto frame = EncodeFrame(PullShardReq{0}, 1);
  FrameHeader header;
  EXPECT_EQ(DecodeHeader(std::span(frame).first(kHeaderBytes - 1), header),
            WireStatus::kShortHeader);
  EXPECT_EQ(DecodeHeader({}, header), WireStatus::kShortHeader);
}

TEST(WireTest, BadMagicRejected) {
  auto frame = EncodeFrame(PullShardReq{0}, 1);
  PutU32(frame, 0, 0x12345678u);
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kBadMagic);
}

TEST(WireTest, BadVersionRejected) {
  auto frame = EncodeFrame(PullShardReq{0}, 1);
  PutU16(frame, 4, kWireVersion + 1);
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kBadVersion);
}

TEST(WireTest, V1FrameRejectedByV2Parser) {
  // The current protocol is v2 (pipelining contract); a v1 peer must be
  // refused outright — mixed-version pipelining would be undebuggable.
  static_assert(kWireVersion == 2);
  auto frame = EncodeFrame(PullShardReq{0}, 1);
  PutU16(frame, 4, 1);
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kBadVersion);
}

TEST(WireTest, BadTypeRejected) {
  auto frame = EncodeFrame(PullShardReq{0}, 1);
  PutU16(frame, 6, 999);
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kBadType);
}

TEST(WireTest, OversizedPayloadRejectedBeforeAllocation) {
  auto frame = EncodeFrame(PullShardReq{0}, 1);
  PutU32(frame, 16, kMaxPayloadBytes + 1);
  FrameHeader header;
  EXPECT_EQ(DecodeHeader(frame, header), WireStatus::kOversized);
}

TEST(WireTest, TruncatedPayloadRejected) {
  PullShardResp resp;
  resp.params = {1.0, 2.0, 3.0};
  const auto frame = EncodeFrame(resp, 1);
  // Body claims 3 doubles; hand the parser one byte fewer than it needs.
  FrameHeader header;
  ASSERT_EQ(DecodeHeader(frame, header), WireStatus::kOk);
  const std::span<const std::uint8_t> payload =
      std::span(frame).subspan(kHeaderBytes);
  WireMessage out;
  EXPECT_EQ(DecodePayload(header, payload.first(payload.size() - 1), out),
            WireStatus::kTruncated);
}

TEST(WireTest, TrailingBytesRejected) {
  auto frame = EncodeFrame(CommitPushReq{}, 1);
  frame.push_back(0xab);
  // The header agrees the junk byte is payload.
  PutU32(frame, 16, static_cast<std::uint32_t>(frame.size() - kHeaderBytes));
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kMalformed);
}

TEST(WireTest, HugeElementCountRejectedNotOverflowed) {
  // A sparse push whose nnz field claims 2^61 entries: count * 16 bytes
  // overflows size_t if computed naively. The parser must reject it as
  // truncated without allocating.
  PushShardReq req;
  req.sparse = true;
  auto frame = EncodeFrame(req, 1);
  // Payload layout: u32 shard, u64 epoch, u8 kind, u64 nnz.
  const std::size_t nnz_pos = kHeaderBytes + 4 + 8 + 1;
  ASSERT_EQ(frame.size(), nnz_pos + 8);
  for (int i = 0; i < 8; ++i) frame[nnz_pos + i] = 0xff;
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kTruncated);
}

TEST(WireTest, BadDenseSparseKindRejected) {
  PushShardReq req;
  const auto good = EncodeFrame(req, 1);
  auto frame = good;
  frame[kHeaderBytes + 4 + 8] = 3;  // kind byte: only 0/1/2 are defined
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kMalformed);
}

TEST(WireTest, BadCodecByteInCodedPushRejected) {
  // kind 2 must carry codec 2 (int8) or 3 (fp16); anything else is malformed
  // (codec byte here lands where the old dense offset began — the strict
  // parser must not guess).
  PushShardReq req;
  const auto good = EncodeFrame(req, 1);
  auto frame = good;
  frame[kHeaderBytes + 4 + 8] = 2;  // kind: coded
  // The next payload byte is now read as the codec id; offset bytes are 0.
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kMalformed);
}

TEST(WireTest, RequestIdZeroAndMaxSurvive) {
  RoundTrip(PullShardReq{1}, 0);
  RoundTrip(PullShardReq{1}, std::numeric_limits<std::uint64_t>::max());
}

TEST(WireTest, HugeSliceCountRejectedNotOverflowed) {
  // A batch claiming 2^32 - 1 slices in a 20-byte payload: rejected as
  // truncated before anything is reserved for the slices.
  auto frame = EncodeFrame(CommitPushReq{1, 1, {}}, 1);
  PutU32(frame, kHeaderBytes + 16, 0xffffffffu);  // after client_id, push_seq
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kTruncated);
}

TEST(WireTest, MalformedSliceInsideBatchRejected) {
  // Slice decoding inside a batch is exactly as strict as standalone.
  auto frame = EncodeFrame(CommitPushReq{1, 1, {PushShardReq{}}}, 1);
  frame[kHeaderBytes + 20 + 4 + 8] = 3;  // the slice's kind byte
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kMalformed);
}

// --- trace-context extension -------------------------------------------------

TEST(WireTraceExtTest, AbsentExtensionEncodesByteIdenticalFrames) {
  // The golden-digest pin depends on this: a frame without trace context
  // must be indistinguishable from a pre-extension frame.
  const PullShardReq req{3};
  const auto plain = EncodeFrame(req, 9);
  const auto with_null = EncodeFrame(req, 9, nullptr);
  const TraceContext invalid;  // trace_id 0 = absent
  const auto with_invalid = EncodeFrame(req, 9, &invalid);
  EXPECT_EQ(plain, with_null);
  EXPECT_EQ(plain, with_invalid);
}

TEST(WireTraceExtTest, TraceContextRoundTripsOnEveryMessageType) {
  const TraceContext trace{0xdeadbeef12345678ull, 0x42ull};
  const std::vector<WireMessage> messages = {
      PullShardReq{1},       PushShardReq{},
      CommitPushReq{},       AckResp{kAckOk, 0},
      PullBatchReq{{{1, 2}}}, PullBatchResp{{PullShardNotModified{}}},
      PushPullReq{},         PushPullResp{}};
  for (const WireMessage& message : messages) {
    const auto frame = std::visit(
        [&](const auto& m) { return EncodeFrame(m, 5, &trace); }, message);
    std::uint64_t id = 0;
    WireMessage out;
    TraceContext decoded;
    ASSERT_EQ(DecodeFrame(frame, id, out, &decoded), WireStatus::kOk);
    EXPECT_EQ(decoded.trace_id, trace.trace_id);
    EXPECT_EQ(decoded.parent_span, trace.parent_span);
    EXPECT_TRUE(decoded.valid());
  }
}

TEST(WireTraceExtTest, ExtensionIgnoredByTracelessDecode) {
  // A peer that does not understand the extension still decodes the message
  // (it passes no TraceContext slot and the tail is skipped, not rejected).
  const TraceContext trace{7, 7};
  const auto frame = EncodeFrame(PullShardReq{2}, 11, &trace);
  std::uint64_t id = 0;
  WireMessage out;
  ASSERT_EQ(DecodeFrame(frame, id, out), WireStatus::kOk);
  EXPECT_EQ(std::get<PullShardReq>(out).shard, 2u);
}

TEST(WireTraceExtTest, AbsentExtensionDecodesInvalidContext) {
  const auto frame = EncodeFrame(PullShardReq{2}, 11);
  std::uint64_t id = 0;
  WireMessage out;
  TraceContext decoded{123, 456};  // stale values must be cleared
  ASSERT_EQ(DecodeFrame(frame, id, out, &decoded), WireStatus::kOk);
  EXPECT_FALSE(decoded.valid());
  EXPECT_EQ(decoded.trace_id, 0u);
}

TEST(WireTraceExtTest, LongerExtensionSkippedForForwardCompat) {
  // A future peer may append fields after parent_span; ext_bytes tells us
  // how much to skip.
  const TraceContext trace{0xabc, 0xdef};
  auto frame = EncodeFrame(PullShardReq{4}, 13, &trace);
  // Declare 4 extra extension bytes and append them.
  const std::size_t ext_len_pos = frame.size() - kTraceExtBytes - 2;
  PutU16(frame, ext_len_pos, kTraceExtBytes + 4);
  for (int i = 0; i < 4; ++i) frame.push_back(0xee);
  PutU32(frame, 16, static_cast<std::uint32_t>(frame.size() - kHeaderBytes));
  std::uint64_t id = 0;
  WireMessage out;
  TraceContext decoded;
  ASSERT_EQ(DecodeFrame(frame, id, out, &decoded), WireStatus::kOk);
  EXPECT_EQ(decoded.trace_id, 0xabcu);
  EXPECT_EQ(decoded.parent_span, 0xdefu);
}

TEST(WireTraceExtTest, TruncatedExtensionRejected) {
  const TraceContext trace{1, 2};
  auto frame = EncodeFrame(PullShardReq{4}, 13, &trace);
  frame.resize(frame.size() - 3);
  PutU32(frame, 16, static_cast<std::uint32_t>(frame.size() - kHeaderBytes));
  std::uint64_t id = 0;
  WireMessage out;
  TraceContext decoded;
  EXPECT_EQ(DecodeFrame(frame, id, out, &decoded), WireStatus::kTruncated);
}

TEST(WireTraceExtTest, UndersizedExtLengthRejected) {
  const TraceContext trace{1, 2};
  auto frame = EncodeFrame(PullShardReq{4}, 13, &trace);
  const std::size_t ext_len_pos = frame.size() - kTraceExtBytes - 2;
  PutU16(frame, ext_len_pos, kTraceExtBytes - 1);
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out, nullptr), WireStatus::kMalformed);
}

TEST(WireTraceExtTest, NonExtensionTrailingBytesStillRejected) {
  // The extension does not relax the strict-length contract: trailing bytes
  // that do not open with the extension magic remain malformed.
  auto frame = EncodeFrame(PullShardReq{4}, 13);
  for (int i = 0; i < 22; ++i) frame.push_back(0x00);
  PutU32(frame, 16, static_cast<std::uint32_t>(frame.size() - kHeaderBytes));
  std::uint64_t id = 0;
  WireMessage out;
  TraceContext decoded;
  EXPECT_EQ(DecodeFrame(frame, id, out, &decoded), WireStatus::kMalformed);
}

// --- coded pushes and delta pulls --------------------------------------------

// Hand-assembled little-endian writer, independent of wire.cc's internals:
// the golden-byte pins below must not share code with the encoder they pin.
struct GoldenFrame {
  std::vector<std::uint8_t> bytes;

  void U8(std::uint8_t v) { bytes.push_back(v); }
  void U16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) bytes.push_back(v >> (8 * i) & 0xff);
  }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(v >> (8 * i) & 0xff);
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(v >> (8 * i) & 0xff);
  }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Header(MsgType type, std::uint64_t request_id) {
    U32(kWireMagic);
    U16(kWireVersion);
    U16(static_cast<std::uint16_t>(type));
    U64(request_id);
    U32(0);  // payload length patched by Finish()
  }
  std::vector<std::uint8_t> Finish() {
    const auto payload =
        static_cast<std::uint32_t>(bytes.size() - kHeaderBytes);
    for (int i = 0; i < 4; ++i) {
      bytes[16 + i] = payload >> (8 * i) & 0xff;
    }
    return bytes;
  }
};

// The codec=none bit-identity pin: a kind-0 (dense) and a kind-1 (sparse)
// push frame must match golden bytes assembled by hand — the `coded` field
// and the kind-2 encoding may not perturb the legacy layouts, or every
// pre-codec golden trace digest drifts.
TEST(WireCodecTest, UncodedDensePushFrameBytesPinned) {
  PushShardReq req;
  req.shard = 1;
  req.epoch = 9;
  req.sparse = false;
  req.dense_offset = 64;
  req.dense = {0.125, -7.5};

  GoldenFrame golden;
  golden.Header(MsgType::kPushShardReq, 42);
  golden.U32(1);   // shard
  golden.U64(9);   // epoch
  golden.U8(0);    // kind: dense
  golden.U64(64);  // offset
  golden.U64(2);   // count
  golden.F64(0.125);
  golden.F64(-7.5);
  EXPECT_EQ(EncodeFrame(req, 42), golden.Finish());
}

TEST(WireCodecTest, UncodedSparsePushFrameBytesPinned) {
  PushShardReq req;
  req.shard = 0;
  req.epoch = 3;
  req.sparse = true;
  req.indices = {4, 9};
  req.values = {0.5, -2.0};

  GoldenFrame golden;
  golden.Header(MsgType::kPushShardReq, 7);
  golden.U32(0);  // shard
  golden.U64(3);  // epoch
  golden.U8(1);   // kind: sparse
  golden.U64(2);  // nnz
  golden.U64(4);
  golden.F64(0.5);
  golden.U64(9);
  golden.F64(-2.0);
  EXPECT_EQ(EncodeFrame(req, 7), golden.Finish());
}

// Quantization-idempotent doubles (what GradientCodec::Transform emits) must
// survive a coded round trip bit-exactly, and re-encoding the decoded
// message must reproduce the identical frame (the retry path re-encodes).
TEST(WireCodecTest, CodedInt8DensePushRoundTripsBitExact) {
  PushShardReq req;
  req.shard = 2;
  req.epoch = 11;
  req.sparse = false;
  req.coded = static_cast<std::uint8_t>(CodecKind::kInt8);
  req.dense_offset = 32;
  req.dense = {3.25, -0.5, 0.0, 100.0, -127.0};
  const double scale = Int8ScaleFor(req.dense);
  for (double& v : req.dense) {
    v = DequantizeInt8(QuantizeInt8(v, scale), scale);
  }

  const auto frame = EncodeFrame(req, 5);
  std::uint64_t id = 0;
  WireMessage out;
  ASSERT_EQ(DecodeFrame(frame, id, out), WireStatus::kOk);
  const auto& decoded = std::get<PushShardReq>(out);
  EXPECT_EQ(decoded.coded, req.coded);
  EXPECT_EQ(decoded.dense_offset, 32u);
  EXPECT_EQ(decoded.dense, req.dense);
  EXPECT_EQ(EncodeFrame(decoded, 5), frame);
  // The coded frame is materially smaller than the f64 encoding.
  PushShardReq raw = req;
  raw.coded = 0;
  EXPECT_LT(frame.size(), EncodeFrame(raw, 5).size());
}

TEST(WireCodecTest, CodedFp16SparsePushRoundTripsBitExact) {
  PushShardReq req;
  req.shard = 0;
  req.epoch = 4;
  req.sparse = true;
  req.coded = static_cast<std::uint8_t>(CodecKind::kFp16);
  req.indices = {1, 6, 13};
  req.values = {1.5, -0.0, 65504.0};
  for (double& v : req.values) v = DecodeFp16(EncodeFp16(v));

  const auto frame = EncodeFrame(req, 6);
  std::uint64_t id = 0;
  WireMessage out;
  ASSERT_EQ(DecodeFrame(frame, id, out), WireStatus::kOk);
  const auto& decoded = std::get<PushShardReq>(out);
  EXPECT_EQ(decoded.coded, req.coded);
  EXPECT_EQ(decoded.indices, req.indices);
  ASSERT_EQ(decoded.values.size(), req.values.size());
  for (std::size_t i = 0; i < req.values.size(); ++i) {
    std::uint64_t got = 0;
    std::uint64_t want = 0;
    std::memcpy(&got, &decoded.values[i], sizeof(got));
    std::memcpy(&want, &req.values[i], sizeof(want));
    EXPECT_EQ(got, want) << "entry " << i;  // -0.0 must keep its sign bit
  }
  EXPECT_EQ(EncodeFrame(decoded, 6), frame);
}

TEST(WireCodecTest, CodedAllZeroInt8PushCarriesZeroScale) {
  PushShardReq req;
  req.coded = static_cast<std::uint8_t>(CodecKind::kInt8);
  req.dense = {0.0, 0.0};
  const auto frame = EncodeFrame(req, 8);
  std::uint64_t id = 0;
  WireMessage out;
  ASSERT_EQ(DecodeFrame(frame, id, out), WireStatus::kOk);
  EXPECT_EQ(std::get<PushShardReq>(out).dense,
            std::vector<double>({0.0, 0.0}));
}

TEST(WireCodecTest, TruncatedCodedPushRejected) {
  PushShardReq req;
  req.coded = static_cast<std::uint8_t>(CodecKind::kFp16);
  req.dense = {1.0, 2.0, 3.0};
  const auto frame = EncodeFrame(req, 1);
  FrameHeader header;
  ASSERT_EQ(DecodeHeader(frame, header), WireStatus::kOk);
  const std::span<const std::uint8_t> payload =
      std::span(frame).subspan(kHeaderBytes);
  WireMessage out;
  // One byte short: the last fp16 value is torn.
  EXPECT_EQ(DecodePayload(header, payload.first(payload.size() - 1), out),
            WireStatus::kTruncated);
}

// A delta pull is a batch entry with a known version, answered by a
// not-modified item.
TEST(WireCodecTest, DeltaPullMessagesRoundTrip) {
  const PullBatchReq req = RoundTrip(PullBatchReq{{{5, 77}}});
  ASSERT_EQ(req.entries.size(), 1u);
  EXPECT_EQ(req.entries[0].shard, 5u);
  EXPECT_EQ(req.entries[0].known_version, 77u);

  const PullBatchResp resp =
      RoundTrip(PullBatchResp{{PullShardNotModified{5, 77, 130}}});
  ASSERT_EQ(resp.items.size(), 1u);
  const auto& unchanged = std::get<PullShardNotModified>(resp.items[0]);
  EXPECT_EQ(unchanged.shard, 5u);
  EXPECT_EQ(unchanged.shard_version, 77u);
  EXPECT_EQ(unchanged.global_version, 130u);
}

TEST(WireCodecTest, RetiredDeltaPullTypesDecodeAsBadType) {
  // Types 6 and 7 carried the per-shard delta pull and its standalone
  // not-modified answer; a peer still sending them must fail loudly.
  for (const std::uint16_t retired : {6, 7}) {
    auto frame = EncodeFrame(PullShardReq{0}, 1);
    PutU16(frame, 6, retired);
    std::uint64_t id = 0;
    WireMessage out;
    EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kBadType) << retired;
  }
}

// --- push batches -----------------------------------------------------------

// The batch reuses the slice encoding verbatim: its payload is the batch
// head followed by each slice's standalone PushShardReq payload, coded
// slices included, with nothing in between.
TEST(WireBatchTest, SlicesAreByteIdenticalToStandalonePushPayloads) {
  PushShardReq dense;
  dense.shard = 0;
  dense.epoch = 2;
  dense.dense_offset = 0;
  dense.dense = {0.125, 3.0};
  PushShardReq sparse;
  sparse.shard = 1;
  sparse.epoch = 2;
  sparse.sparse = true;
  sparse.indices = {5, 9};
  sparse.values = {-1.5, 0.75};
  PushShardReq coded;
  coded.shard = 2;
  coded.epoch = 2;
  coded.sparse = true;
  coded.coded = static_cast<std::uint8_t>(CodecKind::kInt8);
  coded.indices = {12};
  coded.values = {0.5};

  GoldenFrame golden;
  golden.Header(MsgType::kCommitPushReq, 3);
  golden.U64(0x1122334455667788ull);  // client_id
  golden.U64(42);                     // push_seq
  golden.U32(3);                      // count
  for (const PushShardReq& slice : {dense, sparse, coded}) {
    const auto standalone = EncodeFrame(slice, 3);
    golden.bytes.insert(golden.bytes.end(), standalone.begin() + kHeaderBytes,
                        standalone.end());
  }
  EXPECT_EQ(EncodeFrame(CommitPushReq{0x1122334455667788ull, 42,
                                      {dense, sparse, coded}},
                        3),
            golden.Finish());
}

TEST(WireBatchTest, EmptyBatchFrameBytesPinned) {
  GoldenFrame golden;
  golden.Header(MsgType::kCommitPushReq, 9);
  golden.U64(5);  // client_id
  golden.U64(6);  // push_seq
  golden.U32(0);  // count
  EXPECT_EQ(EncodeFrame(CommitPushReq{5, 6, {}}, 9), golden.Finish());
}

TEST(WireBatchTest, PreBatchEmptyCommitDecodesTruncated) {
  // The commit that carried no payload before batches existed must fail
  // loudly against a batch-aware peer, never read as a zero-slice push.
  GoldenFrame golden;
  golden.Header(MsgType::kCommitPushReq, 1);
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(golden.Finish(), id, out), WireStatus::kTruncated);
}

// --- pull batches -----------------------------------------------------------

TEST(WirePullBatchTest, RequestFrameBytesPinned) {
  GoldenFrame golden;
  golden.Header(MsgType::kPullBatchReq, 12);
  golden.U32(2);   // count
  golden.U32(0);   // shard
  golden.U64(~std::uint64_t{0});  // known_version: unconditional
  golden.U32(3);   // shard
  golden.U64(41);  // known_version
  EXPECT_EQ(EncodeFrame(PullBatchReq{{{0, kPullAnyVersion}, {3, 41}}}, 12),
            golden.Finish());
}

// Each full item's bytes after its kind byte are a standalone PullShardResp
// payload; a not-modified item is kind 1 and the three version fields.
TEST(WirePullBatchTest, FullItemsAreByteIdenticalToStandalonePullPayloads) {
  PullShardResp first;
  first.shard = 0;
  first.offset = 0;
  first.shard_version = 3;
  first.global_version = 9;
  first.params = {0.5, -1.25};
  PullShardResp empty;  // a zero-length shard is a valid item
  empty.shard = 2;
  empty.offset = 2;
  empty.global_version = 9;

  GoldenFrame golden;
  golden.Header(MsgType::kPullBatchResp, 4);
  golden.U32(3);  // count
  golden.U8(0);   // kind: full
  const auto standalone_first = EncodeFrame(first, 4);
  golden.bytes.insert(golden.bytes.end(),
                      standalone_first.begin() + kHeaderBytes,
                      standalone_first.end());
  golden.U8(1);    // kind: not modified
  golden.U32(1);   // shard
  golden.U64(6);   // shard_version
  golden.U64(9);   // global_version
  golden.U8(0);    // kind: full
  const auto standalone_empty = EncodeFrame(empty, 4);
  golden.bytes.insert(golden.bytes.end(),
                      standalone_empty.begin() + kHeaderBytes,
                      standalone_empty.end());
  const PullBatchResp batch{{first, PullShardNotModified{1, 6, 9}, empty}};
  EXPECT_EQ(EncodeFrame(batch, 4), golden.Finish());
  EXPECT_EQ(EncodedPayloadBytes(batch),
            kPullBatchRespHeadBytes + PullBatchFullItemBytes(2) + 21 +
                PullBatchFullItemBytes(0));

  const PullBatchResp decoded = RoundTrip(batch);
  ASSERT_EQ(decoded.items.size(), 3u);
  EXPECT_EQ(std::get<PullShardResp>(decoded.items[0]).params, first.params);
  EXPECT_EQ(std::get<PullShardNotModified>(decoded.items[1]).shard_version,
            6u);
  EXPECT_TRUE(std::get<PullShardResp>(decoded.items[2]).params.empty());
}

TEST(WirePullBatchTest, EmptyBatchesRoundTrip) {
  EXPECT_TRUE(RoundTrip(PullBatchReq{}).entries.empty());
  EXPECT_TRUE(RoundTrip(PullBatchResp{}).items.empty());
}

TEST(WirePullBatchTest, HugeEntryCountRejectedWithoutAllocating) {
  // 2^32 - 1 entries claimed in a 4-byte payload: rejected as truncated
  // before anything is sized for them.
  for (const WireMessage& empty : {WireMessage(PullBatchReq{}),
                                   WireMessage(PullBatchResp{})}) {
    auto frame = EncodeFrame(empty, 1);
    ASSERT_EQ(frame.size(), kHeaderBytes + 4);
    PutU32(frame, kHeaderBytes, 0xffffffffu);
    std::uint64_t id = 0;
    WireMessage out;
    EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kTruncated);
  }
}

// --- fused push+pull frames ------------------------------------------------

// A fused frame's payload is the two standalone payloads back to back, and
// each half decodes exactly as its standalone frame does.
TEST(WireFusedTest, FusedFramesAreTheStandalonePayloadsBackToBack) {
  PushShardReq slice;
  slice.shard = 1;
  slice.sparse = true;
  slice.indices = {7};
  slice.values = {-0.5};
  const CommitPushReq push{3, 4, {slice}};
  const PullBatchReq pull{{{0, kPullAnyVersion}, {1, 9}}};
  const AckResp ack{kAckOk, 12};
  const PullBatchResp answer{{PullShardNotModified{0, 9, 12},
                              PullShardResp{1, 5, 10, 12, {1.0, 2.0}}}};
  const auto payload = [](const WireMessage& m) {
    const std::vector<std::uint8_t> frame = EncodeFrame(m, 1);
    return std::vector<std::uint8_t>(frame.begin() + kHeaderBytes,
                                     frame.end());
  };
  const auto concat = [](std::vector<std::uint8_t> a,
                         const std::vector<std::uint8_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  EXPECT_EQ(payload(PushPullReq{push, pull}),
            concat(payload(push), payload(pull)));
  EXPECT_EQ(payload(PushPullResp{ack, answer}),
            concat(payload(ack), payload(answer)));

  std::uint64_t id = 0;
  WireMessage out;
  ASSERT_EQ(DecodeFrame(EncodeFrame(PushPullReq{push, pull}, 8), id, out),
            WireStatus::kOk);
  EXPECT_EQ(id, 8u);
  const auto& req = std::get<PushPullReq>(out);
  EXPECT_EQ(req.push.push_seq, 4u);
  ASSERT_EQ(req.push.slices.size(), 1u);
  EXPECT_EQ(req.push.slices[0].indices, slice.indices);
  ASSERT_EQ(req.pull.entries.size(), 2u);
  EXPECT_EQ(req.pull.entries[1].known_version, 9u);
  ASSERT_EQ(DecodeFrame(EncodeFrame(PushPullResp{ack, answer}, 9), id, out),
            WireStatus::kOk);
  const auto& resp = std::get<PushPullResp>(out);
  EXPECT_EQ(resp.ack.value, 12u);
  ASSERT_EQ(resp.pull.items.size(), 2u);
  EXPECT_EQ(std::get<PullShardResp>(resp.pull.items[1]).params,
            (std::vector<double>{1.0, 2.0}));
}

TEST(WirePullBatchTest, UnknownItemKindRejected) {
  auto frame = EncodeFrame(PullBatchResp{{PullShardNotModified{1, 2, 3}}}, 1);
  frame[kHeaderBytes + 4] = 2;  // the item's kind byte: only 0/1 are defined
  std::uint64_t id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(frame, id, out), WireStatus::kMalformed);
}

}  // namespace
}  // namespace specsync::net
