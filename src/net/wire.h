// Wire format for the parameter-server shard protocol.
//
// The sharded store's seam (PullShard / PushShard / CommitPush) becomes a
// real protocol here: length-prefixed binary framing with fixed-width
// little-endian fields, so a shard server on one machine and a ShardClient on
// another agree on bytes, not on C++ object layout.
//
// Frame layout (header is kHeaderBytes = 20 bytes):
//   u32 magic          0x53505359 ("YSPS" on the wire, little-endian)
//   u16 version        kWireVersion; receivers reject anything else
//   u16 type           MsgType
//   u64 request_id     echoed verbatim in the response; lets a client match
//                      responses to requests and discard stale frames left
//                      over from timed-out or duplicated attempts
//   u32 payload_bytes  length of the payload that follows (<= kMaxPayload)
//
// Version 2 — pipelining. The framing is byte-identical to v1; what changed
// is the *contract* around request_id:
//   - A client MAY have any number of requests in flight on one connection
//     (v1 promised strict request/response lockstep per connection).
//   - A server MAY answer out of order: responses are matched to requests by
//     request_id, never by arrival position. A server that executes
//     requests concurrently may reply as each finishes (EventLoopServer
//     executes them one at a time, in arrival order).
//   - request_id is an opaque 64-bit token chosen by the client; a server
//     echoes it verbatim and never interprets it. Clients that pipeline must
//     keep ids unique among their own in-flight requests on a connection.
// Decoders stay strict: a v1 frame (or any other version) is kBadVersion —
// mixed-version peers must fail loudly at the first frame, not renegotiate.
//
// Payloads (all integers little-endian, doubles as IEEE-754 bit patterns in
// little-endian u64):
//   PullShardReq   u32 shard
//   PullShardResp  u32 shard, u64 offset, u64 shard_version,
//                  u64 global_version, u64 count, f64[count]
//   PushShardReq   one slice (servers answer it standalone with
//                  kAckBadRequest; it travels inside CommitPushReq):
//                  u32 shard, u64 epoch, u8 kind (0 dense, 1 sparse,
//                  2 coded);
//                  dense:  u64 offset, u64 count, f64[count]  (the shard's
//                          slice only — never the full vector)
//                  sparse: u64 nnz, nnz x (u64 index, f64 value)  (global
//                          indices, pre-routed to the owning shard)
//                  coded:  u8 codec (CodecKind: 2 int8, 3 fp16), u8 sparse,
//                          f64 scale (int8 only; 0 when all-zero);
//                          dense:  u64 offset, u64 count, count x (i8|u16)
//                          sparse: u64 nnz, nnz x u64 index, nnz x (i8|u16)
//                          Values decode back into doubles; the encoder
//                          re-derives q from the (already quantization-
//                          idempotent) doubles, so encode(decode(frame))
//                          is byte-identical. kind 0/1 frames are
//                          byte-identical to the pre-codec wire — codec=none
//                          never emits kind 2 (TRCX extension discipline).
//   CommitPushReq  u64 client_id, u64 push_seq, u32 count,
//                  count x PushShardReq payload (each slice byte-identical to
//                  a standalone PushShardReq payload, kind-2 included; no
//                  per-slice length prefix — slices are self-delimiting).
//                  One logical push to one server: the server applies every
//                  slice and commits at most once per (client_id, push_seq).
//                  A zero-length payload decodes as kTruncated.
//   AckResp        u32 status, u64 value
//   PullBatchReq   u32 count, count x (u32 shard, u64 known_version).
//                  One composed pull to one server. known_version is the
//                  shard version the client holds a cached copy at, or
//                  kPullAnyVersion (~0) to get the shard unconditionally.
//                  The server validates every shard before reading any.
//   PullBatchResp  u32 count, count x (u8 kind, slice), in request order:
//                  kind 0  a full shard, the slice byte-identical to a
//                          standalone PullShardResp payload;
//                  kind 1  not modified since known_version, the slice
//                          u32 shard, u64 shard_version, u64 global_version.
//                  Other kinds are kMalformed. No per-item length prefix —
//                  slices are self-delimiting.
//   PushPullReq    a CommitPushReq payload, then a PullBatchReq payload, each
//                  byte-identical to its standalone payload. One push to one
//                  server fused with the same client's next pull from it:
//                  the server validates both halves before touching the
//                  store, applies the push exactly once (a repeat gets the
//                  cached ack), then serves the pull, so the snapshot always
//                  includes the push. A rejected half is answered with a
//                  plain error AckResp.
//   PushPullResp   an AckResp payload, then a PullBatchResp payload, each
//                  byte-identical to its standalone payload.
//   Types 6 and 7 are reserved: they were the per-shard delta pull and its
//   standalone not-modified answer, which PullBatchReq/PullBatchResp
//   replaced. They decode as kBadType.
//
// Decoding is strict: short headers, bad magic/version/type, payloads longer
// than kMaxPayload, truncated payloads, and trailing bytes are all distinct
// errors — a transport must never guess at a malformed frame.
//
// Codec. Encoding and decoding copy fields and f64/u64 arrays in bulk in the
// host's byte order, which wire.cc pins to little-endian with a
// static_assert (there is no byte-swapping path). EncodeFrame computes the
// exact payload size first (EncodedPayloadBytes), allocates the frame once
// at that size, and refuses (CheckError) a payload over kMaxPayloadBytes
// instead of sending a frame every peer would reject. Decoding checks each
// array's claimed count against the bytes left before sizing anything.
//
// Trace-context extension (optional, length-prefixed). A frame MAY carry a
// trace context after its message fields, still inside payload_bytes:
//   u32 ext_magic   kTraceExtMagic ("TRCX" on the wire, little-endian)
//   u16 ext_bytes   length of the extension body that follows (>= 16)
//   u64 trace_id    nonzero, process-unique per logical request (stable
//                   across retry attempts so duplicates collapse in traces)
//   u64 parent_span span id of the client-side span that caused this request
//   ...             decoders skip any bytes past the first 16 (forward
//                   compatibility for future extension fields)
// Absent extension ⇒ the frame is byte-identical to a pre-extension frame,
// so golden digests over traffic stay pinned and old captures still decode.
// Trailing bytes that do not start with kTraceExtMagic remain kMalformed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace specsync::net {

inline constexpr std::uint32_t kWireMagic = 0x53505359u;
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kHeaderBytes = 20;
// Caps one frame's payload (1 GiB). A header announcing more is rejected
// before any allocation, so a corrupt length field cannot OOM the receiver.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

enum class MsgType : std::uint16_t {
  kPullShardReq = 1,
  kPullShardResp = 2,
  kPushShardReq = 3,
  kCommitPushReq = 4,
  kAck = 5,
  // 6 and 7 are reserved (see the payload table above).
  kPullBatchReq = 8,
  kPullBatchResp = 9,
  kPushPullReq = 10,
  kPushPullResp = 11,
};

// Trace-context extension framing ("XCRT" bytes little-endian spell TRCX).
inline constexpr std::uint32_t kTraceExtMagic = 0x58435254u;
inline constexpr std::uint16_t kTraceExtBytes = 16;

// Cross-process trace identity carried by the extension. trace_id == 0 means
// "absent": EncodeFrame emits no extension and decoders report no context.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  bool valid() const { return trace_id != 0; }
};

// "0x"-prefixed lowercase hex without leading zeros: the `trace_id` span arg
// both ends of a stitched request record.
std::string TraceIdHex(std::uint64_t id);

// AckResp status codes.
inline constexpr std::uint32_t kAckOk = 0;
inline constexpr std::uint32_t kAckBadShard = 1;
inline constexpr std::uint32_t kAckBadRequest = 2;

struct PullShardReq {
  std::uint32_t shard = 0;
};

struct PullShardResp {
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;
  std::uint64_t shard_version = 0;
  std::uint64_t global_version = 0;
  std::vector<double> params;
};

struct PushShardReq {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
  bool sparse = false;
  // Quantization codec for the value payload: 0 ships raw f64 (the classic
  // kind 0/1 encodings); CodecKind::kInt8 / kFp16 (2 / 3) ship the compact
  // kind-2 encoding. Values in this struct are ALWAYS doubles — the codec
  // only changes their wire representation, and quantization idempotency
  // (ps/compression.h) guarantees the encoder can recover the exact wire
  // bits from the doubles.
  std::uint8_t coded = 0;
  // Dense: the shard's contiguous slice (offset = shard offset in the full
  // vector). Sparse: global (index, value) entries owned by the shard; an
  // empty entry list is a valid slice (the empty-gradient push still
  // crosses the wire as one batch holding one empty slice).
  std::uint64_t dense_offset = 0;
  std::vector<double> dense;
  std::vector<std::uint64_t> indices;
  std::vector<double> values;
};

// One logical push to one server: the slices this server owns, applied and
// committed together. `client_id` is process-unique per ShardClient and
// stable across reconnects; `push_seq` starts at 1, grows by one per logical
// push, and is identical on every retry attempt — the pair is what lets the
// server apply each push exactly once however often the frame arrives.
struct CommitPushReq {
  std::uint64_t client_id = 0;
  std::uint64_t push_seq = 0;
  std::vector<PushShardReq> slices;
};

// Response to CommitPushReq (value = the global version the push committed
// at, also for a duplicate answered from the server's cache), and the error
// reply to any request the server cannot serve (a standalone PushShardReq is
// one: a slice outside a batch is not a push).
struct AckResp {
  std::uint32_t status = kAckOk;
  std::uint64_t value = 0;
};

// PullBatchEntry::known_version meaning "send the shard whatever its
// version" (no shard version ever reaches it).
inline constexpr std::uint64_t kPullAnyVersion = ~std::uint64_t{0};

// "Send shard `shard` unless it is still at `known_version`". Delta pulls
// are lossless: the server reads the version and the slice under one shard
// lock, so an unchanged version proves the client's cached copy is exact.
struct PullBatchEntry {
  std::uint32_t shard = 0;
  std::uint64_t known_version = kPullAnyVersion;
};

// One composed pull to one server: every shard the client wants from it.
struct PullBatchReq {
  std::vector<PullBatchEntry> entries;
};

// A batch item saying the shard is still at the client's known version.
struct PullShardNotModified {
  std::uint32_t shard = 0;
  std::uint64_t shard_version = 0;
  std::uint64_t global_version = 0;
};

// One answered entry. The alternative's index is the item's kind byte on
// the wire: 0 = full snapshot, 1 = not modified.
using PullBatchItem = std::variant<PullShardResp, PullShardNotModified>;

// The answer to a PullBatchReq: one item per entry, in request order.
struct PullBatchResp {
  std::vector<PullBatchItem> items;
};

// One push to one server and the same client's next pull from it, in one
// frame: the server applies `push` exactly once, then serves `pull`.
struct PushPullReq {
  CommitPushReq push;
  PullBatchReq pull;
};

// The answer to a PushPullReq whose halves both validated: the push's ack
// (the cached one for a repeat) and a pull served after the push applied.
struct PushPullResp {
  AckResp ack;
  PullBatchResp pull;
};

// Call sites match alternatives by type (std::get_if), never by index; on
// the wire each is told apart by its MsgType.
using WireMessage =
    std::variant<PullShardReq, PullShardResp, PushShardReq, CommitPushReq,
                 AckResp, PullBatchReq, PullBatchResp, PushPullReq,
                 PushPullResp>;

enum class WireStatus {
  kOk = 0,
  kShortHeader,   // fewer than kHeaderBytes bytes
  kBadMagic,
  kBadVersion,
  kBadType,
  kOversized,     // payload_bytes > kMaxPayloadBytes
  kTruncated,     // payload shorter than its fields claim
  kMalformed,     // trailing bytes after a complete payload
};

const char* WireStatusName(WireStatus status);

struct FrameHeader {
  std::uint16_t version = 0;
  MsgType type = MsgType::kAck;
  std::uint64_t request_id = 0;
  std::uint32_t payload_bytes = 0;
};

// The payload_bytes EncodeFrame(message, id, trace) writes: the message's
// fields plus the trace extension when `trace` is valid.
std::size_t EncodedPayloadBytes(const WireMessage& message,
                                const TraceContext* trace = nullptr);

// What a PullBatchResp payload spends before its items (the u32 count), and
// on one full (kind 0) item of `params` doubles: enough for a client to keep
// each batch's response under kMaxPayloadBytes before sending it.
inline constexpr std::size_t kPullBatchRespHeadBytes = 4;
std::size_t PullBatchFullItemBytes(std::size_t params);

// Serializes one message into a complete frame (header + payload), allocated
// once at its exact size. A valid (nonzero trace_id) context is appended as
// the trace extension; null or invalid contexts produce a byte-identical
// pre-extension frame. Throws CheckError, naming the message type, when the
// payload would exceed kMaxPayloadBytes.
std::vector<std::uint8_t> EncodeFrame(const WireMessage& message,
                                      std::uint64_t request_id,
                                      const TraceContext* trace = nullptr);

// Validates and parses the 20-byte header prefix of `bytes`.
WireStatus DecodeHeader(std::span<const std::uint8_t> bytes, FrameHeader& out);

// Parses a payload previously described by a valid header. `payload` must be
// exactly header.payload_bytes long (the transport reads exactly that many).
// When `trace` is non-null it receives the frame's trace context (zeroed if
// the frame carries none); callers that pass null still decode extension
// frames correctly — the context is parsed and discarded.
WireStatus DecodePayload(const FrameHeader& header,
                         std::span<const std::uint8_t> payload,
                         WireMessage& out, TraceContext* trace = nullptr);

// Whole-buffer convenience: `frame` must hold exactly one frame.
WireStatus DecodeFrame(std::span<const std::uint8_t> frame,
                       std::uint64_t& request_id, WireMessage& out,
                       TraceContext* trace = nullptr);

}  // namespace specsync::net
