// Wire format for the parameter-server shard protocol.
//
// The sharded store's seam (PullShardSlice / PushShard* / CommitPush)
// becomes a real protocol here: length-prefixed binary framing with fixed-width
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
//   PullShardReq   u32 shard. Encodes and decodes, but servers answer it
//                  standalone with kAckBadRequest: every pull travels in a
//                  PullBatchReq.
//   PullShardResp  u32 shard, u64 offset, u64 shard_version,
//                  u64 global_version, u64 count, f64[count]  (the item of
//                  a PullBatchResp; no server sends one alone)
//   PushShardReq   one slice (servers answer it standalone with
//                  kAckBadRequest; it travels inside CommitPushReq):
//                  u32 shard, u64 epoch, u8 kind, then by kind:
//                  0 dense:  u64 offset, u64 count, f64[count]  (the shard's
//                            slice only — never the full vector)
//                  1 sparse: u64 nnz, nnz x (u64 index, f64 value)  (global
//                            indices, pre-routed to the owning shard)
//                  3 rows:   u32 width, u64 rows,
//                            rows x (u64 first index, width x f64)
//                            (a sparse slice of block_width > 1: row r
//                            holds entries first .. first + width - 1, so
//                            an entry costs 8 bytes, not 16). Kind 1 is
//                            kind 3 at width 1 with the width implied; one
//                            encode and one decode loop serve both. The
//                            decoder rejects, before sizing anything, a
//                            width below 2 and a row count the payload
//                            cannot hold (kMalformed, kTruncated), and a
//                            first index whose row would pass UINT64_MAX
//                            (kMalformed).
//                  Other kinds are kMalformed (kind 2 was a quantized
//                  slice; gradient compression is modelled only in the
//                  simulator, see ps/compression.h).
//   CommitPushReq  u64 client_id, u64 push_seq, u32 count,
//                  count x PushShardReq payload (each slice byte-identical to
//                  a standalone PushShardReq payload; no per-slice length
//                  prefix — slices are self-delimiting).
//                  One logical push to one server: the server applies every
//                  slice and commits at most once per (client_id, push_seq).
//                  A zero-length payload decodes as kTruncated.
//   AckResp        u32 status, u64 value
//   PullBatchReq   u32 count, count x (u32 shard, u64 reserved).
//                  One composed pull to one server. The reserved slot is
//                  always ~0; any other value is kMalformed (it was the
//                  cached version of a delta pull). The server validates
//                  every shard, and that the answer fits one frame
//                  (PullAnswerPayloadBytes), before reading any.
//   PullBatchResp  u32 count, count x (u8 kind, slice), in request order.
//                  The kind is always 0 and the slice byte-identical to a
//                  standalone PullShardResp payload; other kinds are
//                  kMalformed (kind 1 was a delta pull's not-modified
//                  answer). No per-item length prefix — slices are
//                  self-delimiting. A server writes each item's doubles
//                  straight from its store into the frame
//                  (PullAnswerWriter), and a client reads them straight
//                  from the frame into its snapshot (DecodeAnswer): one
//                  copy of each shard on each side.
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
// exact payload size first (EncodedPayloadBytes), sizes the frame once at
// that size, and refuses (CheckError) a payload over kMaxPayloadBytes
// instead of sending a frame every peer would reject. Decoding checks each
// array's claimed count against the bytes left before sizing anything. A
// pull answer's items have one writer and one reader (wire.cc), which the
// struct codec and the in-place paths (PullAnswerWriter, DecodeAnswer)
// share.
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

#include <cstddef>
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
  // Dense: the shard's contiguous slice (offset = shard offset in the full
  // vector). Sparse: global (index, value) entries owned by the shard; an
  // empty entry list is a valid slice (the empty-gradient push still
  // crosses the wire as one batch holding one empty slice).
  // Sparse only: the row width. Above 1, the entries are rows of
  // `block_width` consecutive indices (indices.size() a multiple of it),
  // which travel as kind 3 and apply row by row; 1 travels as kind 1.
  std::uint32_t block_width = 1;
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
// reply to any request the server cannot serve (a standalone PushShardReq or
// PullShardReq is one: a slice outside a batch is not a push, and every pull
// is a batch).
struct AckResp {
  std::uint32_t status = kAckOk;
  std::uint64_t value = 0;
};

// One shard of a composed pull.
struct PullBatchEntry {
  std::uint32_t shard = 0;
};

// One composed pull to one server: every shard the client wants from it.
struct PullBatchReq {
  std::vector<PullBatchEntry> entries;
};

// The answer to a PullBatchReq: one full shard per entry, in request order.
struct PullBatchResp {
  std::vector<PullShardResp> items;
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

// The payload bytes of the answer to a pull of `items` full shards holding
// `params` doubles between them: a PullBatchResp, or with `fused` a
// PushPullResp (the same behind its AckResp). The one bound both ends apply:
// a ShardClient refuses a topology where a link's answer would exceed
// kMaxPayloadBytes, and a server refuses such a batch with kAckBadRequest,
// so neither ever asks EncodeFrame for a frame it must refuse.
std::size_t PullAnswerPayloadBytes(std::size_t items, std::size_t params,
                                   bool fused);

// Serializes one message into `frame` (header + payload), resized to the
// frame's exact size, so a buffer reused across frames allocates only when
// it grows. A valid (nonzero trace_id) context is appended as the trace
// extension; null or invalid contexts produce a byte-identical pre-extension
// frame. Throws CheckError, naming the message type, when the payload would
// exceed kMaxPayloadBytes.
void EncodeFrame(const WireMessage& message, std::uint64_t request_id,
                 const TraceContext* trace, std::vector<std::uint8_t>& frame);
// The same frame in a fresh buffer, allocated once at its exact size.
std::vector<std::uint8_t> EncodeFrame(const WireMessage& message,
                                      std::uint64_t request_id,
                                      const TraceContext* trace = nullptr);

// Writes the answer to a pull in place, item by item, so a server copies
// each shard once: from its store into the frame. The constructor sizes
// `frame` for `items` full shards holding `params` doubles between them
// (PullAnswerPayloadBytes, which must not exceed kMaxPayloadBytes) and
// writes the header and, for a PushPullResp (`ack` non-null), the ack; with
// a null `ack` the frame is a PullBatchResp. Each item is then BeginItem,
// the shard's doubles copied into the bytes it returns, and EndItem with
// the versions read during and after that copy. The finished frame is
// byte-identical to EncodeFrame of the same answer; it carries no trace
// extension.
class PullAnswerWriter {
 public:
  PullAnswerWriter(std::vector<std::uint8_t>& frame, std::uint64_t request_id,
                   std::size_t items, std::size_t params, const AckResp* ack);

  // Lays out the next item's head and returns where its `count` doubles go:
  // 8 * count bytes, unaligned, little-endian.
  std::span<std::byte> BeginItem(std::uint32_t shard, std::uint64_t offset,
                                 std::size_t count);
  // Fills in the versions of the item BeginItem laid out.
  void EndItem(std::uint64_t shard_version, std::uint64_t global_version);

 private:
  std::uint8_t* pos_;
  std::uint8_t* end_;
  std::uint8_t* versions_ = nullptr;  // the open item's version slots
};

// One item of a pull answer as it sits in a frame: the shard's head fields
// and its doubles, still the frame's bytes (8 per double, unaligned). Valid
// while the frame's buffer is.
struct PullItemView {
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;
  std::uint64_t shard_version = 0;
  std::uint64_t global_version = 0;
  std::span<const std::uint8_t> params;

  std::size_t count() const { return params.size() / 8; }
  // Copies the item's doubles into `dest`, which must hold exactly count().
  void CopyTo(std::span<double> dest) const;
};

// A response read in place, as a client reads one. `type` is the header's.
// An AckResp fills `ack`; a PullBatchResp fills `items`, one view per item
// in order; a PushPullResp fills both. Nothing is copied out of `payload`:
// each view points into it. Any other type decodes through DecodePayload
// and leaves `items` empty. The status is DecodePayload's for the same
// bytes.
struct Answer {
  MsgType type = MsgType::kAck;
  AckResp ack;
  std::vector<PullItemView> items;
};
WireStatus DecodeAnswer(const FrameHeader& header,
                        std::span<const std::uint8_t> payload, Answer& out);

// Validates and parses the 20-byte header prefix of `bytes`.
WireStatus DecodeHeader(std::span<const std::uint8_t> bytes, FrameHeader& out);

// Parses a payload previously described by a valid header. `payload` must be
// exactly header.payload_bytes long (the transport reads exactly that many).
// When `trace` is non-null it receives the frame's trace context (zeroed if
// the frame carries none); callers that pass null still decode extension
// frames correctly — the context is parsed and discarded. When `out`
// already holds the frame's type, it is decoded in place, reusing its
// buffers (a server decoding every request into one message allocates only
// when a request outgrows the last); on an error status `out` holds an
// unspecified value of that type.
WireStatus DecodePayload(const FrameHeader& header,
                         std::span<const std::uint8_t> payload,
                         WireMessage& out, TraceContext* trace = nullptr);

// Whole-buffer convenience: `frame` must hold exactly one frame.
WireStatus DecodeFrame(std::span<const std::uint8_t> frame,
                       std::uint64_t& request_id, WireMessage& out,
                       TraceContext* trace = nullptr);

}  // namespace specsync::net
