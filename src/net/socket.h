// RAII POSIX TCP primitives for the shard transport.
//
// Deliberately minimal: IPv4 with a resolvable-host seam (loopback remains
// the tested default — see net/endpoint.h), blocking sockets with
// poll()-bounded receives for the client and test-proxy paths, a small
// non-blocking surface (TryAccept / RecvSome / SendSome) for the epoll
// event-loop server, and TCP_NODELAY on every connection (the protocol is
// request/response with small frames — Nagle would serialize the pipelined
// fan-out). A listener only ever accepts without blocking: the event-loop
// server polls it with the rest of its descriptors and wakes through its
// own eventfd.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/endpoint.h"
#include "net/wire.h"

namespace specsync::net {

// One established stream. Move-only; the descriptor closes with the object.
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(int fd);
  ~TcpConnection();

  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Connects to `endpoint` ("" / "localhost" → 127.0.0.1). Invalid
  // connection on failure.
  static TcpConnection Connect(const Endpoint& endpoint);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Switches the socket to non-blocking mode (event-loop connections only;
  // the blocking SendAll/RecvFrame paths assume blocking sockets).
  bool SetNonBlocking();

  // Writes all of `bytes` (handles partial writes and EINTR; SIGPIPE is
  // suppressed). False on a broken connection. Blocking sockets only.
  bool SendAll(std::span<const std::uint8_t> bytes);

  enum class RecvStatus {
    kFrame,     // `frame` holds one complete header + payload
    kTimeout,   // deadline passed before a full frame arrived
    kClosed,    // peer closed the stream cleanly
    kError,     // socket error (connection reset, invalid descriptor, ...)
    kBadFrame,  // header failed wire validation; the stream is unusable
  };

  // Receives exactly one frame into the front of `buffer`, blocking until
  // `deadline` (steady clock; time_point::max() blocks indefinitely), and
  // sets `frame_bytes` to its length. The buffer keeps its size across
  // frames and grows only when a frame outgrows it, so a steady stream of
  // frames never zero-fills bytes recv is about to overwrite. On kBadFrame
  // the caller must drop the connection: framing is lost. On kTimeout
  // `frame_bytes` counts the bytes that did arrive: nonzero means the
  // deadline fell mid-frame, and framing is lost too. Blocking sockets only.
  RecvStatus RecvFrame(std::vector<std::uint8_t>& buffer,
                       std::size_t& frame_bytes,
                       std::chrono::steady_clock::time_point deadline);

  // Non-blocking IO results (event-loop paths).
  enum class IoStatus {
    kOk,          // made progress (`n` bytes moved)
    kWouldBlock,  // no progress possible now (EAGAIN)
    kClosed,      // peer closed (recv only)
    kError,       // socket error; drop the connection
  };

  // Reads at most dest.size() bytes into the front of `dest`. Non-blocking
  // sockets. An empty `dest` is a clean no-op (kOk, n = 0) — never
  // misreported as kClosed even though a zero-length recv() returns 0.
  IoStatus RecvSome(std::span<std::uint8_t> dest, std::size_t& n);

  // Writes a prefix of `bytes`; `n` reports how much went out. Non-blocking
  // sockets. Retries EINTR internally; an empty span is a clean no-op, so a
  // caller draining a partially-sent frame can loop on the remaining suffix
  // without special cases.
  IoStatus SendSome(std::span<const std::uint8_t> bytes, std::size_t& n);

 private:
  int fd_ = -1;
};

// Non-blocking listening socket.
class TcpListener {
 public:
  // Binds `endpoint` and listens on a non-blocking socket; port 0 picks an
  // ephemeral port (read it back via port()). Null on failure.
  static std::unique_ptr<TcpListener> Bind(const Endpoint& endpoint);

  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }
  int listen_fd() const { return listen_fd_; }

  // Accepts a waiting client as a blocking connection: invalid when no
  // client is waiting (or on transient accept errors). Never blocks.
  TcpConnection TryAccept();

 private:
  TcpListener(int listen_fd, std::uint16_t port);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace specsync::net
