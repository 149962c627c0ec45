// RAII POSIX TCP primitives for the shard transport.
//
// Deliberately minimal: IPv4 with a resolvable-host seam (loopback remains
// the tested default — see net/endpoint.h), blocking sockets with
// poll()-bounded receives for the client and test-proxy paths, a small
// non-blocking surface (TryAccept / RecvSome / SendSome) for the epoll
// event-loop server, TCP_NODELAY on every connection (the protocol is
// request/response with small frames — Nagle would serialize the pipelined
// fan-out), and a self-pipe so Accept() can be woken for shutdown without
// racing a close().
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

  // Connects to 127.0.0.1:port (loopback convenience, equivalent to
  // Connect({"127.0.0.1", port})).
  static TcpConnection ConnectLoopback(std::uint16_t port);

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

  // Receives exactly one frame, blocking until `deadline` (steady clock;
  // time_point::max() blocks indefinitely). On kBadFrame the caller must
  // drop the connection: framing is lost. Blocking sockets only.
  RecvStatus RecvFrame(std::vector<std::uint8_t>& frame,
                       std::chrono::steady_clock::time_point deadline);

  // Non-blocking IO results (event-loop paths).
  enum class IoStatus {
    kOk,          // made progress (`n` bytes moved)
    kWouldBlock,  // no progress possible now (EAGAIN)
    kClosed,      // peer closed (recv only)
    kError,       // socket error; drop the connection
  };

  // Reads at most `max` bytes into `out` (appended). Non-blocking sockets.
  // max == 0 is a clean no-op (kOk, n = 0) — never misreported as kClosed
  // even though a zero-length recv() returns 0.
  IoStatus RecvSome(std::vector<std::uint8_t>& out, std::size_t max,
                    std::size_t& n);

  // Writes a prefix of `bytes`; `n` reports how much went out. Non-blocking
  // sockets. Retries EINTR internally; an empty span is a clean no-op, so a
  // caller draining a partially-sent frame (e.g. an odd-sized coded payload)
  // can loop on the remaining suffix without special cases.
  IoStatus SendSome(std::span<const std::uint8_t> bytes, std::size_t& n);

  // Half-closes both directions, waking a peer blocked in RecvFrame.
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

// Listening socket with a self-pipe shutdown.
class TcpListener {
 public:
  // Binds `endpoint` and listens; port 0 picks an ephemeral port (read it
  // back via port()). Null on failure.
  static std::unique_ptr<TcpListener> Bind(const Endpoint& endpoint);

  // Binds 127.0.0.1:port (loopback convenience).
  static std::unique_ptr<TcpListener> BindLoopback(std::uint16_t port);

  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }
  int listen_fd() const { return listen_fd_; }

  // Switches the listening socket to non-blocking mode (for TryAccept from
  // an event loop; Accept() assumes blocking mode).
  bool SetNonBlocking();

  // Blocks until a client connects or Shutdown() is called (then returns an
  // invalid connection, as it does on accept errors after shutdown).
  TcpConnection Accept();

  // Non-blocking accept: invalid connection when no client is waiting (or
  // on transient accept errors). Never blocks.
  TcpConnection TryAccept();

  // Unblocks Accept(); idempotent and callable from any thread.
  void Shutdown();

 private:
  TcpListener(int listen_fd, int wake_rd, int wake_wr, std::uint16_t port);

  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace specsync::net
