#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace specsync::net {

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Resolves `host` to an IPv4 address: "" / "localhost" short-circuit to
// loopback, dotted quads parse directly, anything else goes through
// getaddrinfo (the true-remote seam; never reached on the loopback paths).
bool ResolveIpv4(const std::string& host, in_addr* out) {
  if (host.empty() || host == "localhost" || host == "127.0.0.1") {
    out->s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  if (::inet_pton(AF_INET, host.c_str(), out) == 1) return true;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &result) != 0 ||
      result == nullptr) {
    return false;
  }
  *out = reinterpret_cast<const sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return true;
}

bool EndpointAddr(const Endpoint& endpoint, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(endpoint.port);
  return ResolveIpv4(endpoint.host, &addr->sin_addr);
}

bool MakeNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Remaining poll budget in milliseconds, clamped to int range; -1 = forever.
int PollTimeoutMs(std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point::max()) return -1;
  const auto remaining = deadline - std::chrono::steady_clock::now();
  if (remaining <= std::chrono::steady_clock::duration::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining).count();
  // Round up so a sub-millisecond budget polls once instead of busy-looping.
  return static_cast<int>(std::min<long long>(ms + 1, 1 << 30));
}

}  // namespace

TcpConnection::TcpConnection(int fd) : fd_(fd) {
  if (fd_ >= 0) SetNoDelay(fd_);
}

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

TcpConnection::TcpConnection(TcpConnection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

TcpConnection TcpConnection::Connect(const Endpoint& endpoint) {
  sockaddr_in addr;
  if (!EndpointAddr(endpoint, &addr)) return TcpConnection();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return TcpConnection();
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    return TcpConnection();
  }
  return TcpConnection(fd);
}

TcpConnection TcpConnection::ConnectLoopback(std::uint16_t port) {
  return Connect(Endpoint{"127.0.0.1", port});
}

bool TcpConnection::SetNonBlocking() {
  return fd_ >= 0 && MakeNonBlocking(fd_);
}

bool TcpConnection::SendAll(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

TcpConnection::RecvStatus TcpConnection::RecvFrame(
    std::vector<std::uint8_t>& frame,
    std::chrono::steady_clock::time_point deadline) {
  if (fd_ < 0) return RecvStatus::kError;
  frame.clear();
  frame.resize(kHeaderBytes);
  std::size_t have = 0;
  std::size_t want = kHeaderBytes;
  bool header_parsed = false;
  for (;;) {
    while (have < want) {
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, PollTimeoutMs(deadline));
      if (pr < 0) {
        if (errno == EINTR) continue;
        return RecvStatus::kError;
      }
      if (pr == 0) {
        frame.resize(have);
        return RecvStatus::kTimeout;
      }
      const ssize_t n = ::recv(fd_, frame.data() + have, want - have, 0);
      if (n == 0) return RecvStatus::kClosed;
      if (n < 0) {
        if (errno == EINTR) continue;
        return RecvStatus::kError;
      }
      have += static_cast<std::size_t>(n);
    }
    if (header_parsed) return RecvStatus::kFrame;
    FrameHeader header;
    if (DecodeHeader(frame, header) != WireStatus::kOk) {
      return RecvStatus::kBadFrame;
    }
    header_parsed = true;
    want = kHeaderBytes + header.payload_bytes;
    frame.resize(want);
    if (have == want) return RecvStatus::kFrame;
  }
}

TcpConnection::IoStatus TcpConnection::RecvSome(std::vector<std::uint8_t>& out,
                                                std::size_t max,
                                                std::size_t& n) {
  n = 0;
  if (fd_ < 0) return IoStatus::kError;
  // recv(fd, ptr, 0) returns 0, which the check below would misreport as
  // kClosed — a zero-byte read request must stay a no-op.
  if (max == 0) return IoStatus::kOk;
  const std::size_t old_size = out.size();
  out.resize(old_size + max);
  ssize_t got;
  do {
    got = ::recv(fd_, out.data() + old_size, max, 0);
  } while (got < 0 && errno == EINTR);
  if (got > 0) {
    n = static_cast<std::size_t>(got);
    out.resize(old_size + n);
    return IoStatus::kOk;
  }
  out.resize(old_size);
  if (got == 0) return IoStatus::kClosed;
  if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
  return IoStatus::kError;
}

TcpConnection::IoStatus TcpConnection::SendSome(
    std::span<const std::uint8_t> bytes, std::size_t& n) {
  n = 0;
  if (fd_ < 0) return IoStatus::kError;
  // An empty span may carry a null data() pointer; send(fd, nullptr, 0) is
  // unspecified, and a caller draining a fully-sent buffer must see a clean
  // no-op rather than spin on the syscall.
  if (bytes.empty()) return IoStatus::kOk;
  ssize_t sent;
  do {
    sent = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  } while (sent < 0 && errno == EINTR);
  if (sent >= 0) {
    n = static_cast<std::size_t>(sent);
    return IoStatus::kOk;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
  return IoStatus::kError;
}

void TcpConnection::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

TcpListener::TcpListener(int listen_fd, int wake_rd, int wake_wr,
                         std::uint16_t port)
    : listen_fd_(listen_fd), wake_rd_(wake_rd), wake_wr_(wake_wr),
      port_(port) {}

TcpListener::~TcpListener() {
  Shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

std::unique_ptr<TcpListener> TcpListener::Bind(const Endpoint& endpoint) {
  sockaddr_in addr;
  if (!EndpointAddr(endpoint, &addr)) return nullptr;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 1024) < 0) {
    ::close(fd);
    return nullptr;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return nullptr;
  }
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) < 0) {
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<TcpListener>(new TcpListener(
      fd, pipe_fds[0], pipe_fds[1], ntohs(addr.sin_port)));
}

std::unique_ptr<TcpListener> TcpListener::BindLoopback(std::uint16_t port) {
  return Bind(Endpoint{"127.0.0.1", port});
}

bool TcpListener::SetNonBlocking() {
  return listen_fd_ >= 0 && MakeNonBlocking(listen_fd_);
}

TcpConnection TcpListener::Accept() {
  for (;;) {
    pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
    const int pr = ::poll(pfds, 2, -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return TcpConnection();
    }
    if (pfds[1].revents != 0) return TcpConnection();  // shutdown requested
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return TcpConnection();
    }
    return TcpConnection(client);
  }
}

TcpConnection TcpListener::TryAccept() {
  for (;;) {
    const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client >= 0) return TcpConnection(client);
    if (errno == EINTR || errno == ECONNABORTED) continue;
    return TcpConnection();  // EAGAIN (no client) or a real error: none now
  }
}

void TcpListener::Shutdown() {
  if (wake_wr_ >= 0) {
    const std::uint8_t byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
  }
}

}  // namespace specsync::net
