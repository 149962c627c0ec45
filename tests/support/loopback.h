// Raw-socket helpers for the transport tests: a connection to a loopback
// port, an accept that polls a listener until a client arrives or a stop
// flag is raised, and a shutdown of both directions of a connection.
#pragma once

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>

#include "net/endpoint.h"
#include "net/socket.h"

namespace specsync::net {

// A blocking connection to 127.0.0.1:`port`; invalid when refused.
inline TcpConnection ConnectLoopback(std::uint16_t port) {
  return TcpConnection::Connect(Endpoint{"127.0.0.1", port});
}

// The next client of `listener`, or an invalid connection once `stop` is
// raised. Polls in 10 ms steps, so a stop is seen within one step.
inline TcpConnection AcceptUntil(TcpListener& listener,
                                 const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    TcpConnection client = listener.TryAccept();
    if (client.valid()) return client;
    pollfd pfd{listener.listen_fd(), POLLIN, 0};
    ::poll(&pfd, 1, 10);
  }
  return TcpConnection();
}

// Half-closes both directions, waking a peer blocked in RecvFrame.
inline void ShutdownBoth(const TcpConnection& connection) {
  if (connection.valid()) ::shutdown(connection.fd(), SHUT_RDWR);
}

}  // namespace specsync::net
