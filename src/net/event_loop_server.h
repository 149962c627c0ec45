// EventLoopServer: the shard server. One or more ParameterServer shards
// behind a listening socket.
//
// It serves the shards of an existing ParameterServer (the single source of
// truth for layout and versions) over the wire protocol in net/wire.h,
// executes every request through one RequestExecutor, and answers requests
// for shards it does not own with kAckBadShard — misrouting is a client bug
// and must be loud, not silent.
//
// One epoll loop per core (ThreadPool::DefaultThreadCount(), fixed at
// Start()) multiplexes the connections with level-triggered epoll, and each
// loop executes the requests it reads itself, with no hand-off. Loop 0 owns
// the listener and deals accepted connection i to loop i mod K through that
// loop's locked inbox and eventfd; a connection then stays on its loop for
// life. With one client per core, each client's round trip stays on one
// core. The server's thread count is its loop count, never a function of
// how many clients connect — the property the fan-in bench pins, holding
// p99 RTT with a constant thread count.
//
// Failure semantics: pushes are exactly-once — the RequestExecutor applies
// each (client_id, push_seq) batch at most once and answers retries and
// duplicates from its per-client watermark — while pulls are idempotent and
// simply re-execute (at-least-once; see shard_client.h). A malformed frame
// kills only its connection; the server keeps serving.
//
// Data flow per connection:
//   readable → RecvSome() until EAGAIN into the connection's reassembly
//   buffer → peel complete frames (a malformed header or payload kills only
//   that connection), each decoded into the one request message its loop
//   reuses → RequestExecutor::Execute each request in arrival order, which
//   encodes its response into the connection's reused response frame (a
//   pull's shards copied from the store straight into it) → with nothing
//   queued ahead, send it straight to the socket; only a partial write or
//   EAGAIN moves the frame to the connection's out-queue, with EPOLLOUT
//   armed until the queue drains. A write error drops the connection after
//   the frames already read have executed. At steady state, with answers
//   the socket takes whole, a request allocates nothing.
//
// Responses on one connection leave in request order. Clients match them
// by request_id (the wire v2 pipelining contract) and may send several
// frames before reading any reply.
//
// The server never blocks on a write: whatever the socket cannot take waits
// on the out-queue while the loop keeps reading. A client that sends every
// frame of an exchange before reading any reply (ShardClient) therefore
// cannot deadlock against it.
//
// Ownership and shutdown: each loop's fd → connection map owns that loop's
// connections, and nothing else refers to one; a connection dealt but not
// yet registered sits in its loop's inbox. Stop() sets the stopping flag,
// wakes every loop through its eventfd, joins every loop thread (each
// finishes its current event batch first), then drops every connection,
// registered or in an inbox, and releases the listener and every loop's
// epoll and eventfd descriptors.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/endpoint.h"
#include "net/request_executor.h"
#include "ps/param_store.h"

namespace specsync::obs {
class Counter;
class Gauge;
}  // namespace specsync::obs

namespace specsync::net {

class TcpConnection;
class TcpListener;

struct ShardServerConfig {
  // Address to bind. port 0 = pick an ephemeral port (read it back via
  // port() after Start()). The default binds loopback; a topology naming a
  // real interface flows through the same field.
  Endpoint bind{"127.0.0.1", 0};
  // Shard ids this server answers for; empty = all shards of the store.
  std::vector<std::size_t> served_shards;
  // Exists only because benchmarks/e2e/e2e_bench.cc sets it; nothing reads it.
  ServerModel model = ServerModel::kEventLoop;
  // Test/bench injection: artificial per-request service time (see
  // RequestExecutor). Zero = off.
  std::chrono::microseconds service_delay{0};
  // Serve spans (when a SpanRecorder is attached) land on track
  // `trace_track_base + shard`; set a base when the recorder is shared with
  // other span sources so server tracks do not collide with theirs.
  std::uint32_t trace_track_base = 0;
};

class EventLoopServer {
 public:
  // `store` is not owned and must outlive the server. `metrics` (optional)
  // receives the executor's service-time histograms "net.server.pull_s" /
  // "net.server.push_s" and the loop internals: "net.eloop.epoll_wait_s" /
  // "net.eloop.dispatch_s" (one event batch, request execution included) /
  // "net.eloop.out_queue_s" histograms, "net.eloop.reassembly_bytes" /
  // "net.eloop.out_queue_bytes" / "net.eloop.conns" gauges, and
  // "net.eloop.accepts" / "net.eloop.drops" counters, each shared by every
  // loop. `spans` (optional) records trace-linked serve spans (DESIGN.md
  // §14).
  EventLoopServer(ParameterServer* store, ShardServerConfig config,
                  obs::MetricsRegistry* metrics = nullptr,
                  obs::SpanRecorder* spans = nullptr);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  // Binds and starts serving. False if the endpoint cannot be bound.
  bool Start();
  // Stops accepting, joins every loop thread, drops every open connection.
  // Idempotent and safe to call from multiple threads; also run by the
  // destructor.
  void Stop();
  // Listening port (valid after a successful Start()).
  std::uint16_t port() const { return port_; }
  ServerStats stats() const;
  // The loop count while running (one thread per loop), 0 otherwise; never
  // a function of the number of connected clients.
  std::size_t thread_count() const;

 private:
  struct Conn;
  struct Loop;

  void Run(Loop& loop);
  // Loop 0 only: accepts every pending client and deals connection i to
  // loop i mod K.
  void AcceptNew(Loop& self);
  // Registers a connection with `loop`; on that loop's thread only.
  void Adopt(Loop& loop, TcpConnection connection);
  // Reads until EAGAIN, executing each complete frame and sending its
  // response. False = the connection must be dropped (EOF, error, malformed
  // input).
  bool ReadAndDispatch(Loop& loop, Conn& conn);
  // Flushes the outbound queue until empty or EAGAIN; manages EPOLLOUT
  // registration. False = the connection must be dropped.
  bool FlushOut(Conn& conn);
  void DropConn(Loop& loop, int fd);
  // Sends the connection's response frame, or queues what the socket did
  // not take. False = the connection must be dropped.
  bool SendResponse(Conn& conn);
  bool UpdateEpoll(Conn& conn, bool want_write);
  // Releases the listener and every loop: its connections, registered or
  // in its inbox, and its epoll/eventfd descriptors.
  void Cleanup();

  ShardServerConfig config_;
  RequestExecutor executor_;
  std::unique_ptr<TcpListener> listener_;
  std::uint16_t port_ = 0;

  // Loop telemetry (all null when no registry was given; every use is
  // pointer-guarded so the un-instrumented server pays nothing).
  obs::LatencyHistogram* epoll_wait_hist_ = nullptr;  // time blocked in epoll
  obs::LatencyHistogram* dispatch_hist_ = nullptr;    // one event batch
  obs::LatencyHistogram* out_queue_hist_ = nullptr;   // queue → fully sent
  obs::Gauge* reassembly_gauge_ = nullptr;  // Σ per-conn `in` bytes
  obs::Gauge* out_bytes_gauge_ = nullptr;   // Σ per-conn queued out bytes
  obs::Gauge* conns_gauge_ = nullptr;       // live connection count
  obs::Counter* accepts_counter_ = nullptr;
  obs::Counter* drops_counter_ = nullptr;

  // Built by Start(), destroyed by Stop() after every loop has joined; the
  // loops only read the vector.
  std::vector<std::unique_ptr<Loop>> loops_;
  std::uint64_t dealt_ = 0;  // loop 0 only: connections dealt so far

  mutable std::mutex lifecycle_mutex_;
  bool started_ = false;  // guarded by lifecycle_mutex_
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> bad_frames_{0};
};

}  // namespace specsync::net
