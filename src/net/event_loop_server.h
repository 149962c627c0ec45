// EventLoopServer: the shard server. One or more ParameterServer shards
// behind a listening socket.
//
// It serves the shards of an existing ParameterServer (the single source of
// truth for layout and versions) over the wire protocol in net/wire.h,
// executes every request through one RequestExecutor, and answers requests
// for shards it does not own with kAckBadShard — misrouting is a client bug
// and must be loud, not silent.
//
// One thread does everything: it multiplexes every connection with
// level-triggered epoll and executes each request itself. The server has
// exactly one thread however many clients connect — the property the
// fan-in bench pins, holding p99 RTT with a constant thread count.
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
//   that connection) → RequestExecutor::Execute each request in arrival
//   order → append the encoded response to the connection's out-queue and
//   flush it at once. With nothing queued ahead, the response goes straight
//   to the socket; only a partial write or EAGAIN leaves the unsent rest
//   queued, with EPOLLOUT armed until the queue drains. A write error drops
//   the connection after the frames already read have executed.
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
// Ownership and shutdown: the loop's fd → connection map owns each
// connection, and nothing else refers to one. Stop() sets the stopping
// flag, wakes the loop through the eventfd, joins the loop thread (which
// finishes its current event batch first), then drops every connection and
// releases the listener, epoll and eventfd descriptors.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/endpoint.h"
#include "net/request_executor.h"
#include "ps/param_store.h"

namespace specsync::obs {
class Counter;
class Gauge;
}  // namespace specsync::obs

namespace specsync::net {

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
  // "net.eloop.accepts" / "net.eloop.drops" counters. `spans` (optional)
  // records trace-linked serve spans (DESIGN.md §14).
  EventLoopServer(ParameterServer* store, ShardServerConfig config,
                  obs::MetricsRegistry* metrics = nullptr,
                  obs::SpanRecorder* spans = nullptr);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  // Binds and starts serving. False if the endpoint cannot be bound.
  bool Start();
  // Stops accepting, drops every open connection, joins the loop thread.
  // Idempotent and safe to call from multiple threads; also run by the
  // destructor.
  void Stop();
  // Listening port (valid after a successful Start()).
  std::uint16_t port() const { return port_; }
  ServerStats stats() const;
  // 1 while running (the loop thread), 0 otherwise; never a function of the
  // number of connected clients.
  std::size_t thread_count() const;

 private:
  struct Conn;

  void Loop();
  void AcceptNew();
  // Reads until EAGAIN, executing each complete frame and sending its
  // response. False = the connection must be dropped (EOF, error, malformed
  // input).
  bool ReadAndDispatch(Conn& conn);
  // Flushes the outbound queue until empty or EAGAIN; manages EPOLLOUT
  // registration. False = the connection must be dropped.
  bool FlushOut(Conn& conn);
  void DropConn(int fd);
  // Appends `frame` to the out-queue and flushes it. False = the connection
  // must be dropped.
  bool QueueResponse(Conn& conn, std::vector<std::uint8_t> frame);
  bool UpdateEpoll(Conn& conn, bool want_write);
  // Releases listener/epoll/eventfd descriptors.
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

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() wakes the loop through it

  // Loop-thread state: every open connection, owned here.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;

  mutable std::mutex lifecycle_mutex_;
  bool started_ = false;  // guarded by lifecycle_mutex_
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> bad_frames_{0};

  // Declared after every member the loop uses.
  std::thread loop_thread_;
};

}  // namespace specsync::net
