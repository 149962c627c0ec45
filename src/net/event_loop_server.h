// EventLoopServer: the epoll-based shard server (ServerModel::kEventLoop).
//
// One loop thread multiplexes every connection with level-triggered epoll;
// request execution runs on a bounded ThreadPool. Total thread count is
// 1 + pool_threads regardless of how many clients connect — the property the
// fan-in bench pins (thread-per-connection collapses at ~hundreds of
// clients; this model holds p99 RTT with a constant thread count).
//
// Data flow per connection:
//   readable → RecvSome() until EAGAIN into the connection's reassembly
//   buffer → peel complete frames (header validated on the loop thread; a
//   malformed header or payload kills only that connection) → each decoded
//   request is handed to the pool → the pool task runs
//   RequestExecutor::Execute and, when the connection's outbound queue is
//   empty, writes the encoded response straight to the socket itself
//   (write-through: no second hand-off back to the loop). Only a partial
//   write, EAGAIN, or an error queues the remainder → an eventfd wake tells
//   the loop the connection is dirty → the loop flushes, registering
//   EPOLLOUT only while a partial write is outstanding.
//
// Because pool tasks finish in any order, responses naturally leave
// out-of-order relative to arrival — the wire v2 pipelining contract
// (request_id matching) is what makes that legal.
//
// Ownership and shutdown: connections are shared_ptr'd between the loop
// (fd → conn map) and in-flight pool tasks, so a connection dropped by the
// loop stays alive until its last task retires (the task appends to a dead
// queue that is simply never flushed). Stop() runs in strict order:
//   1. set stopping, wake the loop via eventfd;
//   2. join the loop thread (nobody touches epoll after this);
//   3. destroy the pool (drains in-flight Execute calls — the eventfd stays
//      open so their wake writes hit a live descriptor);
//   4. drop connections, listener, epoll fd, eventfd.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/shard_server.h"

namespace specsync {
class ThreadPool;
}  // namespace specsync

namespace specsync::net {

class EventLoopServer : public ShardServerBase {
 public:
  // `store` is not owned and must outlive the server. `config.model` is
  // ignored (callers go through MakeShardServer; constructing this class
  // directly always yields the event-loop model). `metrics` (optional)
  // additionally darks the loop internals: "net.eloop.epoll_wait_s" /
  // "net.eloop.dispatch_s" / "net.eloop.pool_wait_s" / "net.eloop.out_queue_s"
  // histograms, "net.eloop.reassembly_bytes" / "net.eloop.out_queue_bytes" /
  // "net.eloop.conns" gauges, and "net.eloop.accepts" / "net.eloop.drops"
  // counters. `spans` (optional) records trace-linked serve spans.
  EventLoopServer(ParameterServer* store, ShardServerConfig config,
                  obs::MetricsRegistry* metrics = nullptr,
                  obs::SpanRecorder* spans = nullptr);
  ~EventLoopServer() override;

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  bool Start() override;
  void Stop() override;
  std::uint16_t port() const override { return port_; }
  ServerStats stats() const override;
  // 1 loop thread + pool_threads while running; never a function of the
  // number of connected clients.
  std::size_t thread_count() const override;

 private:
  struct Conn;

  void Loop();
  void AcceptNew();
  // Reads until EAGAIN and peels/dispatches complete frames. False = the
  // connection must be dropped (EOF, error, malformed input).
  bool ReadAndDispatch(const std::shared_ptr<Conn>& conn);
  // Flushes the outbound queue until empty or EAGAIN; manages EPOLLOUT
  // registration. False = the connection must be dropped. Loop thread only.
  bool FlushOut(const std::shared_ptr<Conn>& conn);
  void DropConn(int fd);
  // Pool-thread side: write `frame` through to the socket when nothing is
  // queued ahead of it; otherwise (or for the unsent rest) queue it and wake
  // the loop.
  void QueueResponse(const std::shared_ptr<Conn>& conn,
                     std::vector<std::uint8_t> frame);
  bool UpdateEpoll(Conn* conn, bool want_write);
  // Flushes every connection freshly marked dirty by pool threads.
  void DrainDirty();
  // Signals the eventfd so epoll_wait returns.
  void Wake();
  // Releases listener/epoll/eventfd descriptors.
  void Cleanup();

  ParameterServer* store_;
  ShardServerConfig config_;
  RequestExecutor executor_;
  std::unique_ptr<TcpListener> listener_;
  std::uint16_t port_ = 0;

  // Loop telemetry (all null when no registry was given; every use is
  // pointer-guarded so the un-instrumented server pays nothing).
  obs::LatencyHistogram* epoll_wait_hist_ = nullptr;  // time blocked in epoll
  obs::LatencyHistogram* dispatch_hist_ = nullptr;    // one event batch
  obs::LatencyHistogram* pool_wait_hist_ = nullptr;   // submit → task start
  obs::LatencyHistogram* out_queue_hist_ = nullptr;   // queue → fully sent
  obs::Gauge* reassembly_gauge_ = nullptr;  // Σ per-conn `in` bytes
  obs::Gauge* out_bytes_gauge_ = nullptr;   // Σ per-conn queued out bytes
  obs::Gauge* conns_gauge_ = nullptr;       // live connection count
  obs::Counter* accepts_counter_ = nullptr;
  obs::Counter* drops_counter_ = nullptr;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: dirty-connection + stop notifications
  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;

  // Loop-thread state.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  // Connections with freshly queued responses, handed from pool threads to
  // the loop thread.
  std::mutex dirty_mutex_;
  std::vector<std::shared_ptr<Conn>> dirty_;

  mutable std::mutex lifecycle_mutex_;
  bool started_ = false;  // guarded by lifecycle_mutex_
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> bad_frames_{0};
};

}  // namespace specsync::net
