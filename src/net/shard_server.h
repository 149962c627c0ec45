// Shard servers: one or more ParameterServer shards behind a listening
// socket, in either of two concurrency models.
//
// Both models serve the shards of an existing ParameterServer (the single
// source of truth for layout and versions) over the wire protocol in
// net/wire.h, share one RequestExecutor (so request semantics are identical
// by construction), and answer requests for shards they do not own with
// kAckBadShard — misrouting is a client bug and must be loud, not silent.
//
//   ServerModel::kThreadPerConn → ShardServer (this file): one accept thread
//     plus one handler thread per connection. Simple, strictly serial per
//     connection, and kept as the A/B-equivalence reference — but one thread
//     per client collapses at fan-in scale.
//   ServerModel::kEventLoop → EventLoopServer (event_loop_server.h): one
//     epoll loop plus a bounded execution pool; thousands of concurrent
//     clients on a constant thread count, with pipelined (v2) out-of-order
//     responses.
//
// MakeShardServer() is the seam callers use; the concrete classes exist for
// tests that pin model-specific behavior.
//
// Failure semantics (both models): pushes are exactly-once — the shared
// RequestExecutor applies each (client_id, push_seq) batch at most once and
// answers retries and duplicates from its per-client watermark — while pulls
// are idempotent and simply re-execute (at-least-once; see shard_client.h).
// A malformed frame kills only its connection; the server keeps serving.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/endpoint.h"
#include "net/request_executor.h"
#include "ps/param_store.h"

namespace specsync::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class SpanRecorder;
}  // namespace specsync::obs

namespace specsync::net {

class TcpListener;
class TcpConnection;

struct ShardServerConfig {
  // Address to bind. port 0 = pick an ephemeral port (read it back via
  // port() after Start()). The default binds loopback; a topology naming a
  // real interface flows through the same field.
  Endpoint bind{"127.0.0.1", 0};
  // Shard ids this server answers for; empty = all shards of the store.
  std::vector<std::size_t> served_shards;
  // Which concurrency model fronts the store.
  ServerModel model = ServerModel::kThreadPerConn;
  // kEventLoop only: bounded execution pool size. Requests run on this pool
  // so a slow shard lock never stalls the loop; total server threads =
  // 1 (loop) + pool_threads, independent of client count.
  std::size_t pool_threads = 4;
  // Test/bench injection: artificial per-request service time (see
  // RequestExecutor). Zero = off.
  std::chrono::microseconds service_delay{0};
  // Serve spans (when a SpanRecorder is attached) land on track
  // `trace_track_base + shard`; set a base when the recorder is shared with
  // other span sources so server tracks do not collide with theirs.
  std::uint32_t trace_track_base = 0;
};

// Common surface of both server models.
class ShardServerBase {
 public:
  virtual ~ShardServerBase() = default;

  // Binds and starts serving. False if the endpoint cannot be bound.
  virtual bool Start() = 0;

  // Stops accepting, drops every open connection, joins all threads.
  // Idempotent and safe to call from multiple threads; also run by the
  // destructor.
  virtual void Stop() = 0;

  // Listening port (valid after a successful Start()).
  virtual std::uint16_t port() const = 0;

  virtual ServerStats stats() const = 0;

  // Threads the server currently owns (accept/loop + handlers/pool). The
  // fan-in bench pins this: kEventLoop must stay constant in client count.
  virtual std::size_t thread_count() const = 0;
};

// Builds the server named by `config.model`. `spans` (optional) gives the
// executor a recorder for trace-context serve spans (DESIGN.md §14).
std::unique_ptr<ShardServerBase> MakeShardServer(
    ParameterServer* store, ShardServerConfig config,
    obs::MetricsRegistry* metrics = nullptr,
    obs::SpanRecorder* spans = nullptr);

// The thread-per-connection model.
class ShardServer : public ShardServerBase {
 public:
  // `store` is not owned and must outlive the server. `metrics` (optional)
  // receives service-time histograms "net.server.pull_s" / "net.server.push_s",
  // request counters, plus "net.server.accepts" / "net.server.reaped"
  // counters and the "net.server.live_handlers" gauge. `spans` (optional)
  // records trace-linked serve spans.
  ShardServer(ParameterServer* store, ShardServerConfig config,
              obs::MetricsRegistry* metrics = nullptr,
              obs::SpanRecorder* spans = nullptr);
  ~ShardServer() override;

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  bool Start() override;
  void Stop() override;
  std::uint16_t port() const override { return port_; }
  using Stats = ServerStats;
  ServerStats stats() const override;
  // 1 accept thread + live handler threads (grows with clients — the model's
  // structural cost, measured rather than hidden).
  std::size_t thread_count() const override;

 private:
  struct Conn;

  void AcceptLoop();
  void HandleConnection(Conn* conn);
  void ServeConnection(Conn* conn);
  // Joins and erases connections whose handlers have finished (accept-loop
  // thread only, called between accepts so a long-lived server with many
  // short connections does not accumulate dead threads).
  void ReapFinishedLocked();

  ParameterServer* store_;
  ShardServerConfig config_;
  RequestExecutor executor_;
  std::unique_ptr<TcpListener> listener_;
  std::uint16_t port_ = 0;

  // Start/Stop lifecycle. `lifecycle_mutex_` makes Stop() safe against
  // concurrent Stop()/destructor calls (the join-while-accepting audit:
  // Stop() must join the accept thread *before* touching conns_, so the
  // accept loop can never register a handler that Stop() has already missed,
  // and only one stopper may run the join sequence at all).
  mutable std::mutex lifecycle_mutex_;
  std::thread accept_thread_;
  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Conn>> conns_;  // guarded by conns_mutex_
  std::atomic<bool> stopping_{false};
  bool started_ = false;  // guarded by lifecycle_mutex_

  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::size_t> live_handlers_{0};

  obs::Counter* accepts_counter_ = nullptr;
  obs::Counter* reaped_counter_ = nullptr;
  obs::Gauge* handlers_gauge_ = nullptr;
};

}  // namespace specsync::net
