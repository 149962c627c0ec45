#include "net/event_loop_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace specsync::net {

namespace {
// Per-recv chunk. Frames larger than this reassemble across reads; the
// fuzz suite drives exactly that path.
constexpr std::size_t kRecvChunk = 64 * 1024;
}  // namespace

struct EventLoopServer::Conn {
  TcpConnection connection;
  // Reassembly buffer: bytes received but not yet peeled into frames.
  // Loop thread only.
  std::vector<std::uint8_t> in;
  // Encoded response frames waiting to go out, and how much of the front
  // frame already left. A pool thread writes its response straight to the
  // socket when this queue is empty and appends only what did not fit; the
  // loop thread flushes the queue. queued_ns stamps when the frame was
  // produced so the flush side can record the full queue → wire residency
  // ("net.eloop.out_queue_s"; near zero for a direct write).
  struct OutFrame {
    std::vector<std::uint8_t> bytes;
    std::uint64_t queued_ns = 0;
  };
  std::mutex out_mutex;
  std::deque<OutFrame> out;    // guarded by out_mutex
  std::size_t out_offset = 0;  // guarded by out_mutex
  bool want_write = false;  // EPOLLOUT registered; loop thread only
  // Set when the loop drops the connection; in-flight pool tasks still hold
  // shared_ptrs and may queue responses, which are simply never flushed.
  std::atomic<bool> dead{false};
};

EventLoopServer::EventLoopServer(ParameterServer* store,
                                 ShardServerConfig config,
                                 obs::MetricsRegistry* metrics,
                                 obs::SpanRecorder* spans)
    : store_(store),
      config_(std::move(config)),
      executor_(store, config_.served_shards, metrics, config_.service_delay,
                spans, config_.trace_track_base) {
  if (metrics != nullptr) {
    epoll_wait_hist_ = &metrics->histogram("net.eloop.epoll_wait_s");
    dispatch_hist_ = &metrics->histogram("net.eloop.dispatch_s");
    pool_wait_hist_ = &metrics->histogram("net.eloop.pool_wait_s");
    out_queue_hist_ = &metrics->histogram("net.eloop.out_queue_s");
    reassembly_gauge_ = &metrics->gauge("net.eloop.reassembly_bytes");
    out_bytes_gauge_ = &metrics->gauge("net.eloop.out_queue_bytes");
    conns_gauge_ = &metrics->gauge("net.eloop.conns");
    accepts_counter_ = &metrics->counter("net.eloop.accepts");
    drops_counter_ = &metrics->counter("net.eloop.drops");
  }
}

EventLoopServer::~EventLoopServer() { Stop(); }

bool EventLoopServer::Start() {
  std::scoped_lock lock(lifecycle_mutex_);
  SPECSYNC_CHECK(!started_);
  listener_ = TcpListener::Bind(config_.bind);
  if (listener_ == nullptr || !listener_->SetNonBlocking()) {
    SPECSYNC_LOG(kWarning) << "EventLoopServer: cannot bind "
                          << ToString(config_.bind);
    listener_.reset();
    return false;
  }
  port_ = listener_->port();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_->listen_fd();
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_->listen_fd(), &ev) != 0) {
    Cleanup();
    return false;
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    Cleanup();
    return false;
  }
  stopping_.store(false, std::memory_order_release);
  pool_ = std::make_unique<ThreadPool>(
      std::max<std::size_t>(1, config_.pool_threads));
  loop_thread_ = std::thread([this] { Loop(); });
  started_ = true;
  return true;
}

void EventLoopServer::Stop() {
  std::scoped_lock lock(lifecycle_mutex_);
  if (!started_) return;
  // Strict order (documented in the header): stop flag → wake → join loop →
  // drain pool → release descriptors. The eventfd must outlive the pool so
  // in-flight tasks' wake writes hit a live descriptor.
  stopping_.store(true, std::memory_order_release);
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  pool_.reset();
  conns_.clear();
  {
    std::scoped_lock dirty_lock(dirty_mutex_);
    dirty_.clear();
  }
  // The byte gauges track live per-conn buffers; with every connection gone
  // they must read zero rather than whatever the last drop left behind.
  if (conns_gauge_ != nullptr) conns_gauge_->Set(0.0);
  if (reassembly_gauge_ != nullptr) reassembly_gauge_->Set(0.0);
  if (out_bytes_gauge_ != nullptr) out_bytes_gauge_->Set(0.0);
  Cleanup();
  started_ = false;
}

void EventLoopServer::Cleanup() {
  listener_.reset();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = -1;
  wake_fd_ = -1;
}

void EventLoopServer::Wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoopServer::Loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Time blocked in epoll (loop idleness) and time spent on the batch
    // (loop busyness) are the two halves of the loop's duty cycle; their
    // histograms together show whether the loop or the pool is the
    // bottleneck at fan-in scale.
    const std::uint64_t wait_begin_ns =
        epoll_wait_hist_ != nullptr ? obs::WallNanos() : 0;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (epoll_wait_hist_ != nullptr) {
      epoll_wait_hist_->Record((obs::WallNanos() - wait_begin_ns) * 1e-9);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    const std::uint64_t dispatch_begin_ns =
        dispatch_hist_ != nullptr ? obs::WallNanos() : 0;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        DrainDirty();
        continue;
      }
      if (listener_ != nullptr && fd == listener_->listen_fd()) {
        AcceptNew();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // dropped earlier in this batch
      const std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & EPOLLIN) != 0 && !ReadAndDispatch(conn)) {
        DropConn(fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !FlushOut(conn)) {
        DropConn(fd);
        continue;
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & (EPOLLIN | EPOLLOUT)) == 0) {
        DropConn(fd);
      }
    }
    if (dispatch_hist_ != nullptr) {
      dispatch_hist_->Record((obs::WallNanos() - dispatch_begin_ns) * 1e-9);
    }
  }
}

void EventLoopServer::AcceptNew() {
  for (;;) {
    TcpConnection client = listener_->TryAccept();
    if (!client.valid()) return;
    if (!client.SetNonBlocking()) continue;
    auto conn = std::make_shared<Conn>();
    conn->connection = std::move(client);
    const int fd = conn->connection.fd();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) continue;
    conns_.emplace(fd, std::move(conn));
    if (accepts_counter_ != nullptr) accepts_counter_->Increment();
    if (conns_gauge_ != nullptr) conns_gauge_->Add(1.0);
  }
}

bool EventLoopServer::ReadAndDispatch(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    std::size_t got = 0;
    const auto status = conn->connection.RecvSome(conn->in, kRecvChunk, got);
    if (reassembly_gauge_ != nullptr && got > 0) {
      reassembly_gauge_->Add(static_cast<double>(got));
    }
    if (status == TcpConnection::IoStatus::kWouldBlock) return true;
    if (status != TcpConnection::IoStatus::kOk) return false;  // EOF or error

    // Peel every complete frame out of the reassembly buffer. The header is
    // validated here on the loop thread — before its payload_bytes can grow
    // the buffer — so a corrupt length field can never demand a huge read.
    std::size_t consumed = 0;
    const std::span<const std::uint8_t> buf(conn->in);
    for (;;) {
      const std::size_t avail = conn->in.size() - consumed;
      if (avail < kHeaderBytes) break;
      FrameHeader header;
      if (DecodeHeader(buf.subspan(consumed, kHeaderBytes), header) !=
          WireStatus::kOk) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        return false;  // framing is lost; only this connection dies
      }
      const std::size_t total = kHeaderBytes + header.payload_bytes;
      if (avail < total) break;
      WireMessage request;
      TraceContext trace;
      if (DecodePayload(header,
                        buf.subspan(consumed + kHeaderBytes,
                                    header.payload_bytes),
                        request, &trace) != WireStatus::kOk) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      consumed += total;
      // submit_ns measures the submit → task-start gap on the pool side:
      // under fan-in pressure this histogram is the queueing delay a request
      // spends waiting for an execution slot.
      const std::uint64_t submit_ns =
          pool_wait_hist_ != nullptr ? obs::WallNanos() : 0;
      pool_->Submit([this, conn, id = header.request_id, trace, submit_ns,
                     request = std::move(request)]() mutable {
        if (pool_wait_hist_ != nullptr) {
          pool_wait_hist_->Record((obs::WallNanos() - submit_ns) * 1e-9);
        }
        WireMessage response = executor_.Execute(request, &trace);
        QueueResponse(conn, EncodeFrame(response, id));
      });
    }
    if (consumed > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() + static_cast<std::ptrdiff_t>(consumed));
      if (reassembly_gauge_ != nullptr) {
        reassembly_gauge_->Add(-static_cast<double>(consumed));
      }
    }
  }
}

void EventLoopServer::QueueResponse(const std::shared_ptr<Conn>& conn,
                                    std::vector<std::uint8_t> frame) {
  {
    std::scoped_lock lock(conn->out_mutex);
    // A dead connection's queue is never flushed; dropping the frame here
    // (instead of parking it forever) keeps the out-bytes gauge honest —
    // DropConn already zeroed this conn's contribution under the same lock.
    if (conn->dead.load(std::memory_order_acquire)) return;
    const std::uint64_t queued_ns =
        out_queue_hist_ != nullptr ? obs::WallNanos() : 0;
    // Write-through: with nothing queued ahead of it, the frame goes straight
    // to the socket from this pool thread, skipping the hand-off back to the
    // loop. out_mutex serializes it against the loop's FlushOut. Only a
    // partial write, EAGAIN or an error falls back to the queue + wake path
    // below (the loop then flushes the rest, or drops the connection).
    if (conn->out.empty()) {
      std::size_t sent = 0;
      const auto status = conn->connection.SendSome(frame, sent);
      if (status == TcpConnection::IoStatus::kOk && sent == frame.size()) {
        if (out_queue_hist_ != nullptr) {
          out_queue_hist_->Record((obs::WallNanos() - queued_ns) * 1e-9);
        }
        return;
      }
      conn->out_offset = sent;
    }
    if (out_bytes_gauge_ != nullptr) {
      out_bytes_gauge_->Add(static_cast<double>(frame.size()));
    }
    Conn::OutFrame entry;
    entry.bytes = std::move(frame);
    entry.queued_ns = queued_ns;
    conn->out.push_back(std::move(entry));
  }
  {
    std::scoped_lock lock(dirty_mutex_);
    dirty_.push_back(conn);
  }
  Wake();
}

void EventLoopServer::DrainDirty() {
  std::vector<std::shared_ptr<Conn>> dirty;
  {
    std::scoped_lock lock(dirty_mutex_);
    dirty.swap(dirty_);
  }
  for (const std::shared_ptr<Conn>& conn : dirty) {
    if (conn->dead.load(std::memory_order_acquire)) continue;
    if (!FlushOut(conn)) DropConn(conn->connection.fd());
  }
}

bool EventLoopServer::FlushOut(const std::shared_ptr<Conn>& conn) {
  std::scoped_lock lock(conn->out_mutex);
  while (!conn->out.empty()) {
    const Conn::OutFrame& front = conn->out.front();
    std::size_t sent = 0;
    const auto status = conn->connection.SendSome(
        std::span(front.bytes).subspan(conn->out_offset), sent);
    if (status == TcpConnection::IoStatus::kWouldBlock) {
      // Kernel buffer full mid-frame: lean on EPOLLOUT until it drains.
      return conn->want_write || UpdateEpoll(conn.get(), true);
    }
    if (status != TcpConnection::IoStatus::kOk) return false;
    conn->out_offset += sent;
    if (conn->out_offset == front.bytes.size()) {
      if (out_queue_hist_ != nullptr && front.queued_ns != 0) {
        out_queue_hist_->Record((obs::WallNanos() - front.queued_ns) * 1e-9);
      }
      if (out_bytes_gauge_ != nullptr) {
        out_bytes_gauge_->Add(-static_cast<double>(front.bytes.size()));
      }
      conn->out.pop_front();
      conn->out_offset = 0;
    }
  }
  return !conn->want_write || UpdateEpoll(conn.get(), false);
}

bool EventLoopServer::UpdateEpoll(Conn* conn, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->connection.fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->connection.fd(), &ev) != 0) {
    return false;
  }
  conn->want_write = want_write;
  return true;
}

void EventLoopServer::DropConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const std::shared_ptr<Conn> conn = it->second;
  conn->dead.store(true, std::memory_order_release);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // Make the close visible to the peer now; the descriptor itself lives
  // until the last in-flight task releases its shared_ptr.
  conn->connection.ShutdownBoth();
  // Retire this connection's contribution to the byte gauges. Taking
  // out_mutex here serializes with QueueResponse: any append that won the
  // lock first is subtracted below; any that loses sees `dead` and drops
  // its frame without counting it.
  if (reassembly_gauge_ != nullptr && !conn->in.empty()) {
    reassembly_gauge_->Add(-static_cast<double>(conn->in.size()));
  }
  if (out_bytes_gauge_ != nullptr) {
    std::scoped_lock lock(conn->out_mutex);
    std::size_t queued = 0;
    for (const Conn::OutFrame& frame : conn->out) queued += frame.bytes.size();
    if (queued > 0) out_bytes_gauge_->Add(-static_cast<double>(queued));
    conn->out.clear();
    conn->out_offset = 0;
  }
  if (drops_counter_ != nullptr) drops_counter_->Increment();
  if (conns_gauge_ != nullptr) conns_gauge_->Add(-1.0);
  conns_.erase(it);
}

ServerStats EventLoopServer::stats() const {
  ServerStats out = executor_.stats();
  out.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  return out;
}

std::size_t EventLoopServer::thread_count() const {
  std::scoped_lock lock(lifecycle_mutex_);
  if (!started_) return 0;
  return 1 + pool_->num_threads();
}

}  // namespace specsync::net
