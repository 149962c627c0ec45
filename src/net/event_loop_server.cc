#include "net/event_loop_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
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
  std::vector<std::uint8_t> in;
  // Encoded response frames not yet fully sent, and how much of the front
  // frame already left. queued_ns stamps when the frame was produced so the
  // flush can record its queue → wire residency ("net.eloop.out_queue_s";
  // near zero when the socket takes the frame at once).
  struct OutFrame {
    std::vector<std::uint8_t> bytes;
    std::uint64_t queued_ns = 0;
  };
  std::deque<OutFrame> out;
  std::size_t out_offset = 0;
  bool want_write = false;  // EPOLLOUT registered
};

EventLoopServer::EventLoopServer(ParameterServer* store,
                                 ShardServerConfig config,
                                 obs::MetricsRegistry* metrics,
                                 obs::SpanRecorder* spans)
    : config_(std::move(config)),
      executor_(store, config_.served_shards, metrics, config_.service_delay,
                spans, config_.trace_track_base) {
  if (metrics != nullptr) {
    epoll_wait_hist_ = &metrics->histogram("net.eloop.epoll_wait_s");
    dispatch_hist_ = &metrics->histogram("net.eloop.dispatch_s");
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
  loop_thread_ = std::thread([this] { Loop(); });
  started_ = true;
  return true;
}

void EventLoopServer::Stop() {
  std::scoped_lock lock(lifecycle_mutex_);
  if (!started_) return;
  // Stop flag → wake → join the loop → drop connections and descriptors.
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (loop_thread_.joinable()) loop_thread_.join();
  conns_.clear();
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

void EventLoopServer::Loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Time blocked in epoll (loop idleness) and time spent on the batch —
    // reading, executing and writing (loop busyness) — are the two halves
    // of the loop's duty cycle.
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
      if (fd == wake_fd_) continue;  // Stop(): the loop condition exits
      if (listener_ != nullptr && fd == listener_->listen_fd()) {
        AcceptNew();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // dropped earlier in this batch
      Conn& conn = *it->second;
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
    auto conn = std::make_unique<Conn>();
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

bool EventLoopServer::ReadAndDispatch(Conn& conn) {
  for (;;) {
    std::size_t got = 0;
    const auto status = conn.connection.RecvSome(conn.in, kRecvChunk, got);
    if (reassembly_gauge_ != nullptr && got > 0) {
      reassembly_gauge_->Add(static_cast<double>(got));
    }
    if (status == TcpConnection::IoStatus::kWouldBlock) return true;
    if (status != TcpConnection::IoStatus::kOk) return false;  // EOF or error

    // Peel every complete frame out of the reassembly buffer. The header is
    // validated before its payload_bytes can grow the buffer, so a corrupt
    // length field can never demand a huge read. After a failed write the
    // rest of the frames already read still execute, so every copy of a
    // push the server has read runs; the connection drops after them.
    std::size_t consumed = 0;
    bool alive = true;
    const std::span<const std::uint8_t> buf(conn.in);
    for (;;) {
      const std::size_t avail = conn.in.size() - consumed;
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
      const WireMessage response = executor_.Execute(request, &trace);
      alive = alive &&
              QueueResponse(conn, EncodeFrame(response, header.request_id));
    }
    if (consumed > 0) {
      conn.in.erase(conn.in.begin(),
                    conn.in.begin() + static_cast<std::ptrdiff_t>(consumed));
      if (reassembly_gauge_ != nullptr) {
        reassembly_gauge_->Add(-static_cast<double>(consumed));
      }
    }
    if (!alive) return false;
  }
}

bool EventLoopServer::QueueResponse(Conn& conn,
                                    std::vector<std::uint8_t> frame) {
  if (out_bytes_gauge_ != nullptr) {
    out_bytes_gauge_->Add(static_cast<double>(frame.size()));
  }
  Conn::OutFrame& entry = conn.out.emplace_back();
  entry.bytes = std::move(frame);
  entry.queued_ns = out_queue_hist_ != nullptr ? obs::WallNanos() : 0;
  return FlushOut(conn);
}

bool EventLoopServer::FlushOut(Conn& conn) {
  while (!conn.out.empty()) {
    const Conn::OutFrame& front = conn.out.front();
    std::size_t sent = 0;
    const auto status = conn.connection.SendSome(
        std::span(front.bytes).subspan(conn.out_offset), sent);
    if (status == TcpConnection::IoStatus::kWouldBlock) {
      // Kernel buffer full mid-frame: lean on EPOLLOUT until it drains.
      return conn.want_write || UpdateEpoll(conn, true);
    }
    if (status != TcpConnection::IoStatus::kOk) return false;
    conn.out_offset += sent;
    if (conn.out_offset == front.bytes.size()) {
      if (out_queue_hist_ != nullptr && front.queued_ns != 0) {
        out_queue_hist_->Record((obs::WallNanos() - front.queued_ns) * 1e-9);
      }
      if (out_bytes_gauge_ != nullptr) {
        out_bytes_gauge_->Add(-static_cast<double>(front.bytes.size()));
      }
      conn.out.pop_front();
      conn.out_offset = 0;
    }
  }
  return !conn.want_write || UpdateEpoll(conn, false);
}

bool EventLoopServer::UpdateEpoll(Conn& conn, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.connection.fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.connection.fd(), &ev) != 0) {
    return false;
  }
  conn.want_write = want_write;
  return true;
}

void EventLoopServer::DropConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const Conn& conn = *it->second;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // Retire this connection's contribution to the byte gauges.
  if (reassembly_gauge_ != nullptr && !conn.in.empty()) {
    reassembly_gauge_->Add(-static_cast<double>(conn.in.size()));
  }
  if (out_bytes_gauge_ != nullptr) {
    std::size_t queued = 0;
    for (const Conn::OutFrame& frame : conn.out) queued += frame.bytes.size();
    if (queued > 0) out_bytes_gauge_->Add(-static_cast<double>(queued));
  }
  if (drops_counter_ != nullptr) drops_counter_->Increment();
  if (conns_gauge_ != nullptr) conns_gauge_->Add(-1.0);
  conns_.erase(it);  // closes the socket
}

ServerStats EventLoopServer::stats() const {
  ServerStats out = executor_.stats();
  out.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  return out;
}

std::size_t EventLoopServer::thread_count() const {
  std::scoped_lock lock(lifecycle_mutex_);
  return started_ ? 1 : 0;
}

}  // namespace specsync::net
