#include "net/event_loop_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <span>
#include <thread>
#include <unordered_map>
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
  // Reassembly buffer: its first in_bytes bytes were received but not yet
  // peeled into frames. It keeps its size across reads and grows only when
  // a read needs room past it, so recv never waits on a fill.
  std::vector<std::uint8_t> in;
  std::size_t in_bytes = 0;
  // The frame the executor answers into, reused for every answer that the
  // socket takes whole.
  std::vector<std::uint8_t> response;
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
  int epoll_fd = -1;        // the epoll set of the loop that owns it
  bool want_write = false;  // EPOLLOUT registered
};

struct EventLoopServer::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: Stop() and loop 0's hand-offs wake the loop
  // This loop's open connections, owned here, and the message each request
  // decodes into, its buffers reused from request to request.
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  WireMessage request;
  // Connections loop 0 dealt to this loop that it has not registered yet.
  std::mutex inbox_mutex;
  std::vector<TcpConnection> inbox;
  std::thread thread;
};

namespace {

bool WatchReadable(int epoll_fd, int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void Wake(int wake_fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
}

}  // namespace

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
  if (listener_ == nullptr) {
    SPECSYNC_LOG(kWarning) << "EventLoopServer: cannot bind "
                          << ToString(config_.bind);
    listener_.reset();
    return false;
  }
  port_ = listener_->port();
  const std::size_t num_loops = ThreadPool::DefaultThreadCount();
  for (std::size_t i = 0; i < num_loops; ++i) {
    Loop& loop = *loops_.emplace_back(std::make_unique<Loop>());
    loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop.wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop.epoll_fd < 0 || loop.wake_fd < 0 ||
        !WatchReadable(loop.epoll_fd, loop.wake_fd)) {
      Cleanup();
      return false;
    }
  }
  if (!WatchReadable(loops_[0]->epoll_fd, listener_->listen_fd())) {
    Cleanup();
    return false;
  }
  stopping_.store(false, std::memory_order_release);
  dealt_ = 0;
  for (const std::unique_ptr<Loop>& loop : loops_) {
    loop->thread = std::thread([this, &loop = *loop] { Run(loop); });
  }
  started_ = true;
  return true;
}

void EventLoopServer::Stop() {
  std::scoped_lock lock(lifecycle_mutex_);
  if (!started_) return;
  // Stop flag → wake → join every loop → drop connections and descriptors.
  stopping_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Loop>& loop : loops_) Wake(loop->wake_fd);
  for (const std::unique_ptr<Loop>& loop : loops_) loop->thread.join();
  Cleanup();  // drops every connection, registered or in an inbox
  // The byte gauges track live per-conn buffers; with every connection gone
  // they must read zero rather than whatever the last drop left behind.
  if (conns_gauge_ != nullptr) conns_gauge_->Set(0.0);
  if (reassembly_gauge_ != nullptr) reassembly_gauge_->Set(0.0);
  if (out_bytes_gauge_ != nullptr) out_bytes_gauge_->Set(0.0);
  started_ = false;
}

void EventLoopServer::Cleanup() {
  listener_.reset();
  for (const std::unique_ptr<Loop>& loop : loops_) {
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
  }
  loops_.clear();
}

void EventLoopServer::Run(Loop& loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Time blocked in epoll (loop idleness) and time spent on the batch —
    // reading, executing and writing (loop busyness) — are the two halves
    // of the loop's duty cycle.
    const std::uint64_t wait_begin_ns =
        epoll_wait_hist_ != nullptr ? obs::WallNanos() : 0;
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, -1);
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
      if (fd == loop.wake_fd) {
        // A hand-off or Stop(); after Stop() the loop condition exits.
        std::uint64_t count = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(loop.wake_fd, &count, sizeof(count));
        std::vector<TcpConnection> arrived;
        {
          std::scoped_lock lock(loop.inbox_mutex);
          arrived.swap(loop.inbox);
        }
        for (TcpConnection& client : arrived) Adopt(loop, std::move(client));
        continue;
      }
      if (fd == listener_->listen_fd()) {
        AcceptNew(loop);
        continue;
      }
      const auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // dropped earlier in this batch
      Conn& conn = *it->second;
      if ((events[i].events & EPOLLIN) != 0 && !ReadAndDispatch(loop, conn)) {
        DropConn(loop, fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !FlushOut(conn)) {
        DropConn(loop, fd);
        continue;
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & (EPOLLIN | EPOLLOUT)) == 0) {
        DropConn(loop, fd);
      }
    }
    if (dispatch_hist_ != nullptr) {
      dispatch_hist_->Record((obs::WallNanos() - dispatch_begin_ns) * 1e-9);
    }
  }
}

void EventLoopServer::AcceptNew(Loop& self) {
  for (;;) {
    TcpConnection client = listener_->TryAccept();
    if (!client.valid()) return;
    if (!client.SetNonBlocking()) continue;
    Loop& target = *loops_[dealt_++ % loops_.size()];
    if (&target == &self) {
      Adopt(self, std::move(client));
      continue;
    }
    {
      std::scoped_lock lock(target.inbox_mutex);
      target.inbox.push_back(std::move(client));
    }
    Wake(target.wake_fd);
  }
}

void EventLoopServer::Adopt(Loop& loop, TcpConnection connection) {
  auto conn = std::make_unique<Conn>();
  conn->connection = std::move(connection);
  conn->epoll_fd = loop.epoll_fd;
  const int fd = conn->connection.fd();
  if (!WatchReadable(loop.epoll_fd, fd)) return;
  loop.conns.emplace(fd, std::move(conn));
  if (accepts_counter_ != nullptr) accepts_counter_->Increment();
  if (conns_gauge_ != nullptr) conns_gauge_->Add(1.0);
}

bool EventLoopServer::ReadAndDispatch(Loop& loop, Conn& conn) {
  for (;;) {
    if (conn.in.size() < conn.in_bytes + kRecvChunk) {
      conn.in.resize(conn.in_bytes + kRecvChunk);
    }
    std::size_t got = 0;
    const auto status = conn.connection.RecvSome(
        std::span(conn.in).subspan(conn.in_bytes, kRecvChunk), got);
    conn.in_bytes += got;
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
    const std::span<const std::uint8_t> buf(conn.in.data(), conn.in_bytes);
    for (;;) {
      const std::size_t avail = buf.size() - consumed;
      if (avail < kHeaderBytes) break;
      FrameHeader header;
      if (DecodeHeader(buf.subspan(consumed, kHeaderBytes), header) !=
          WireStatus::kOk) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        return false;  // framing is lost; only this connection dies
      }
      const std::size_t total = kHeaderBytes + header.payload_bytes;
      if (avail < total) break;
      TraceContext trace;
      if (DecodePayload(header,
                        buf.subspan(consumed + kHeaderBytes,
                                    header.payload_bytes),
                        loop.request, &trace) != WireStatus::kOk) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      consumed += total;
      executor_.Execute(loop.request, header.request_id, &trace,
                        conn.response);
      alive = alive && SendResponse(conn);
    }
    if (consumed > 0) {
      conn.in_bytes -= consumed;
      std::memmove(conn.in.data(), conn.in.data() + consumed, conn.in_bytes);
      if (reassembly_gauge_ != nullptr) {
        reassembly_gauge_->Add(-static_cast<double>(consumed));
      }
    }
    if (!alive) return false;
  }
}

bool EventLoopServer::SendResponse(Conn& conn) {
  std::vector<std::uint8_t>& frame = conn.response;
  const std::uint64_t queued_ns =
      out_queue_hist_ != nullptr ? obs::WallNanos() : 0;
  std::size_t sent = 0;
  if (conn.out.empty()) {
    // Nothing queued ahead: the frame goes straight to the socket, and the
    // connection keeps its buffer for the next answer.
    if (conn.connection.SendSome(frame, sent) ==
        TcpConnection::IoStatus::kError) {
      return false;
    }
    if (sent == frame.size()) {
      if (out_queue_hist_ != nullptr) {
        out_queue_hist_->Record((obs::WallNanos() - queued_ns) * 1e-9);
      }
      return true;
    }
    conn.out_offset = sent;  // the new entry is the front frame
  }
  // The unsent rest waits for EPOLLOUT, and takes the buffer with it.
  if (out_bytes_gauge_ != nullptr) {
    out_bytes_gauge_->Add(static_cast<double>(frame.size()));
  }
  Conn::OutFrame& entry = conn.out.emplace_back();
  entry.bytes = std::move(frame);
  frame.clear();
  entry.queued_ns = queued_ns;
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
  if (::epoll_ctl(conn.epoll_fd, EPOLL_CTL_MOD, conn.connection.fd(), &ev) !=
      0) {
    return false;
  }
  conn.want_write = want_write;
  return true;
}

void EventLoopServer::DropConn(Loop& loop, int fd) {
  const auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return;
  const Conn& conn = *it->second;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  // Retire this connection's contribution to the byte gauges.
  if (reassembly_gauge_ != nullptr && conn.in_bytes > 0) {
    reassembly_gauge_->Add(-static_cast<double>(conn.in_bytes));
  }
  if (out_bytes_gauge_ != nullptr) {
    std::size_t queued = 0;
    for (const Conn::OutFrame& frame : conn.out) queued += frame.bytes.size();
    if (queued > 0) out_bytes_gauge_->Add(-static_cast<double>(queued));
  }
  if (drops_counter_ != nullptr) drops_counter_->Increment();
  if (conns_gauge_ != nullptr) conns_gauge_->Add(-1.0);
  loop.conns.erase(it);  // closes the socket
}

ServerStats EventLoopServer::stats() const {
  ServerStats out = executor_.stats();
  out.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  return out;
}

std::size_t EventLoopServer::thread_count() const {
  std::scoped_lock lock(lifecycle_mutex_);
  return started_ ? loops_.size() : 0;
}

}  // namespace specsync::net
