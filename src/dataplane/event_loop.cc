#include "dataplane/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "dataplane/block_format.h"
#include "net/wire.h"

namespace opmr::dataplane {

namespace {

using net::Endpoint;
using net::Frame;
using net::FrameType;
using net::NowNanos;
using net::TransportError;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// epoll user-data tags for the two non-connection descriptors.
int kWakeTag;
int kListenTag;

constexpr int kMaxIov = 8;          // gather width per writev
constexpr std::size_t kMaxSendfileChunk = 1u << 20;

// A partially-filled client block is sealed after this long without
// reaching the writer's size/count trigger (latency bound on coalescing).
constexpr int kFlushIntervalMs = 2;
// Client Send() blocks while this many bytes are queued to one connection
// (the event-loop analog of blocking-socket back-pressure).
constexpr std::size_t kMaxOutboundBytes = 64u << 20;

}  // namespace

// --- Connection --------------------------------------------------------------

class ElConn final : public net::Connection {
 public:
  enum class Role { kClient, kServer };

  // One queued wire unit: `bytes` (frame header + any in-memory payload)
  // written first, then — for sendfile frames — `file_len` bytes of
  // `file_fd` starting at `file_off`.
  struct Outbound {
    std::string bytes;
    std::size_t off = 0;  // written prefix of `bytes` (only the front entry)
    int file_fd = -1;
    off_t file_off = 0;
    std::uint64_t file_len = 0;
  };

  ElConn(EventLoopTransport* owner, Role role, net::FrameHandler handler,
         Endpoint endpoint)
      : owner_(owner),
        role_(role),
        handler_(std::move(handler)),
        endpoint_(std::move(endpoint)),
        writer_(EncodingWriter::Options{.compress = owner->compress_blocks_}) {}

  ~ElConn() override {
    std::scoped_lock ql(q_mu_);
    ClearOutboundLocked();
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void Send(const Frame& frame) override {
    if (role_ == Role::kServer) {
      SendServer(frame);
      return;
    }
    std::scoped_lock order(send_mu_);
    if (user_closed_) throw TransportError("dataplane: connection closed");
    owner_->SendWithRetry(
        ++send_seq_,
        [&] {
          std::unique_lock ql(q_mu_);
          if (broken_ || fd_ < 0) return false;
          EnqueueFrameLocked(frame);
          owner_->net_.frames_sent->Increment();
          owner_->WakeLoop();
          WaitBelowCapLocked(ql);
          return !broken_;
        },
        [this] { ReconnectLocked(); });
  }

  bool SendFileFrame(FrameType type, const std::string& payload_prefix,
                     const std::string& path, std::uint64_t offset,
                     std::uint64_t length) override {
    if (role_ != Role::kClient) return false;
    if (payload_prefix.size() + length > net::kMaxFramePayload) return false;

    // Stream the file once to CRC it (the frame checksum covers the whole
    // payload); the win over an in-memory frame is that the socket copy is
    // kernel-side via sendfile(2), and nothing is buffered per frame.
    const int base_fd = ::open(path.c_str(), O_RDONLY);
    if (base_fd < 0) return false;
    // Each transmission queues its own dup of base_fd, so base_fd itself
    // is released on every way out.
    struct CloseOnExit {
      int fd;
      ~CloseOnExit() { ::close(fd); }
    } base_guard{base_fd};
    std::uint32_t crc = 0;
    {
      const char covered[4] = {static_cast<char>(type), 0, 0, 0};
      std::uint32_t acc = Crc32cUpdate(kCrc32cInit, covered, sizeof(covered));
      acc = Crc32cUpdate(acc, payload_prefix.data(), payload_prefix.size());
      char buf[1 << 16];
      std::uint64_t left = length;
      off_t pos = static_cast<off_t>(offset);
      while (left > 0) {
        const std::size_t want =
            left < sizeof(buf) ? static_cast<std::size_t>(left) : sizeof(buf);
        const ssize_t n = ::pread(base_fd, buf, want, pos);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          return false;  // vanished or truncated: caller falls back
        }
        acc = Crc32cUpdate(acc, buf, static_cast<std::size_t>(n));
        left -= static_cast<std::uint64_t>(n);
        pos += n;
      }
      crc = Crc32cFinal(acc);
    }
    std::string head;
    head.reserve(net::kFrameHeaderBytes + payload_prefix.size());
    AppendU32(head, net::kFrameMagic);
    head.push_back(static_cast<char>(type));
    head.push_back(0);
    head.push_back(0);
    head.push_back(0);
    AppendU32(head,
              static_cast<std::uint32_t>(payload_prefix.size() + length));
    AppendU32(head, crc);
    head.append(payload_prefix);

    std::scoped_lock order(send_mu_);
    if (user_closed_) throw TransportError("dataplane: connection closed");
    bool out_of_fds = false;
    owner_->SendWithRetry(
        ++send_seq_,
        [&] {
          std::unique_lock ql(q_mu_);
          if (broken_ || fd_ < 0) return false;
          const int dup_fd = ::fcntl(base_fd, F_DUPFD_CLOEXEC, 0);
          if (dup_fd < 0) {
            out_of_fds = true;
            return true;  // stop: the caller falls back to an in-memory frame
          }
          FlushPendingLocked();  // keep frame order across the block seam
          Outbound entry;
          entry.bytes = head;
          entry.file_fd = dup_fd;
          entry.file_off = static_cast<off_t>(offset);
          entry.file_len = length;
          outbound_bytes_ += entry.bytes.size() + entry.file_len;
          outbound_.push_back(std::move(entry));
          owner_->net_.frames_sent->Increment();
          owner_->sendfile_frames_->Increment();
          owner_->sendfile_bytes_->Add(static_cast<std::int64_t>(length));
          owner_->WakeLoop();
          WaitBelowCapLocked(ql);
          return !broken_;
        },
        [this] { ReconnectLocked(); });
    return !out_of_fds;
  }

  void Close() override {
    if (role_ == Role::kServer) {
      CloseServer();
      return;
    }
    std::scoped_lock order(send_mu_);
    std::unique_lock ql(q_mu_);
    if (user_closed_) return;
    user_closed_ = true;
    if (fd_ < 0) return;  // already dead (broken); nothing to flush
    FlushPendingLocked();
    closing_ = true;
    owner_->WakeLoop();
    // The loop drains the queue, half-closes (FIN), keeps reading until the
    // peer closes its end, then releases the fd — the same teardown order
    // as the TCP client, which joins its reader here.
    cv_.wait(ql, [this] { return fd_ < 0; });
  }

 private:
  friend class EventLoopTransport;

  void SendServer(const Frame& frame) {
    std::string bytes = net::EncodeFrame(frame);
    {
      std::scoped_lock ql(q_mu_);
      if (fd_ < 0 || closing_ || broken_ || draining_) {
        throw TransportError("dataplane: peer connection lost");
      }
      outbound_bytes_ += bytes.size();
      Outbound entry;
      entry.bytes = std::move(bytes);
      outbound_.push_back(std::move(entry));
      owner_->net_.frames_sent->Increment();
    }
    owner_->WakeLoop();
  }

  void CloseServer() {
    bool on_loop = owner_->OnLoopThread();
    std::scoped_lock ql(q_mu_);
    closing_ = true;
    if (on_loop) {
      // A frame handler is killing its own connection (injected peer
      // crash).  Close the fd NOW so the peer's next write turns into an
      // RST instead of being silently ACKed into a half-open socket; the
      // loop notices fd_ < 0 and stops dispatching this read batch.
      CloseFdLocked();
      ClearOutboundLocked();
    } else {
      owner_->WakeLoop();  // loop performs the close
    }
  }

  // Requires q_mu_ (client role).  Appends a frame to the pending block or
  // the outbound queue, preserving order across the block seam.
  void EnqueueFrameLocked(const Frame& frame) {
    if (IsBlockableType(frame.type)) {
      writer_.Add(frame);
      if (writer_.ShouldFlush()) FlushPendingLocked();
      return;  // else: the loop's flush timer seals it
    }
    FlushPendingLocked();
    Outbound entry;
    entry.bytes = net::EncodeFrame(frame);
    outbound_bytes_ += entry.bytes.size();
    outbound_.push_back(std::move(entry));
  }

  // Requires q_mu_.  Seals the pending block (if any) into the queue.
  void FlushPendingLocked() {
    if (writer_.empty()) return;
    net::BlockMsg block = writer_.Flush();
    owner_->blocks_sent_->Increment();
    if (block.codec == net::kBlockCodecOz) {
      owner_->blocks_compressed_->Increment();
    }
    Outbound entry;
    entry.bytes = net::EncodeFrame(block.ToFrame());
    outbound_bytes_ += entry.bytes.size();
    outbound_.push_back(std::move(entry));
  }

  // Requires q_mu_ (as `ql`).  Back-pressure: blocks the sender while the
  // queue is over the cap.  The loop never takes send_mu_, so it can always
  // drain us out of this wait.
  void WaitBelowCapLocked(std::unique_lock<std::mutex>& ql) {
    cv_.wait(ql, [this] {
      return broken_ || outbound_bytes_ <= kMaxOutboundBytes;
    });
  }

  // Requires q_mu_.  Loop-side (or same-thread) fd release.
  void CloseFdLocked() {
    if (fd_ >= 0) {
      owner_->DeregisterFd(fd_, registered_);
      ::close(fd_);
      fd_ = -1;
    }
    registered_ = false;
    register_requested_ = false;
    cv_.notify_all();
  }

  void ClearOutboundLocked() {
    for (Outbound& entry : outbound_) {
      if (entry.file_fd >= 0) ::close(entry.file_fd);
    }
    outbound_.clear();
    outbound_bytes_ = 0;
    writer_.Abandon();
  }

  // Requires send_mu_ (never q_mu_).  Tears the current socket down via the
  // loop, redials BLOCKING, replays the preamble + unacked window on the
  // fresh socket, and hands it back to the loop.
  void ReconnectLocked() {
    const std::int64_t t0 = NowNanos();
    {
      std::unique_lock ql(q_mu_);
      if (fd_ >= 0) {
        teardown_requested_ = true;
        owner_->WakeLoop();
        cv_.wait(ql, [this] { return fd_ < 0; });
      }
      teardown_requested_ = false;
      broken_ = false;
      ClearOutboundLocked();  // the replay window re-covers everything queued
    }
    const int fd = owner_->Dial(endpoint_);
    try {
      owner_->Handshake(fd);
    } catch (const TransportError&) {
      ::close(fd);
      throw;
    }
    SetNonBlocking(fd);
    {
      std::scoped_lock ql(q_mu_);
      fd_ = fd;
      register_requested_ = true;
    }
    owner_->WakeLoop();
    owner_->net_.stall_nanos->Add(NowNanos() - t0);
  }

  EventLoopTransport* owner_;
  const Role role_;
  net::FrameHandler handler_;  // on_reply (client) or server dispatch
  Endpoint endpoint_;          // client redial target

  // Caller-side ordering lock (client): Send/SendFileFrame/Close/reconnect.
  // The loop NEVER takes it.
  std::mutex send_mu_;
  std::uint64_t send_seq_ = 0;   // guarded by send_mu_
  bool user_closed_ = false;     // guarded by send_mu_ (+ q_mu_ for readers)

  // Queue lock: everything below.  Short holds only; cv_ is its condition.
  std::mutex q_mu_;
  std::condition_variable cv_;
  int fd_ = -1;
  bool registered_ = false;          // loop has the fd in epoll
  bool register_requested_ = false;  // fresh fd waiting for the loop
  bool teardown_requested_ = false;  // sender waits for fd_ < 0
  bool closing_ = false;             // drain, FIN, read to EOF, release
  bool half_closed_ = false;         // FIN sent
  bool broken_ = false;              // fatal error; next Send reconnects
  bool draining_ = false;            // server role: peer EOF, flush then close
  std::deque<Outbound> outbound_;
  std::size_t outbound_bytes_ = 0;
  EncodingWriter writer_;  // client role pending block

  // Loop-only state (no lock: only the loop thread touches it).
  net::FrameDecoder decoder_;
  bool armed_out_ = false;
};

// --- EventLoopTransport ------------------------------------------------------

EventLoopTransport::EventLoopTransport(MetricRegistry* metrics,
                                       Options options)
    : EventLoopTransport(metrics, std::string(), std::move(options)) {}

EventLoopTransport::EventLoopTransport(MetricRegistry* metrics,
                                       std::string endpoint, Options options)
    : SocketTransport(metrics, std::move(endpoint), options, "dataplane"),
      compress_blocks_(options.compress_blocks),
      blocks_sent_(metrics->Get(kBlocksSent)),
      blocks_received_(metrics->Get(kBlocksReceived)),
      blocks_compressed_(metrics->Get(kBlocksCompressed)),
      block_acks_(metrics->Get(kBlockAcks)),
      sendfile_frames_(metrics->Get(kSendfileFrames)),
      sendfile_bytes_(metrics->Get(kSendfileBytes)) {}

EventLoopTransport::~EventLoopTransport() { Shutdown(); }

void EventLoopTransport::Listen(net::FrameHandler handler) {
  BindForListen(std::move(handler));
  {
    std::scoped_lock lock(mu_);
    SetNonBlocking(listen_fd_);  // the loop accepts until EAGAIN
    EnsureLoopStartedLocked();
  }
  WakeLoop();  // the loop registers the listen fd on this wakeup
}

std::shared_ptr<net::Connection> EventLoopTransport::Connect(
    net::FrameHandler on_reply) {
  const Endpoint ep = DialTarget();
  const int fd = Dial(ep);
  SetNonBlocking(fd);
  auto conn = std::make_shared<ElConn>(this, ElConn::Role::kClient,
                                       std::move(on_reply), ep);
  {
    std::scoped_lock ql(conn->q_mu_);
    conn->fd_ = fd;
    conn->register_requested_ = true;
  }
  {
    std::scoped_lock lock(mu_);
    // Shutdown() raced the dial: refuse the connection (~ElConn closes fd).
    if (shutdown_) Fail("transport is shut down");
    conns_.push_back(conn);
    EnsureLoopStartedLocked();
  }
  WakeLoop();
  return conn;
}

void EventLoopTransport::Shutdown() {
  std::vector<std::shared_ptr<ElConn>> conns;
  {
    std::scoped_lock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    conns = conns_;
  }
  // Graceful client teardown first — it needs the loop alive to flush.
  for (auto& conn : conns) {
    if (conn->role_ == ElConn::Role::kClient) conn->Close();
  }
  stop_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  // The loop is gone: release whatever it still owned.  Detach the conn
  // list under mu_, then tear each conn down with only its q_mu_ held —
  // q_mu_ is never taken while holding mu_ (the sanctioned order is
  // q_mu_ -> mu_, via WakeLoop under a held queue lock).
  std::vector<std::shared_ptr<ElConn>> owned;
  {
    std::scoped_lock lock(mu_);
    owned.swap(conns_);
  }
  for (auto& conn : owned) {
    std::scoped_lock ql(conn->q_mu_);
    conn->ClearOutboundLocked();
    if (conn->fd_ >= 0) {
      ::close(conn->fd_);
      conn->fd_ = -1;
    }
    conn->registered_ = false;
    conn->broken_ = true;
    conn->cv_.notify_all();
  }
  {
    std::scoped_lock lock(mu_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
      epoll_fd_ = -1;
    }
    if (wake_fd_ >= 0) {
      ::close(wake_fd_);
      wake_fd_ = -1;
    }
  }
}

bool EventLoopTransport::OnLoopThread() const {
  return std::this_thread::get_id() == loop_tid_.load(std::memory_order_acquire);
}

void EventLoopTransport::DeregisterFd(int fd, bool registered) {
  if (registered && epoll_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

void EventLoopTransport::EnsureLoopStartedLocked() {
  if (loop_.joinable()) return;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    throw TransportError("dataplane: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  loop_ = std::thread([this] { LoopMain(); });
}

void EventLoopTransport::WakeLoop() {
  int fd = -1;
  {
    std::scoped_lock lock(mu_);
    fd = wake_fd_;
  }
  if (fd < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

void EventLoopTransport::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (or the listener died)
    }
    ConfigureSocket(fd);
    net::FrameHandler handler;
    bool dead = false;
    {
      std::scoped_lock lock(mu_);
      handler = handler_;
      dead = shutdown_;
    }
    if (dead || !handler) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<ElConn>(this, ElConn::Role::kServer,
                                         std::move(handler), Endpoint{});
    conn->fd_ = fd;
    conn->registered_ = true;
    {
      std::scoped_lock lock(mu_);
      conns_.push_back(conn);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

bool EventLoopTransport::DispatchDecoded(ElConn* conn) {
  Frame frame;
  net::DecodeStatus status;
  while ((status = conn->decoder_.Next(&frame)) == net::DecodeStatus::kOk) {
    {
      std::scoped_lock ql(conn->q_mu_);
      if (conn->fd_ < 0) return true;  // a handler closed us mid-batch
    }
    if (frame.type == FrameType::kBlock) {
      std::vector<Frame> inner;
      std::uint64_t block_seq = 0;
      try {
        const net::BlockMsg block = net::BlockMsg::Parse(frame);
        block_seq = block.block_seq;
        inner = UnpackBlock(block);
      } catch (const net::WireError&) {
        return false;  // corrupt block: kill the connection, peer replays
      }
      blocks_received_->Increment();
      for (Frame& f : inner) {
        {
          std::scoped_lock ql(conn->q_mu_);
          if (conn->fd_ < 0) return true;
        }
        net_.frames_received->Increment();
        conn->handler_(conn, std::move(f));
      }
      if (conn->role_ == ElConn::Role::kServer) {
        // Server-role Send only enqueues (never takes send_mu_), so it is
        // safe from the loop thread.  Client connections never ack blocks.
        net::BlockAckMsg ack;
        ack.upto_block = block_seq;
        ack.frames = static_cast<std::uint64_t>(inner.size());
        try {
          conn->Send(ack.ToFrame());
        } catch (const net::TransportError&) {
          // Connection died under the handler; the ack is observability-only.
        }
      }
    } else if (frame.type == FrameType::kBlockAck) {
      try {
        (void)net::BlockAckMsg::Parse(frame);
      } catch (const net::WireError&) {
        return false;
      }
      block_acks_->Increment();  // consumed by the transport, not forwarded
    } else {
      net_.frames_received->Increment();
      conn->handler_(conn, std::move(frame));
    }
  }
  return status == net::DecodeStatus::kNeedMore;
}

void EventLoopTransport::ReadReady(ElConn* conn) {
  char buf[1 << 16];
  for (;;) {
    int fd = -1;
    {
      std::scoped_lock ql(conn->q_mu_);
      if (conn->fd_ < 0 || !conn->registered_ || conn->draining_) return;
      fd = conn->fd_;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      FailConn(conn);
      return;
    }
    if (n == 0) {
      HandleEof(conn);
      return;
    }
    net_.recv_syscalls->Increment();
    net_.bytes_received->Add(n);
    conn->decoder_.Feed(buf, static_cast<std::size_t>(n));
    if (!DispatchDecoded(conn)) {
      // Framing invariant broken: drop the connection (a client will
      // reconnect and replay; a server-side peer redials us).
      FailConn(conn);
      return;
    }
  }
}

void EventLoopTransport::HandleEof(ElConn* conn) {
  std::scoped_lock ql(conn->q_mu_);
  if (conn->role_ == ElConn::Role::kClient) {
    if (conn->half_closed_) {
      conn->CloseFdLocked();  // clean: our FIN was answered
    } else {
      conn->broken_ = true;  // server vanished; next Send reconnects
      conn->CloseFdLocked();
      conn->ClearOutboundLocked();
    }
    return;
  }
  // Server role: the peer half-closed.  Flush queued replies (final acks
  // must still reach the half-closed client), then release.
  conn->draining_ = true;
  if (conn->outbound_.empty()) {
    conn->CloseFdLocked();
  } else if (conn->fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLOUT;  // EOF would re-fire EPOLLIN forever
    ev.data.ptr = conn;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd_, &ev);
    conn->armed_out_ = true;
  }
}

void EventLoopTransport::FailConn(ElConn* conn) {
  std::scoped_lock ql(conn->q_mu_);
  conn->broken_ = true;
  conn->CloseFdLocked();
  conn->ClearOutboundLocked();
}

// Requires conn->q_mu_ (held by ServiceConn).  Returns false on fatal error.
bool EventLoopTransport::TryWriteLocked(ElConn* conn) {
  while (!conn->outbound_.empty()) {
    auto& q = conn->outbound_;
    ElConn::Outbound& front = q.front();
    const bool front_bytes_done = front.off >= front.bytes.size();
    if (front_bytes_done && front.file_fd >= 0) {
      // sendfile the file region of the front entry.
      const std::size_t want = front.file_len < kMaxSendfileChunk
                                   ? static_cast<std::size_t>(front.file_len)
                                   : kMaxSendfileChunk;
      const ssize_t w = ::sendfile(conn->fd_, front.file_fd, &front.file_off,
                                   want);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;
      }
      if (w == 0) return false;  // file truncated under us
      net_.send_syscalls->Increment();
      net_.bytes_sent->Add(w);
      front.file_len -= static_cast<std::uint64_t>(w);
      conn->outbound_bytes_ -= static_cast<std::size_t>(w);
      if (front.file_len == 0) {
        ::close(front.file_fd);
        q.pop_front();
      }
      continue;
    }
    // Gather byte spans from the queue head; stop after the first entry
    // that carries a file region (its file bytes must go out next).
    iovec iov[kMaxIov];
    int iovn = 0;
    for (auto it = q.begin(); it != q.end() && iovn < kMaxIov; ++it) {
      const std::size_t off = (it == q.begin()) ? it->off : 0;
      if (it->bytes.size() > off) {
        iov[iovn].iov_base = const_cast<char*>(it->bytes.data() + off);
        iov[iovn].iov_len = it->bytes.size() - off;
        ++iovn;
      }
      if (it->file_fd >= 0) break;
    }
    const ssize_t w = ::writev(conn->fd_, iov, iovn);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    net_.send_syscalls->Increment();
    net_.bytes_sent->Add(w);
    std::size_t left = static_cast<std::size_t>(w);
    conn->outbound_bytes_ -= left;
    while (left > 0) {
      ElConn::Outbound& f = q.front();
      const std::size_t avail = f.bytes.size() - f.off;
      const std::size_t take = avail < left ? avail : left;
      f.off += take;
      left -= take;
      if (f.off >= f.bytes.size()) {
        if (f.file_fd >= 0) break;  // its file region is next
        q.pop_front();
      } else {
        break;  // partial write
      }
    }
  }
  return true;
}

void EventLoopTransport::ServiceConn(ElConn* conn, bool timer_tick) {
  std::scoped_lock ql(conn->q_mu_);
  if (conn->teardown_requested_) {
    conn->CloseFdLocked();
    conn->ClearOutboundLocked();
    return;
  }
  if (conn->register_requested_ && conn->fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd_, &ev);
    conn->registered_ = true;
    conn->register_requested_ = false;
    conn->armed_out_ = false;
    conn->decoder_ = net::FrameDecoder();  // fresh stream, fresh framing
    conn->cv_.notify_all();
  }
  if (conn->fd_ < 0 || !conn->registered_) return;
  if (conn->role_ == ElConn::Role::kServer && conn->closing_ &&
      !conn->draining_) {
    // External Close on a server connection: hard stop.
    conn->CloseFdLocked();
    conn->ClearOutboundLocked();
    return;
  }
  if (timer_tick && !conn->writer_.empty()) {
    conn->FlushPendingLocked();  // latency bound on a stale partial block
  }
  if (!conn->outbound_.empty()) {
    if (!TryWriteLocked(conn)) {
      conn->broken_ = true;
      conn->CloseFdLocked();
      conn->ClearOutboundLocked();
      return;
    }
    conn->cv_.notify_all();  // back-pressure waiters
  }
  const bool want_out = !conn->outbound_.empty();
  if (want_out != conn->armed_out_) {
    epoll_event ev{};
    ev.events = (conn->draining_ ? 0u : EPOLLIN) | (want_out ? EPOLLOUT : 0u);
    ev.data.ptr = conn;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd_, &ev);
    conn->armed_out_ = want_out;
  }
  if (conn->draining_ && conn->outbound_.empty()) {
    conn->CloseFdLocked();  // final acks flushed; we answer the FIN
    return;
  }
  if (conn->closing_ && conn->outbound_.empty() && conn->writer_.empty() &&
      !conn->half_closed_) {
    ::shutdown(conn->fd_, SHUT_WR);  // FIN; keep reading until peer closes
    conn->half_closed_ = true;
  }
}

void EventLoopTransport::LoopMain() {
  loop_tid_.store(std::this_thread::get_id(), std::memory_order_release);
  bool listen_registered = false;
  std::vector<std::shared_ptr<ElConn>> snapshot;  // conns of the last pass
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    int epfd = -1;
    {
      std::scoped_lock lock(mu_);
      epfd = epoll_fd_;
      if (!listen_registered && listen_fd_ >= 0 && handler_) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.ptr = &kListenTag;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
        listen_registered = true;
      }
    }
    // A pending partial block bounds how long we may sleep.
    int timeout_ms = -1;
    for (const auto& conn : snapshot) {
      std::scoped_lock ql(conn->q_mu_);
      if (!conn->writer_.empty()) {
        timeout_ms = kFlushIntervalMs;
        break;
      }
    }
    const int n = ::epoll_wait(epfd, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    const bool timer_tick = (n == 0);
    for (int i = 0; i < (n > 0 ? n : 0); ++i) {
      void* ptr = events[i].data.ptr;
      if (ptr == &kWakeTag) {
        std::uint64_t drain = 0;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
      } else if (ptr == &kListenTag) {
        AcceptReady();
      } else if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        ReadReady(static_cast<ElConn*>(ptr));
      }
    }
    // Snapshot only after the wake fd is drained: a connection added while
    // we slept announced itself with a wakeup this pass consumed, so this
    // pass must service it.  A snapshot taken before epoll_wait missed it
    // and left its registration and queued bytes waiting for an event that
    // never came (a lost wakeup; Close() then waited forever).
    {
      std::scoped_lock lock(mu_);
      snapshot = conns_;
    }
    for (const auto& conn : snapshot) {
      ServiceConn(conn.get(), timer_tick);
    }
  }
}

}  // namespace opmr::dataplane
