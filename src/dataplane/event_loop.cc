#include "dataplane/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "dataplane/block_format.h"
#include "net/wire.h"

namespace opmr::dataplane {

namespace {

using net::Frame;
using net::FrameType;
using net::TransportError;

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetSockBuf(int fd, int bytes) {
  if (bytes <= 0) return;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Blocking write used only off-loop: the reconnect handshake runs on the
// sender's thread against a still-blocking socket, exactly like tcp.
bool WriteAllBlocking(int fd, const std::string& data, Counter* syscalls) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (syscalls != nullptr) syscalls->Increment();
    off += static_cast<std::size_t>(n);
  }
  return true;
}

struct Endpoint {
  std::string host;
  int port = 0;
};

Endpoint ParseEndpoint(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon + 1 == text.size()) {
    throw TransportError("dataplane: malformed endpoint '" + text + "'");
  }
  Endpoint ep;
  ep.host = text.substr(0, colon);
  ep.port = std::stoi(text.substr(colon + 1));
  return ep;
}

int DialOnce(const Endpoint& ep, int sock_buf_bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("dataplane: bad address '" + ep.host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  SetNoDelay(fd);
  SetSockBuf(fd, sock_buf_bytes);
  return fd;
}

// epoll user-data tags for the two non-connection descriptors.
int kWakeTag;
int kListenTag;

constexpr int kMaxIov = 8;          // gather width per writev
constexpr std::size_t kMaxSendfileChunk = 1u << 20;

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
        writer_(WriterOptions(owner->options_)) {}

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
    const std::uint64_t seq = ++send_seq_;
    for (int attempt = 1;; ++attempt) {
      if (ConsultHookOrDrop(seq, attempt)) {
        owner_->retransmits_->Increment();
        ReconnectLocked();
        continue;
      }
      {
        std::unique_lock ql(q_mu_);
        if (!broken_ && fd_ >= 0) {
          EnqueueFrameLocked(frame);
          owner_->frames_sent_->Increment();
          owner_->WakeLoop();
          WaitBelowCapLocked(ql);
          if (!broken_) return;
        }
      }
      if (attempt >= owner_->options_.send_attempts) {
        throw TransportError("dataplane: send failed after " +
                             std::to_string(attempt) + " attempts");
      }
      owner_->retransmits_->Increment();
      ReconnectLocked();
    }
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
          ::close(base_fd);
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
    if (user_closed_) {
      ::close(base_fd);
      throw TransportError("dataplane: connection closed");
    }
    const std::uint64_t seq = ++send_seq_;
    for (int attempt = 1;; ++attempt) {
      if (ConsultHookOrDrop(seq, attempt)) {
        owner_->retransmits_->Increment();
        ReconnectLocked();
        continue;
      }
      {
        std::unique_lock ql(q_mu_);
        if (!broken_ && fd_ >= 0) {
          const int dup_fd = ::fcntl(base_fd, F_DUPFD_CLOEXEC, 0);
          if (dup_fd < 0) {
            ::close(base_fd);
            return false;
          }
          FlushPendingLocked();  // keep frame order across the block seam
          Outbound entry;
          entry.bytes = head;
          entry.file_fd = dup_fd;
          entry.file_off = static_cast<off_t>(offset);
          entry.file_len = length;
          outbound_bytes_ += entry.bytes.size() + entry.file_len;
          outbound_.push_back(std::move(entry));
          owner_->frames_sent_->Increment();
          owner_->sendfile_frames_->Increment();
          owner_->sendfile_bytes_->Add(static_cast<std::int64_t>(length));
          owner_->WakeLoop();
          WaitBelowCapLocked(ql);
          if (!broken_) {
            ::close(base_fd);
            return true;
          }
        }
      }
      if (attempt >= owner_->options_.send_attempts) {
        ::close(base_fd);
        throw TransportError("dataplane: send failed after " +
                             std::to_string(attempt) + " attempts");
      }
      owner_->retransmits_->Increment();
      ReconnectLocked();
    }
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

  static EncodingWriter::Options WriterOptions(
      const EventLoopTransport::Options& o) {
    EncodingWriter::Options w;
    w.compress = o.compress_blocks;
    w.target_block_bytes = o.target_block_bytes;
    w.max_block_frames = o.max_block_frames;
    return w;
  }

  // Consults the fault hook (client role); true means drop-and-retransmit.
  bool ConsultHookOrDrop(std::uint64_t seq, int attempt) {
    net::NetFaultHook* hook = net::GetNetFaultHook();
    if (hook == nullptr) return false;
    const std::int64_t t0 = NowNanos();
    const bool drop = hook->OnFrameSend(seq, attempt);
    owner_->stall_nanos_->Add(NowNanos() - t0);
    return drop;
  }

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
      owner_->frames_sent_->Increment();
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
    if (owner_->options_.block_encoding && IsBlockableType(frame.type)) {
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
      return broken_ || outbound_bytes_ <= owner_->options_.max_outbound_bytes;
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
    int fd = -1;
    for (int attempt = 1;; ++attempt) {
      fd = DialOnce(endpoint_, owner_->options_.sock_buf_bytes);
      if (fd >= 0) break;
      if (attempt >= owner_->options_.connect_attempts) {
        throw TransportError("dataplane: cannot connect to " + endpoint_.host +
                             ":" + std::to_string(endpoint_.port));
      }
      SleepMs(owner_->options_.connect_backoff_ms * attempt);
    }
    owner_->reconnects_->Increment();
    // Handshake on the still-blocking socket: Hello preamble, then the
    // ack-window replay.  The server's applied-seq watermark absorbs any
    // frame that also survived the dead connection.
    Frame preamble;
    bool has_preamble = false;
    std::function<std::vector<Frame>()> replay;
    {
      std::scoped_lock lock(owner_->mu_);
      has_preamble = owner_->has_preamble_;
      preamble = owner_->preamble_;
      replay = owner_->reconnect_replay_;
    }
    if (has_preamble) {
      const std::string bytes = net::EncodeFrame(preamble);
      if (!WriteAllBlocking(fd, bytes, owner_->send_syscalls_)) {
        ::close(fd);
        throw TransportError("dataplane: reconnect handshake failed");
      }
      owner_->frames_sent_->Increment();
      owner_->bytes_sent_->Add(static_cast<std::int64_t>(bytes.size()));
    }
    if (replay) {
      for (const Frame& frame : replay()) {
        const std::string bytes = net::EncodeFrame(frame);
        if (!WriteAllBlocking(fd, bytes, owner_->send_syscalls_)) {
          ::close(fd);
          throw TransportError("dataplane: reconnect replay failed");
        }
        owner_->frames_sent_->Increment();
        owner_->bytes_sent_->Add(static_cast<std::int64_t>(bytes.size()));
      }
    }
    SetNonBlocking(fd);
    {
      std::scoped_lock ql(q_mu_);
      fd_ = fd;
      register_requested_ = true;
    }
    owner_->WakeLoop();
    owner_->stall_nanos_->Add(NowNanos() - t0);
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

EventLoopTransport::EventLoopTransport(MetricRegistry* metrics)
    : EventLoopTransport(metrics, Options{}) {}

EventLoopTransport::EventLoopTransport(MetricRegistry* metrics,
                                       std::string endpoint)
    : EventLoopTransport(metrics, std::move(endpoint), Options{}) {}

EventLoopTransport::EventLoopTransport(MetricRegistry* metrics,
                                       Options options)
    : metrics_(metrics),
      options_(options),
      frames_sent_(metrics->Get(net::kNetFramesSent)),
      frames_received_(metrics->Get(net::kNetFramesReceived)),
      bytes_sent_(metrics->Get(net::kNetBytesSent)),
      bytes_received_(metrics->Get(net::kNetBytesReceived)),
      retransmits_(metrics->Get(net::kNetRetransmits)),
      reconnects_(metrics->Get(net::kNetReconnects)),
      stall_nanos_(metrics->Get(net::kNetStallNanos)),
      send_syscalls_(metrics->Get(net::kNetSendSyscalls)),
      recv_syscalls_(metrics->Get(net::kNetRecvSyscalls)),
      blocks_sent_(metrics->Get(kBlocksSent)),
      blocks_received_(metrics->Get(kBlocksReceived)),
      blocks_compressed_(metrics->Get(kBlocksCompressed)),
      block_acks_(metrics->Get(kBlockAcks)),
      sendfile_frames_(metrics->Get(kSendfileFrames)),
      sendfile_bytes_(metrics->Get(kSendfileBytes)) {}

EventLoopTransport::EventLoopTransport(MetricRegistry* metrics,
                                       std::string endpoint, Options options)
    : EventLoopTransport(metrics, options) {
  remote_endpoint_ = std::move(endpoint);
}

EventLoopTransport::~EventLoopTransport() { Shutdown(); }

void EventLoopTransport::Bind() {
  std::scoped_lock lock(mu_);
  if (!remote_endpoint_.empty()) {
    throw TransportError("dataplane: Bind on a client-mode transport");
  }
  if (listen_fd_ >= 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("dataplane: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (options_.bind_address == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                         &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("dataplane: bad bind address '" +
                         options_.bind_address + "'");
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.bind_port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    throw TransportError("dataplane: bind/listen failed on " +
                         options_.bind_address + ":" +
                         std::to_string(options_.bind_port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw TransportError("dataplane: getsockname failed");
  }
  SetNonBlocking(fd);
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
}

void EventLoopTransport::Listen(net::FrameHandler handler) {
  {
    std::scoped_lock lock(mu_);
    if (!remote_endpoint_.empty()) {
      throw TransportError("dataplane: Listen on a client-mode transport");
    }
    if (handler_) throw TransportError("dataplane: Listen called twice");
    handler_ = std::move(handler);
  }
  Bind();
  {
    std::scoped_lock lock(mu_);
    EnsureLoopStartedLocked();
  }
  WakeLoop();  // the loop registers the listen fd on this wakeup
}

std::shared_ptr<net::Connection> EventLoopTransport::Connect(
    net::FrameHandler on_reply) {
  Endpoint ep;
  {
    std::scoped_lock lock(mu_);
    if (!remote_endpoint_.empty()) {
      ep = ParseEndpoint(remote_endpoint_);
    } else if (listen_fd_ >= 0) {
      ep = Endpoint{AdvertisedHostLocked(), port_};  // self-dial
    } else {
      throw TransportError("dataplane: Connect before Bind and without endpoint");
    }
  }
  int fd = -1;
  for (int attempt = 1;; ++attempt) {
    fd = DialOnce(ep, options_.sock_buf_bytes);
    if (fd >= 0) break;
    if (attempt >= options_.connect_attempts) {
      throw TransportError("dataplane: cannot connect to " + ep.host + ":" +
                           std::to_string(ep.port));
    }
    SleepMs(options_.connect_backoff_ms * attempt);
  }
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
    if (shutdown_) {
      ::close(fd);
      throw TransportError("dataplane: transport is shut down");
    }
    conns_.push_back(conn);
    EnsureLoopStartedLocked();
  }
  WakeLoop();
  return conn;
}

std::string EventLoopTransport::endpoint() const {
  std::scoped_lock lock(mu_);
  if (!remote_endpoint_.empty()) return remote_endpoint_;
  return AdvertisedHostLocked() + ":" + std::to_string(port_);
}

std::string EventLoopTransport::AdvertisedHostLocked() const {
  if (!options_.advertise_address.empty()) return options_.advertise_address;
  if (options_.bind_address == "0.0.0.0") return "127.0.0.1";
  return options_.bind_address;
}

void EventLoopTransport::SetConnectPreamble(Frame preamble) {
  std::scoped_lock lock(mu_);
  preamble_ = std::move(preamble);
  has_preamble_ = true;
}

void EventLoopTransport::SetReconnectReplay(
    std::function<std::vector<Frame>()> replay) {
  std::scoped_lock lock(mu_);
  reconnect_replay_ = std::move(replay);
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
    SetNoDelay(fd);
    SetSockBuf(fd, options_.sock_buf_bytes);
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
        frames_received_->Increment();
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
      frames_received_->Increment();
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
    recv_syscalls_->Increment();
    bytes_received_->Add(n);
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
      send_syscalls_->Increment();
      bytes_sent_->Add(w);
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
    send_syscalls_->Increment();
    bytes_sent_->Add(w);
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
        timeout_ms = options_.flush_interval_ms < 1.0
                         ? 1
                         : static_cast<int>(options_.flush_interval_ms);
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
