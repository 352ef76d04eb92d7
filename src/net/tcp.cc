#include "net/tcp.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "net/frame.h"

namespace opmr::net {

namespace {

// The reader loop both ends of a connection run on their own thread:
// blocking read(2) into a FrameDecoder, then `handler` per frame.  Returns
// on EOF or a socket error (the peer is gone, or we are shutting down), on
// a corrupt stream (the framing invariant is gone: drop the connection,
// the client reconnects and retransmits), and as soon as `released()` says
// a handler closed the socket from this thread — never draining past it.
template <typename Released>
void ReadFrames(int fd, const WireCounters& net, Connection* conn,
                const FrameHandler& handler, Released released) {
  FrameDecoder decoder;
  char buf[1 << 16];
  while (!released()) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    net.recv_syscalls->Increment();
    net.bytes_received->Add(n);
    decoder.Feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    DecodeStatus status;
    while ((status = decoder.Next(&frame)) == DecodeStatus::kOk) {
      net.frames_received->Increment();
      handler(conn, std::move(frame));
      if (released()) return;
    }
    if (status != DecodeStatus::kNeedMore) return;
  }
}

}  // namespace

// --- Server-side connection --------------------------------------------------

class TcpServerConnection final : public Connection {
 public:
  TcpServerConnection(TcpTransport* owner, int fd) : owner_(owner), fd_(fd) {}

  void Start(FrameHandler handler) {
    reader_ = std::thread([this, handler = std::move(handler)] {
      {
        std::scoped_lock lock(write_mu_);
        reader_tid_ = std::this_thread::get_id();
      }
      ReadFrames(fd_, owner_->net_, this, handler,
                 [this] { return SocketClosed(); });
      CloseFd();
    });
  }

  void Send(const Frame& frame) override {
    const std::string bytes = EncodeFrame(frame);
    std::scoped_lock lock(write_mu_);
    if (closed_ || !owner_->WriteFrame(fd_, bytes)) {
      closed_ = true;
      throw TransportError("tcp: peer connection lost");
    }
  }

  // External close only shutdown()s the socket: that wakes the reader out
  // of its blocked read(), and the reader — the sole thread allowed to
  // close() the fd while it is alive — releases it on the way out.  A
  // close() here would race the reader's read() on the same descriptor.
  //
  // When the caller IS the reader (a frame handler killing its own
  // connection, e.g. an injected peer crash), no concurrent read() can
  // exist, so the fd dies right here.  That close turns the peer's very
  // next write into an RST instead of leaving a half-open socket whose
  // kernel keeps ACKing writes until the reader unwinds — a window in
  // which a busy sender can finish its whole stream "successfully",
  // never see a failure, and therefore never replay what was dropped.
  void Close() override {
    std::scoped_lock lock(write_mu_);
    if (std::this_thread::get_id() == reader_tid_) {
      if (!socket_closed_) {
        ::close(fd_);
        socket_closed_ = true;
      }
    } else if (!shutdown_done_ && !socket_closed_) {
      ::shutdown(fd_, SHUT_RDWR);
      shutdown_done_ = true;
    }
    closed_ = true;
  }

  void Join() {
    if (reader_.joinable()) reader_.join();
  }

  ~TcpServerConnection() override {
    Close();
    Join();
    CloseFd();  // reader already closed it unless Start() was never called
  }

 private:
  void CloseFd() {
    std::scoped_lock lock(write_mu_);
    if (!socket_closed_) {
      ::close(fd_);
      socket_closed_ = true;
    }
    closed_ = true;
  }

  [[nodiscard]] bool SocketClosed() {
    std::scoped_lock lock(write_mu_);
    return socket_closed_;
  }

  TcpTransport* owner_;
  int fd_;
  std::mutex write_mu_;
  bool closed_ = false;
  bool shutdown_done_ = false;
  bool socket_closed_ = false;
  std::thread::id reader_tid_;
  std::thread reader_;
};

// --- Client-side connection --------------------------------------------------

class TcpClientConnection final : public Connection {
 public:
  TcpClientConnection(TcpTransport* owner, Endpoint endpoint,
                      FrameHandler on_reply)
      : owner_(owner),
        endpoint_(std::move(endpoint)),
        on_reply_(std::move(on_reply)) {
    std::scoped_lock lock(send_mu_);
    fd_ = owner_->Dial(endpoint_);
    StartReaderLocked();
  }

  void Send(const Frame& frame) override {
    const std::string bytes = EncodeFrame(frame);
    std::scoped_lock lock(send_mu_);
    if (closing_) throw TransportError("tcp: connection closed");
    owner_->SendWithRetry(
        ++send_seq_, [&] { return owner_->WriteFrame(fd_, bytes); },
        [this] { ReconnectLocked(); });
  }

  void Close() override {
    std::unique_lock lock(send_mu_);
    if (closing_) return;
    closing_ = true;
    const int fd = fd_;
    fd_ = -1;
    std::thread reader = std::move(reader_);
    // Half-close: FIN our side but keep reading until the server closes
    // its end.  An abrupt close() with unread inbound bytes (credits are
    // always in flight) turns into an RST, and an RST discards frames the
    // server has received but not yet read — losing data we already count
    // as delivered.
    if (fd >= 0) ::shutdown(fd, SHUT_WR);
    lock.unlock();
    if (reader.joinable()) reader.join();
    if (fd >= 0) ::close(fd);
  }

  ~TcpClientConnection() override { Close(); }

 private:
  // All Locked methods require send_mu_.
  void StartReaderLocked() {
    reader_ = std::thread([this, fd = fd_] {
      ReadFrames(fd, owner_->net_, this, on_reply_, [] { return false; });
    });
  }

  void ReconnectLocked() {
    const std::int64_t t0 = NowNanos();
    // Same graceful half-close as Close(): everything written before the
    // dropped frame is part of the delivered prefix the retransmit
    // protocol relies on, so it must not be torn out of the server's
    // receive buffer by an RST.
    ::shutdown(fd_, SHUT_WR);
    if (reader_.joinable()) reader_.join();
    ::close(fd_);
    fd_ = -1;  // a failed redial must not leave Close() a stale descriptor
    fd_ = owner_->Dial(endpoint_);
    // The reader runs before the handshake so the server's replies to the
    // replayed frames never back up behind our writes.
    StartReaderLocked();
    owner_->Handshake(fd_);
    owner_->net_.stall_nanos->Add(NowNanos() - t0);
  }

  TcpTransport* owner_;
  Endpoint endpoint_;
  FrameHandler on_reply_;
  std::mutex send_mu_;
  int fd_ = -1;
  bool closing_ = false;
  std::uint64_t send_seq_ = 0;
  std::thread reader_;
};

// --- TcpTransport ------------------------------------------------------------

TcpTransport::TcpTransport(MetricRegistry* metrics, Options options)
    : TcpTransport(metrics, std::string(), std::move(options)) {}

TcpTransport::TcpTransport(MetricRegistry* metrics, std::string endpoint,
                           Options options)
    : SocketTransport(metrics, std::move(endpoint), std::move(options),
                      "tcp") {}

TcpTransport::~TcpTransport() { Shutdown(); }

void TcpTransport::Listen(FrameHandler handler) {
  BindForListen(std::move(handler));
  // The accept loop gets its own copy of the fd: Shutdown() nulls the member
  // under mu_, which this thread must never read unlocked.  Shutdown() still
  // owns closing it, after shutdown(2) has woken accept() and join returned.
  const int lfd = [this] {
    std::scoped_lock lock(mu_);
    return listen_fd_;
  }();
  accept_thread_ = std::thread([this, lfd] {
    for (;;) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener shut down
      }
      ConfigureSocket(fd);
      auto conn = std::make_shared<TcpServerConnection>(this, fd);
      FrameHandler handler;
      {
        std::scoped_lock lock(mu_);
        if (shutdown_) return;  // conn's destructor closes fd
        server_connections_.push_back(conn);
        handler = handler_;
      }
      conn->Start(handler);
    }
  });
}

std::shared_ptr<Connection> TcpTransport::Connect(FrameHandler on_reply) {
  auto conn = std::make_shared<TcpClientConnection>(this, DialTarget(),
                                                    std::move(on_reply));
  std::scoped_lock lock(mu_);
  // Shutdown() raced the dial: it will never close this connection, so
  // refuse it (its destructor closes the socket).
  if (shutdown_) Fail("transport is shut down");
  client_connections_.push_back(conn);
  return conn;
}

void TcpTransport::Shutdown() {
  std::vector<std::shared_ptr<TcpServerConnection>> servers;
  std::vector<std::shared_ptr<TcpClientConnection>> clients;
  int listen_fd = -1;
  {
    std::scoped_lock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    servers.swap(server_connections_);
    clients.swap(client_connections_);
    listen_fd = listen_fd_;
    listen_fd_ = -1;
  }
  // shutdown(2) acts on the socket, not the descriptor: a listener bound
  // before fork() is shared with the other process, so only the process
  // accepting on it may shut it down.  Anyone else just closes its copy.
  const bool accepting = accept_thread_.joinable();
  if (listen_fd >= 0 && accepting) ::shutdown(listen_fd, SHUT_RDWR);
  if (accepting) accept_thread_.join();
  if (listen_fd >= 0) ::close(listen_fd);
  for (auto& conn : clients) conn->Close();
  for (auto& conn : servers) {
    conn->Close();
    conn->Join();
  }
}

}  // namespace opmr::net
