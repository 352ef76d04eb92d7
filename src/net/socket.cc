#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <thread>
#include <utility>

namespace opmr::net {

namespace {

// Parses "host:port": a non-empty host and a decimal port in 1..65535.
// Endpoints arrive from flags and from the wire (leader redirects), so
// anything else is rejected here rather than truncated into a wrong port.
std::optional<Endpoint> ParseEndpoint(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  Endpoint ep;
  const char* first = text.data() + colon + 1;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(first, last, ep.port);
  if (ec != std::errc() || end != last || ep.port < 1 || ep.port > 65535) {
    return std::nullopt;
  }
  ep.host = text.substr(0, colon);
  return ep;
}

// Fills an IPv4 address ("0.0.0.0" is the wildcard); false when `host` is
// not a dotted quad or `port` is outside 0..65535.
bool ToSockAddr(const std::string& host, int port, sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  return port >= 0 && port <= 65535 &&
         ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WireCounters::WireCounters(MetricRegistry* metrics)
    : frames_sent(metrics->Get(kNetFramesSent)),
      frames_received(metrics->Get(kNetFramesReceived)),
      bytes_sent(metrics->Get(kNetBytesSent)),
      bytes_received(metrics->Get(kNetBytesReceived)),
      retransmits(metrics->Get(kNetRetransmits)),
      reconnects(metrics->Get(kNetReconnects)),
      stall_nanos(metrics->Get(kNetStallNanos)),
      send_syscalls(metrics->Get(kNetSendSyscalls)),
      recv_syscalls(metrics->Get(kNetRecvSyscalls)) {}

SocketTransport::SocketTransport(MetricRegistry* metrics,
                                 std::string remote_endpoint,
                                 SocketOptions options, const char* name)
    : options_(std::move(options)),
      net_(metrics),
      name_(name),
      remote_endpoint_(std::move(remote_endpoint)) {}

void SocketTransport::Fail(const std::string& what) const {
  throw TransportError(std::string(name_) + ": " + what);
}

void SocketTransport::Bind() {
  std::scoped_lock lock(mu_);
  if (!remote_endpoint_.empty()) Fail("Bind on a client-mode transport");
  if (shutdown_) Fail("transport is shut down");
  if (listen_fd_ >= 0) return;
  sockaddr_in addr{};
  if (!ToSockAddr(options_.bind_address, options_.bind_port, &addr)) {
    Fail("bad bind address '" + options_.bind_address + ":" +
         std::to_string(options_.bind_port) + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Fail("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    Fail("bind/listen failed on " + options_.bind_address + ":" +
         std::to_string(options_.bind_port));
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
}

void SocketTransport::BindForListen(FrameHandler handler) {
  {
    std::scoped_lock lock(mu_);
    if (!remote_endpoint_.empty()) Fail("Listen on a client-mode transport");
    if (handler_) Fail("Listen called twice");
    handler_ = std::move(handler);
  }
  Bind();
}

Endpoint SocketTransport::DialTarget() const {
  std::scoped_lock lock(mu_);
  if (shutdown_) Fail("transport is shut down");
  if (!remote_endpoint_.empty()) {
    std::optional<Endpoint> ep = ParseEndpoint(remote_endpoint_);
    if (!ep) Fail("malformed endpoint '" + remote_endpoint_ + "'");
    return std::move(*ep);
  }
  if (listen_fd_ < 0) Fail("Connect before Bind and without endpoint");
  return Endpoint{AdvertisedHostLocked(), port_};  // self-dial
}

int SocketTransport::Dial(const Endpoint& ep) const {
  sockaddr_in addr{};
  if (!ToSockAddr(ep.host, ep.port, &addr)) {
    Fail("bad address '" + ep.host + "'");
  }
  for (int attempt = 1;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        ConfigureSocket(fd);
        return fd;
      }
      ::close(fd);
    }
    if (attempt >= options_.connect_attempts) {
      Fail("cannot connect to " + ep.host + ":" + std::to_string(ep.port));
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.connect_backoff_ms * attempt));
  }
}

void SocketTransport::ConfigureSocket(int fd) const {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int bytes = options_.sock_buf_bytes;
  if (bytes <= 0) return;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

bool SocketTransport::WriteFrame(int fd, const std::string& bytes) const {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    net_.send_syscalls->Increment();
    off += static_cast<std::size_t>(n);
  }
  net_.frames_sent->Increment();
  net_.bytes_sent->Add(static_cast<std::int64_t>(bytes.size()));
  return true;
}

bool SocketTransport::DropBeforeSend(std::uint64_t seq, int attempt) const {
  NetFaultHook* hook = GetNetFaultHook();
  if (hook == nullptr) return false;
  const std::int64_t t0 = NowNanos();
  const bool drop = hook->OnFrameSend(seq, attempt);
  net_.stall_nanos->Add(NowNanos() - t0);
  return drop;
}

void SocketTransport::Handshake(int fd) const {
  net_.reconnects->Increment();
  std::optional<Frame> preamble;
  std::function<std::vector<Frame>()> replay;
  {
    std::scoped_lock lock(mu_);
    preamble = preamble_;
    replay = reconnect_replay_;
  }
  if (preamble && !WriteFrame(fd, EncodeFrame(*preamble))) {
    Fail("reconnect handshake failed");
  }
  if (!replay) return;
  for (const Frame& frame : replay()) {
    if (!WriteFrame(fd, EncodeFrame(frame))) Fail("reconnect replay failed");
  }
}

std::string SocketTransport::endpoint() const {
  std::scoped_lock lock(mu_);
  if (!remote_endpoint_.empty()) return remote_endpoint_;
  return AdvertisedHostLocked() + ":" + std::to_string(port_);
}

std::string SocketTransport::AdvertisedHostLocked() const {
  if (!options_.advertise_address.empty()) return options_.advertise_address;
  // A wildcard bind is not dialable; fall back to loopback, which matches
  // the historical single-host behavior.
  if (options_.bind_address == "0.0.0.0") return "127.0.0.1";
  return options_.bind_address;
}

void SocketTransport::SetConnectPreamble(Frame preamble) {
  std::scoped_lock lock(mu_);
  preamble_ = std::move(preamble);
}

void SocketTransport::SetReconnectReplay(
    std::function<std::vector<Frame>()> replay) {
  std::scoped_lock lock(mu_);
  reconnect_replay_ = std::move(replay);
}

}  // namespace opmr::net
