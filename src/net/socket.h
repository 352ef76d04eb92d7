// SocketTransport: the socket layer under both socket transports.
//
// TcpTransport (net/tcp.h, a thread per connection) and
// dataplane::EventLoopTransport (one epoll loop) differ only in their I/O
// model.  Everything else they share lives here once:
//
//   * SocketOptions, the dial/bind settings both take;
//   * endpoint parsing, the listener bind, and dial with retry and backoff;
//   * blocking frame writes, charged to the net.* wire counters;
//   * the advertised endpoint, the connect preamble and reconnect-replay
//     state, and the client reconnect path: the NetFaultHook consult before
//     each send, the bounded retransmit loop, and the handshake (Hello
//     preamble, then the ack-window replay) on every redialed socket.
//
// Construction modes: server/full (empty remote endpoint; Bind() creates
// the listener, Connect() dials the transport's own endpoint) and client
// (remote "host:port"; Connect() dials it, Bind()/Listen() throw).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "metrics/counters.h"
#include "net/frame.h"
#include "net/transport.h"

namespace opmr::net {

// Dial and bind settings of a socket transport.
struct SocketOptions {
  int connect_attempts = 20;       // dial retries (server may lag behind)
  double connect_backoff_ms = 25;  // linear backoff between dial attempts
  int send_attempts = 4;           // transmissions per frame before giving up
  // Server-mode addressing.  Defaults preserve the historical localhost
  // behavior; cluster mode binds "0.0.0.0" and advertises a reachable
  // address.  advertise_address feeds endpoint() (and the single-process
  // self-dial); empty means the bind address, or loopback when bound any.
  std::string bind_address = "127.0.0.1";
  int bind_port = 0;  // 0 = ephemeral
  std::string advertise_address;
  // SO_SNDBUF / SO_RCVBUF for every data socket (dialed and accepted);
  // 0 keeps the kernel default.  TCP_NODELAY is always set — the shuffle
  // writes whole frames and batches above the socket, so Nagle only adds
  // delay.
  int sock_buf_bytes = 0;
};

struct Endpoint {
  std::string host;
  int port = 0;
};

// The net.* wire counters (net/transport.h), resolved once per transport.
struct WireCounters {
  explicit WireCounters(MetricRegistry* metrics);
  Counter* frames_sent;
  Counter* frames_received;
  Counter* bytes_sent;
  Counter* bytes_received;
  Counter* retransmits;
  Counter* reconnects;
  Counter* stall_nanos;
  Counter* send_syscalls;
  Counter* recv_syscalls;
};

[[nodiscard]] std::int64_t NowNanos();

class SocketTransport : public Transport {
 public:
  // Server mode: bind and start the listen backlog without spawning any
  // thread, so a CLI parent can Bind() BEFORE fork() — the child's dial then
  // succeeds even before the parent accepts.  Idempotent.
  void Bind();

  [[nodiscard]] std::string endpoint() const override;
  void SetConnectPreamble(Frame preamble) override;
  void SetReconnectReplay(std::function<std::vector<Frame>()> replay) override;

 protected:
  // An empty `remote_endpoint` selects server mode; `name` prefixes every
  // error message ("tcp", "dataplane").
  SocketTransport(MetricRegistry* metrics, std::string remote_endpoint,
                  SocketOptions options, const char* name);

  // Throws TransportError("<name>: <what>").
  [[noreturn]] void Fail(const std::string& what) const;

  // Listen()'s shared half: rejects client mode and a second call, records
  // the handler in handler_, and binds.
  void BindForListen(FrameHandler handler);

  // Connect()'s dial target: the remote endpoint, or in server mode this
  // transport's own (self-dial).  Throws before any dial after Shutdown(),
  // before Bind() without an endpoint, and on a malformed endpoint.
  [[nodiscard]] Endpoint DialTarget() const;

  // Dials `ep`, retrying with linear backoff up to connect_attempts.
  // Returns a blocking socket with ConfigureSocket applied.
  [[nodiscard]] int Dial(const Endpoint& ep) const;

  // TCP_NODELAY plus sock_buf_bytes, for dialed and accepted sockets.
  void ConfigureSocket(int fd) const;

  // Blocking write of one encoded frame.  Each send(2) is charged to
  // net.send_syscalls, a complete write to net.frames_sent and
  // net.bytes_sent.  False on a socket error.
  bool WriteFrame(int fd, const std::string& bytes) const;

  // The client send loop.  Before each transmission of frame `seq` the
  // NetFaultHook may drop it: the connection is torn down BEFORE any byte
  // of the frame reaches the wire, so the retransmit can never duplicate
  // delivered data.  `send_once()` returns false when the socket failed.
  // After a drop or a failure the loop counts a retransmit, calls
  // `reconnect()`, and tries again; it throws once send_attempts
  // transmissions have failed (injected drops never exhaust it).
  template <typename SendOnce, typename Reconnect>
  void SendWithRetry(std::uint64_t seq, SendOnce send_once,
                     Reconnect reconnect) const {
    for (int attempt = 1;; ++attempt) {
      if (!DropBeforeSend(seq, attempt)) {
        if (send_once()) return;
        if (attempt >= options_.send_attempts) {
          Fail("send failed after " + std::to_string(attempt) + " attempts");
        }
      }
      net_.retransmits->Increment();
      reconnect();
    }
  }

  // Re-introduces a redialed client socket, still blocking: the server
  // treats each connection as a fresh stream, so the Hello preamble leads,
  // then the ack-window replay — everything delivered on the dead
  // connection but not yet acknowledged, ahead of the frame whose send
  // triggered the reconnect (the receiver's applied-seq watermark absorbs
  // copies that did survive).  Counts the reconnect.  Throws when a write
  // fails; `fd` stays the caller's.
  void Handshake(int fd) const;

  const SocketOptions options_;
  const WireCounters net_;

  mutable std::mutex mu_;
  // Guarded by mu_.
  int listen_fd_ = -1;
  bool shutdown_ = false;
  FrameHandler handler_;  // server dispatch target, set by Listen()

 private:
  // True (with the stall time charged) when the fault hook drops the send.
  [[nodiscard]] bool DropBeforeSend(std::uint64_t seq, int attempt) const;
  // Requires mu_.  The host part of endpoint(): advertise_address when
  // set, else the bind address (loopback when bound to the wildcard).
  [[nodiscard]] std::string AdvertisedHostLocked() const;

  const char* const name_;
  const std::string remote_endpoint_;  // client mode; empty in server mode
  // Guarded by mu_.
  int port_ = 0;
  std::optional<Frame> preamble_;
  std::function<std::vector<Frame>()> reconnect_replay_;
};

}  // namespace opmr::net
