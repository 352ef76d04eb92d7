// TcpTransport: localhost socket transport, thread-per-connection.
//
// Two construction modes:
//
//   * Server / full: TcpTransport(metrics) + Bind().  Bind() creates the
//     listening socket (bind + listen) without spawning any thread, so a
//     CLI parent can Bind() BEFORE fork() — the child's connect() then
//     succeeds even if the parent has not started accepting yet (the
//     backlog holds it).  Listen() starts the accept/reader threads.
//     Connect() dials the transport's own endpoint (single-process mode).
//   * Client: TcpTransport(metrics, "127.0.0.1:port").  Connect() dials
//     the remote endpoint; Listen()/Bind() are invalid.
//
// Endpoints, dialing, the bind, wire counters and the client reconnect
// path (fault-hook drops, Hello preamble, ack-window replay) come from the
// shared socket layer (net/socket.h).  What is left here is the I/O model:
// one blocking reader thread per connection and one write(2) loop per frame
// on the sender's thread.  Real send errors (peer reset) retry like an
// injected drop, up to send_attempts transmissions.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace opmr::net {

class TcpServerConnection;
class TcpClientConnection;

class TcpTransport final : public SocketTransport {
 public:
  using Options = SocketOptions;

  explicit TcpTransport(MetricRegistry* metrics, Options options = {});
  TcpTransport(MetricRegistry* metrics, std::string endpoint,
               Options options = {});
  ~TcpTransport() override;

  void Listen(FrameHandler handler) override;
  std::shared_ptr<Connection> Connect(FrameHandler on_reply) override;
  void Shutdown() override;

 private:
  friend class TcpServerConnection;
  friend class TcpClientConnection;

  std::thread accept_thread_;
  // Guarded by mu_.
  std::vector<std::shared_ptr<TcpServerConnection>> server_connections_;
  std::vector<std::shared_ptr<TcpClientConnection>> client_connections_;
};

}  // namespace opmr::net
