// EventLoopTransport: epoll-based data-plane transport.
//
// One event-loop thread per transport multiplexes every shuffle connection
// over a single epoll(7) instance (level-triggered, non-blocking sockets,
// eventfd wakeup) instead of TcpTransport's thread-per-connection blocking
// I/O.  Senders enqueue; the loop coalesces queued frames into
// scatter-gather writev(2) batches (and sendfile(2) for file-backed
// payloads), so the syscalls-per-frame cost the ablation bench measures
// amortizes across the queue depth.
//
// Client connections additionally batch data frames into protocol-v7
// kBlock frames through an EncodingWriter (block-granular adaptive
// compression, see dataplane/encoding_writer.h): blockable frames
// accumulate until the block reaches the writer's default size or frame
// count, a non-blockable control frame forces a flush, or the loop's 2 ms
// flush timer seals a stale block.  The server side unpacks blocks back
// into the exact frame stream the shuffle layer expects and answers each
// with a kBlockAck (observability only).
//
// Everything but the I/O model comes from the shared socket layer
// (net/socket.h), the same one TcpTransport uses, so the
// ShuffleClient/ShuffleServer pair — exactly-once sequencing, ack-window
// replay, NetFaultHook injection — works unchanged:
//
//   * Construction modes: server/full (Bind() before fork() is safe: the
//     loop thread starts lazily on Listen/Connect, never in Bind) and
//     client (endpoint string).
//   * A dropped or failed client send tears the connection down, redials,
//     replays the Hello preamble plus the reconnect-replay window on the
//     still-blocking socket, and retransmits.  Frames batched but not yet
//     flushed when a connection dies are simply abandoned — they are all
//     inside the unacked window, so the replay re-delivers them.
//   * Close() flushes queued output, half-closes (FIN), and drains inbound
//     until the peer closes, exactly like the TCP client teardown.
//
// Locking (the deadlock-relevant invariant): each connection has a
// caller-side ordering lock (send_mu_, held across Send/reconnect/Close,
// possibly across waits) and a queue lock (q_mu_, short holds only).  The
// loop thread takes q_mu_ but NEVER send_mu_, so a sender waiting for the
// loop (backpressure, teardown handshake) can always be satisfied.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/encoding_writer.h"
#include "metrics/counters.h"
#include "net/frame.h"
#include "net/socket.h"

namespace opmr::dataplane {

// Data-plane metric names (beyond the net.* wire metrics shared with tcp).
inline constexpr const char* kBlocksSent = "dataplane.blocks_sent";
inline constexpr const char* kBlocksReceived = "dataplane.blocks_received";
inline constexpr const char* kBlocksCompressed = "dataplane.blocks_compressed";
inline constexpr const char* kBlockAcks = "dataplane.block_acks";
inline constexpr const char* kSendfileFrames = "dataplane.sendfile_frames";
inline constexpr const char* kSendfileBytes = "dataplane.sendfile_bytes";

class ElConn;

// The shared dial/bind settings plus the block codec switch.
struct EventLoopOptions : net::SocketOptions {
  bool compress_blocks = false;  // adaptive OZ codec per block
};

class EventLoopTransport final : public net::SocketTransport {
 public:
  using Options = EventLoopOptions;

  explicit EventLoopTransport(MetricRegistry* metrics, Options options = {});
  EventLoopTransport(MetricRegistry* metrics, std::string endpoint,
                     Options options = {});
  ~EventLoopTransport() override;

  void Listen(net::FrameHandler handler) override;
  std::shared_ptr<net::Connection> Connect(net::FrameHandler on_reply) override;
  void Shutdown() override;

 private:
  friend class ElConn;

  void EnsureLoopStartedLocked();  // requires mu_
  void LoopMain();
  void WakeLoop();
  void AcceptReady();
  void ReadReady(ElConn* conn);
  // Dispatches decoded inbound frames (unpacking kBlock) to the handler.
  // Returns false when the stream is corrupt and the connection must die.
  bool DispatchDecoded(ElConn* conn);
  void ServiceConn(ElConn* conn, bool timer_tick);
  void HandleEof(ElConn* conn);
  void FailConn(ElConn* conn);
  // Requires conn->q_mu_.  Drains the outbound queue with writev/sendfile
  // until empty or EAGAIN; false means a fatal socket error.
  bool TryWriteLocked(ElConn* conn);
  [[nodiscard]] bool OnLoopThread() const;
  void DeregisterFd(int fd, bool registered);

  const bool compress_blocks_;
  Counter* blocks_sent_ = nullptr;
  Counter* blocks_received_ = nullptr;
  Counter* blocks_compressed_ = nullptr;
  Counter* block_acks_ = nullptr;
  Counter* sendfile_frames_ = nullptr;
  Counter* sendfile_bytes_ = nullptr;

  // Loop machinery.  epoll_fd_/wake_fd_ are created when the loop starts
  // and owned by it; conns_ pins every connection for the loop's lifetime.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_;
  std::atomic<std::thread::id> loop_tid_{};
  std::atomic<bool> stop_{false};
  std::vector<std::shared_ptr<ElConn>> conns_;  // guarded by mu_
};

}  // namespace opmr::dataplane
