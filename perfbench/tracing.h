// Outside-in layer tracing for the one-pass job benchmark.
//
// A Tracer times and counts each engine layer from the public seams only:
// SchedHooks (map and reduce task spans), wrapped JobSpec callbacks (map
// function, output collector, reduce function, aggregator), a decorated
// net::Transport (frames, bytes and time inside Send / the frame handler),
// and a counting IoFaultHook (storage operations by file class).  Nothing
// is installed on an untraced job, so end-to-end numbers never pay for it.
//
// Per-record callbacks do not open spans: they add busy time and counts to
// the task span open on their thread (a map slot or reduce slot lease).
// The engine calls them only on threads that hold such a lease.  Spans stay in memory
// and are written as Chrome trace-event JSON when the benchmark ends.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "engine/job.h"
#include "net/transport.h"
#include "storage/io.h"

namespace perfbench {

// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t NowNs();

// Layer numbers one traced job produced, read from the spans and counters.
struct JobTrace {
  double map_wave_s = 0;        // first map-slot acquire to last release
  double map_task_s_p50 = 0;
  double map_task_s_max = 0;
  double map_fn_busy_s = 0;     // inside MapFn, engine Emit path included
  std::uint64_t map_emit_records = 0;
  double reduce_tail_s = 0;     // last reduce-slot release minus map wave end
  double reduce_task_s_max = 0;
  double reduce_fn_busy_s = 0;  // inside ReduceFn / reduce-side Aggregator
  std::uint64_t reduce_fn_calls = 0;
  std::uint64_t net_frames_sent = 0;
  double net_mb_sent = 0;
  double net_send_busy_s = 0;   // inside Connection::Send / SendFileFrame
  double net_send_us_p50 = 0;
  double net_send_us_p99 = 0;
  double net_recv_busy_s = 0;   // inside the server FrameHandler
  // Calls through the storage I/O seam on local map-output and spill files:
  // a write is one buffer flush, a read one SequentialReader::ReadExact.
  std::uint64_t storage_write_ops = 0;
  std::uint64_t storage_read_ops = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Returns `spec` with its map function, reduce function and aggregator
  // wrapped so that their calls are timed and counted.
  [[nodiscard]] opmr::JobSpec Wrap(opmr::JobSpec spec);

  // Returns a transport that forwards to `inner` and measures every frame.
  [[nodiscard]] std::unique_ptr<opmr::net::Transport> Wrap(
      std::unique_ptr<opmr::net::Transport> inner);

  // Installs the tracer's SchedHooks on `executor` and its IoFaultHook
  // process-wide for one job, and opens that job's span.  Both are removed
  // when the scope ends; Finish() closes the span and returns its numbers.
  class JobScope {
   public:
    JobScope(Tracer& tracer, opmr::ClusterExecutor& executor,
             const std::string& job_name);
    ~JobScope();
    JobScope(const JobScope&) = delete;
    JobScope& operator=(const JobScope&) = delete;

    [[nodiscard]] JobTrace Finish();

   private:
    Tracer& tracer_;
    opmr::ClusterExecutor& executor_;
    bool finished_ = false;
  };

  // Writes every span recorded so far as Chrome trace-event JSON; each
  // span's args carry its self time (duration minus what its child spans
  // cover).  `metadata` lands in the file's otherData object.
  void WriteChromeTrace(const std::filesystem::path& path,
                        const std::map<std::string, std::string>& metadata)
      const;

 private:
  friend class TracingConnection;
  friend class TracingTransport;
  friend class TracingAggregator;
  friend class CountingIoHook;

  struct Span {
    std::string name;
    int tid = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = 0;  // 0 = root (a job span)
    // Task spans only: wrapped-callback time and counts inside the span.
    std::int64_t busy_ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t emits = 0;
    std::uint64_t write_ops = 0;  // storage operations inside the span
    std::uint64_t read_ops = 0;
  };

  // Open a task span on the calling thread / close it into spans_.
  void BeginTask(bool map);
  void EndTask();
  // Busy time and counts from a wrapped callback on the calling thread.
  void AddMapCall(std::int64_t ns, std::uint64_t emits);
  void AddReduceCall(std::int64_t ns);
  // Per frame, from the transport decorators.
  void AddSend(std::int64_t ns, std::uint64_t bytes);
  void AddReceive(std::int64_t ns);
  void AddStorageOp(bool write);
  [[nodiscard]] bool InMapTask() const;

  void BeginJob(const std::string& name);
  JobTrace EndJob();

  opmr::SchedHooks hooks_;
  std::unique_ptr<opmr::IoFaultHook> io_hook_;
  const std::int64_t epoch_ns_;

  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  int next_span_id_ = 1;
  int job_span_ = 0;     // open job span id, 0 when none
  std::size_t job_first_span_ = 0;  // index in spans_ of the job's first task
  // Wire totals of the open job, kept per job rather than per task: frames
  // also move on transport threads that hold no task span.
  std::vector<std::int64_t> send_ns_;  // latency of each Send
  std::uint64_t send_bytes_ = 0;
  std::int64_t recv_busy_ns_ = 0;
};

}  // namespace perfbench
