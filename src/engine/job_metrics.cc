#include "engine/job_metrics.h"

#include "checkpoint/checkpoint.h"
#include "coded/coded.h"
#include "common/format.h"
#include "dataplane/block_cache.h"
#include "dataplane/event_loop.h"
#include "engine/cluster.h"
#include "engine/incremental_store.h"
#include "engine/shuffle_remote.h"
#include "fault/fault.h"
#include "net/transport.h"
#include "storage/io_stats.h"

namespace opmr {
namespace {

enum class MetricUnit {
  kCount,
  kBytes,
  kMicros,  // counted in µs, reported in seconds
  kNanos,   // counted in ns, reported in seconds
};

struct JobMetric {
  const char* counter;  // MetricRegistry name, also the CSV column
  const char* label;    // job-report row label
  MetricUnit unit;
  MetricGroup group;
};

using enum MetricUnit;
using enum MetricGroup;

// Every reported counter, in report order (grouped).
constexpr JobMetric kTable[] = {
    {device::kDfsRead, "dfs read", kBytes, kCore},
    {device::kMapOutputWrite, "map output bytes", kBytes, kCore},
    {device::kShuffleRead, "shuffle bytes", kBytes, kCore},
    {device::kSpillWrite, "reduce spill", kBytes, kCore},
    {kStoreDemotions, "hot-key demotions", kCount, kCore},
    {device::kDfsWrite, "dfs written", kBytes, kCore},

    {kRetryMapTask, "map task retries", kCount, kRecovery},
    {kRetryReduceTask, "reduce task retries", kCount, kRecovery},
    {kSpecLaunched, "speculative launched", kCount, kRecovery},
    {kSpecWins, "speculative wins", kCount, kRecovery},
    {kSpecReduceLaunched, "spec reduce launched", kCount, kRecovery},
    {kSpecReduceSeeded, "spec reduce seeded", kCount, kRecovery},
    {kSpecReduceWins, "spec reduce wins", kCount, kRecovery},
    {kFaultsInjected, "faults injected", kCount, kRecovery},

    {kCheckpointsWritten, "checkpoints written", kCount, kCheckpoint},
    {kCheckpointsLoaded, "checkpoints loaded", kCount, kCheckpoint},
    {device::kCheckpointWrite, "checkpoint bytes", kBytes, kCheckpoint},
    {kReplayRecords, "replayed records", kCount, kCheckpoint},
    {kCheckpointRecoverUs, "recover time", kMicros, kCheckpoint},
    {kCheckpointsSwept, "checkpoints swept", kCount, kCheckpoint},

    {net::kNetBytesSent, "net bytes sent", kBytes, kWire},
    {net::kNetFramesSent, "net frames sent", kCount, kWire},
    {net::kNetBytesReceived, "net bytes received", kBytes, kWire},
    {net::kNetFramesReceived, "net frames received", kCount, kWire},
    {net::kNetRetransmits, "net retransmits", kCount, kWire},
    {net::kNetReconnects, "net reconnects", kCount, kWire},
    {net::kNetStallNanos, "net stall time", kNanos, kWire},
    {net::kNetSendSyscalls, "net send syscalls", kCount, kWire},
    {net::kNetRecvSyscalls, "net recv syscalls", kCount, kWire},
    {kShuffleAckReplays, "ack replays", kCount, kWire},
    {kShuffleAckReplayedFrames, "ack replayed frames", kCount, kWire},
    {kShuffleDupFrames, "dup frames absorbed", kCount, kWire},

    {dataplane::kBlocksSent, "blocks sent", kCount, kDataPlane},
    {dataplane::kBlocksCompressed, "blocks compressed", kCount, kDataPlane},
    {dataplane::kBlocksReceived, "blocks received", kCount, kDataPlane},
    {dataplane::kSendfileFrames, "sendfile frames", kCount, kDataPlane},
    {dataplane::kSendfileBytes, "sendfile bytes", kBytes, kDataPlane},
    {dataplane::kBlockCacheHits, "block cache hits", kCount, kDataPlane},
    {dataplane::kBlockCacheMisses, "block cache misses", kCount, kDataPlane},
    {dataplane::kBlockCacheEvictions, "block cache evictions", kCount,
     kDataPlane},

    {coded::kCodedFrames, "coded frames", kCount, kCoded},
    {coded::kCodedPayloadBytes, "coded payload", kBytes, kCoded},
    {coded::kCodedDecodedUnits, "coded units (wire)", kCount, kCoded},
    {coded::kCodedLocalUnits, "coded units (local)", kCount, kCoded},
    {coded::kCodedRemapTasks, "coded re-maps", kCount, kCoded},
    {coded::kCodedReconstructedSegments, "coded reconstructions", kCount,
     kCoded},
};

std::string FormatMetric(const JobMetric& metric, std::int64_t raw) {
  switch (metric.unit) {
    case kCount:
      return std::to_string(raw);
    case kBytes:
      return HumanBytes(static_cast<double>(raw));
    case kMicros:
      return HumanSeconds(static_cast<double>(raw) / 1e6);
    case kNanos:
      return HumanSeconds(static_cast<double>(raw) / 1e9);
  }
  return std::to_string(raw);  // unreachable
}

bool GroupActive(const JobResult& result, MetricGroup group) {
  if (group == kCore) return true;
  for (const JobMetric& m : kTable) {
    if (m.group == group && result.Bytes(m.counter) != 0) return true;
  }
  return false;
}

}  // namespace

std::vector<std::vector<std::string>> JobMetricRows(const JobResult& result) {
  std::vector<std::vector<std::string>> rows;
  for (const JobMetric& m : kTable) {
    if (GroupActive(result, m.group)) {
      rows.push_back({m.label, FormatMetric(m, result.Bytes(m.counter))});
    }
  }
  return rows;
}

std::vector<std::string> MetricCsvHeader(MetricGroup group) {
  std::vector<std::string> header;
  for (const JobMetric& m : kTable) {
    if (m.group == group) header.emplace_back(m.counter);
  }
  return header;
}

std::vector<std::string> MetricCsvCells(const JobResult& result,
                                        MetricGroup group) {
  std::vector<std::string> cells;
  for (const JobMetric& m : kTable) {
    if (m.group == group) {
      cells.push_back(std::to_string(result.Bytes(m.counter)));
    }
  }
  return cells;
}

}  // namespace opmr
