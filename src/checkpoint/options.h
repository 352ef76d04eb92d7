// Checkpoint policy knobs, separated from the manager so JobOptions and
// StreamingOptions can embed them without pulling in storage headers.
//
// Checkpointing buys back the fault tolerance that eager pipelining forfeits
// (paper Table III): a reduce worker periodically persists its incremental
// state plus a manifest of input watermarks, the shuffle retains consumed
// chunks until a checkpoint covers them, and a failed attempt restores the
// newest valid checkpoint and replays only the suffix.  Like Coded MapReduce
// (PAPERS.md), the mechanism deliberately spends extra local storage and I/O
// to avoid re-running the whole job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace opmr {

struct CheckpointOptions {
  bool enabled = false;

  // Trigger thresholds; a checkpoint is due when ANY configured (non-zero)
  // threshold has been crossed since the previous one.
  std::uint64_t interval_records = 0;
  std::uint64_t interval_bytes = 0;
  double interval_seconds = 0.0;

  // Keep the last K committed checkpoints.  The shuffle acknowledgement
  // watermark trails the OLDEST retained checkpoint, so any of the K can be
  // restored (CRC fallback) without losing replayable input.
  int retain = 2;

  // OZ-compress the serialized image (trades CPU for checkpoint bytes, the
  // same trade-off as compress_spills).
  bool compress = false;

  // Directory for checkpoint files; empty uses a `checkpoints/` subtree of
  // the job workspace (cleaned up with it).
  std::string dir{};

  // Map-side retention budget for consumed in-memory pushed chunks awaiting
  // acknowledgement; beyond it the shuffle spills retained payloads to disk.
  std::size_t retain_budget_bytes = 64u << 20;
};

}  // namespace opmr
