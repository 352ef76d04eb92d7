// Incremental hash reducer (§V reduce techniques 2 and 3) — the paper's
// primary contribution.
//
// The reducer folds each arriving value into its key's aggregator state
// immediately; answers can be produced the moment the data needed for them
// has been seen (the early_emit policy), and final answers require only a
// finalize scan — no blocking merge.  The per-key state, spilling, hot-key
// demotion, checkpoint images and the final resolve all live in
// IncrementalStore (engine/incremental_store.h), which the streaming
// worker shares.
//
// kIncremental runs the store in plain mode: when memory is short, the
// whole table is flushed to a run and the runs are re-aggregated at the end
// (states are mergeable by construction).  kHotKeyIncremental gives the
// store a Space-Saving sketch of hot_key_capacity keys: exactly the hot
// keys keep their states pinned in memory, and evicted (cold) states are
// appended to a cold run.  Because state size is sublinear in the number of
// values aggregated, pinning hot keys instead of random keys minimizes
// spilled bytes (§V: "maintaining hot keys instead of random keys in memory
// results in less I/Os"), and hot keys' (approximate) answers are written
// to `<output>.early.part<r>` as soon as all input has arrived — before any
// cold-file pass.
//
// This class keeps the batch-only parts: shuffle rewind and acknowledgement
// around checkpoints, speculative-backup preemption, early answers into the
// part file, and key-sorted emission under checkpoints.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "checkpoint/checkpoint.h"
#include "engine/incremental_store.h"
#include "engine/job.h"
#include "engine/reduce_common.h"

namespace opmr {

class IncrementalHashReducer {
 public:
  IncrementalHashReducer(int reducer_id, const JobSpec& spec,
                         const JobOptions& options, const RuntimeEnv& env);

  std::uint64_t Run();

 private:
  // Checkpoint plumbing (ckpt_ is null when checkpointing is off).
  // Prepare() resets stale images on a first attempt, or restores the
  // latest checkpoint and rewinds the shuffle feed on a retry; returns the
  // restored watermark (0 = start from scratch).
  std::uint64_t PrepareCheckpoint();
  void WriteCheckpoint(std::uint64_t watermark);
  void CheckPreempted() const;

  int reducer_id_;
  const JobSpec& spec_;
  const JobOptions& options_;
  RuntimeEnv env_;
  bool values_are_states_;

  IncrementalStore store_;
  std::uint64_t folded_ = 0;  // fold ordinal for the OnReduceFold fault site

  std::unique_ptr<CheckpointManager> ckpt_;
  std::map<std::uint32_t, std::uint64_t> feed_records_;  // map task -> records
};

}  // namespace opmr
