#include "engine/reduce_incremental.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "engine/job_metrics.h"
#include "fault/fault.h"

namespace opmr {

namespace {

const Aggregator* RequireAggregator(const JobSpec& spec) {
  if (!spec.has_aggregator()) {
    throw std::invalid_argument(
        "IncrementalHashReducer requires an Aggregator (the paper's "
        "incremental techniques need a combine function)");
  }
  return spec.aggregator.get();
}

}  // namespace

IncrementalHashReducer::IncrementalHashReducer(int reducer_id,
                                               const JobSpec& spec,
                                               const JobOptions& options,
                                               const RuntimeEnv& env)
    : reducer_id_(reducer_id),
      spec_(spec),
      options_(options),
      env_(env),
      values_are_states_(spec.has_aggregator() && options.map_side_combine),
      store_(RequireAggregator(spec), options.reduce_buffer_bytes,
             options.hash_reduce == HashReduce::kHotKeyIncremental
                 ? options.hot_key_capacity
                 : 0,
             options.compress_spills, env) {
  if (options_.checkpoint.enabled) {
    ckpt_ = std::make_unique<CheckpointManager>(
        env_.checkpoint_dir, spec_.name, reducer_id_, options_.checkpoint,
        env_.metrics);
  }
}

std::uint64_t IncrementalHashReducer::PrepareCheckpoint() {
  const FaultScope::Frame& frame = FaultScope::Current();
  if (frame.attempt <= 1) {
    // Fresh execution: stale images of a previous run must never restore.
    ckpt_->Reset();
    return 0;
  }
  std::uint64_t watermark = 0;
  if (auto image = ckpt_->LoadLatest(); image.has_value()) {
    store_.Restore(*image);
    for (const auto& [feed, records] : image->feeds) {
      feed_records_[feed] = records;
    }
    watermark = image->watermark;
    if (env_.speculative_attempt && env_.metrics != nullptr) {
      // A speculative backup attempt seeded itself from the primary's
      // newest image instead of re-folding the whole feed.
      env_.metrics->Get(kSpecReduceSeeded)->Increment();
    }
  }
  // No (valid) checkpoint degrades to a full re-execution — feasible for
  // retained-feed shuffles, a structured Table III error otherwise.
  std::string why;
  if (!env_.shuffle->Rewind(reducer_id_, watermark, &why)) {
    throw ReplayError("reduce task " + std::to_string(reducer_id_) +
                      " cannot resume from checkpoint watermark " +
                      std::to_string(watermark) + ": " + why);
  }
  return watermark;
}

void IncrementalHashReducer::WriteCheckpoint(std::uint64_t watermark) {
  PhaseScope cpu(env_.profiler, "checkpoint");
  CheckpointImage image;
  image.watermark = watermark;
  image.feeds.assign(feed_records_.begin(), feed_records_.end());
  store_.Capture(&image);
  ckpt_->Write(&image);
  // Acknowledge up to the OLDEST retained checkpoint: any of the retained
  // images can still restore, so the shuffle may release everything its
  // watermark covers.
  if (auto ack = ckpt_->OldestRetainedWatermark(); ack.has_value()) {
    env_.shuffle->Acknowledge(reducer_id_, *ack);
  }
}

void IncrementalHashReducer::CheckPreempted() const {
  if (env_.reduce_preempt != nullptr &&
      env_.reduce_preempt->load(std::memory_order_relaxed)) {
    throw ReducePreempted("reduce task " + std::to_string(reducer_id_) +
                          " preempted for a speculative backup");
  }
}

std::uint64_t IncrementalHashReducer::Run() {
  const double shuffle_begin = env_.job_start->Seconds();
  IoChannel shuffle_read(env_.metrics, device::kShuffleRead);
  std::uint64_t watermark = ckpt_ != nullptr ? PrepareCheckpoint() : 0;
  ReducerOutput out(env_,
                    spec_.output_file + ".part" + std::to_string(reducer_id_));
  std::string early_value;

  ShuffleItem item;
  std::uint64_t since_check = 0;
  while (env_.shuffle->NextItem(reducer_id_, &item)) {
    auto stream = OpenShuffleItem(item, shuffle_read);
    {
      PhaseScope cpu(env_.profiler, "hash_group");
      while (stream->Next()) {
        if (env_.fault != nullptr) env_.fault->OnReduceFold(++folded_);
        HashTable::Entry& entry =
            store_.Fold(stream->key(), stream->value(), values_are_states_);
        if (options_.early_emit && !entry.early_emitted &&
            options_.early_emit(stream->key(), entry.state)) {
          // Incremental processing: the answer leaves the system the moment
          // the data needed to produce it has been read (paper §IV req. 3).
          spec_.aggregator->Finalize(entry.state, &early_value);
          out.Emit(stream->key(), early_value);
          entry.early_emitted = true;
        }
        if (++since_check >= 64) {
          since_check = 0;
          CheckPreempted();
          store_.EnforceBudget();
        }
      }
    }
    if (ckpt_ != nullptr) {
      // Checkpoints land on item boundaries: the watermark names the last
      // fully-folded consume ordinal, so a restore replays whole items.
      watermark = item.ordinal;
      feed_records_[static_cast<std::uint32_t>(item.map_task)] += item.records;
      ckpt_->OnProgress(item.records, item.size_bytes());
      if (ckpt_->Due()) WriteCheckpoint(watermark);
    }
    CheckPreempted();
  }
  env_.timeline->Record(TaskKind::kShuffle, shuffle_begin,
                        env_.job_start->Seconds());

  const double reduce_begin = env_.job_start->Seconds();
  {
    PhaseScope cpu(env_.profiler, "reduce_function");
    if (options_.hash_reduce == HashReduce::kHotKeyIncremental &&
        store_.spilled()) {
      // Early (approximate) answers for hot keys, available before any
      // cold-file pass — the paper's "return (approximate) results for
      // these keys as early as when all the input data has arrived".
      ReducerOutput early(env_, spec_.output_file + ".early.part" +
                                    std::to_string(reducer_id_));
      std::string approx_value;
      for (const auto& entry : store_.table().entries()) {
        spec_.aggregator->Finalize(entry.state, &approx_value);
        early.Emit(entry.key, approx_value);
      }
      early.Close();
    }
    if (ckpt_ == nullptr) {
      store_.Resolve(out);
    } else {
      // Checkpointed runs emit in key order, so output bytes do not depend
      // on hash iteration order — a recovered attempt's output is
      // byte-identical to a clean run's.
      std::vector<std::pair<std::string, std::string>> rows;
      RowCollector collect(&rows);
      store_.Resolve(collect);
      std::sort(rows.begin(), rows.end());
      for (const auto& [key, value] : rows) out.Emit(key, value);
    }
  }
  out.Close();
  env_.timeline->Record(TaskKind::kReduce, reduce_begin,
                        env_.job_start->Seconds());
  return out.records();
}

}  // namespace opmr
