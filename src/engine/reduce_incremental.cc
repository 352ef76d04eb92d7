#include "engine/reduce_incremental.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "engine/job_metrics.h"
#include "engine/reduce_hash.h"
#include "fault/fault.h"

namespace opmr {

namespace {

void RequireAggregator(const JobSpec& spec, const char* who) {
  if (!spec.has_aggregator()) {
    throw std::invalid_argument(std::string(who) +
                                " requires an Aggregator (the paper's "
                                "incremental techniques need a combine "
                                "function)");
  }
}

// Merges a list of state slices and emits the finalized value.
void MergeStatesAndEmit(const Aggregator& agg, Slice key,
                        const std::vector<Slice>& states,
                        OutputCollector& out) {
  std::string state(states.front().data(), states.front().size());
  for (std::size_t i = 1; i < states.size(); ++i) {
    agg.Merge(&state, states[i]);
  }
  std::string final_value;
  agg.Finalize(state, &final_value);
  out.Emit(key, final_value);
}

// Collects emissions into a vector so they can be sorted before reaching
// the real output — checkpointed runs emit in key order, making output
// bytes independent of hash-table iteration order (and therefore identical
// between a clean run and a recovered one).
class BufferingCollector final : public OutputCollector {
 public:
  void Emit(Slice key, Slice value) override {
    rows_.emplace_back(std::string(key.view()), std::string(value.view()));
  }

  void DrainSorted(OutputCollector& out) {
    std::sort(rows_.begin(), rows_.end());
    for (const auto& [key, value] : rows_) out.Emit(key, value);
    rows_.clear();
  }

 private:
  std::vector<std::pair<std::string, std::string>> rows_;
};

}  // namespace

// --- IncrementalHashReducer --------------------------------------------------

IncrementalHashReducer::IncrementalHashReducer(int reducer_id,
                                               const JobSpec& spec,
                                               const JobOptions& options,
                                               const RuntimeEnv& env)
    : reducer_id_(reducer_id),
      spec_(spec),
      options_(options),
      env_(env),
      values_are_states_(spec.has_aggregator() && options.map_side_combine),
      table_((RequireAggregator(spec, "IncrementalHashReducer"),
              spec.aggregator.get())) {
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
    RestoreFromImage(*image);
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

void IncrementalHashReducer::RestoreFromImage(const CheckpointImage& image) {
  table_.Clear();
  spill_runs_.clear();
  feed_records_.clear();
  for (const auto& entry : image.entries) {
    table_.Fold(entry.key, entry.state, /*value_is_state=*/true)
        .early_emitted = entry.early_emitted;
  }
  for (const auto& spill : image.spill_files) {
    const std::filesystem::path path(spill.path);
    if (!std::filesystem::exists(path)) {
      throw std::runtime_error("checkpoint manifest references missing "
                               "spill run " +
                               spill.path);
    }
    // Appends made after the checkpoint belong to the failed epoch.
    if (std::filesystem::file_size(path) > spill.committed_bytes) {
      std::filesystem::resize_file(path, spill.committed_bytes);
    }
    spill_runs_.push_back(path);
  }
  table_spills_ = static_cast<int>(spill_runs_.size());
  for (const auto& [feed, records] : image.feeds) feed_records_[feed] = records;
}

void IncrementalHashReducer::WriteCheckpoint(std::uint64_t watermark) {
  PhaseScope cpu(env_.profiler, "checkpoint");
  CheckpointImage image;
  image.watermark = watermark;
  image.feeds.assign(feed_records_.begin(), feed_records_.end());
  for (const auto& path : spill_runs_) {
    image.spill_files.push_back(
        {path.string(), std::filesystem::file_size(path)});
  }
  image.entries.reserve(table_.size());
  table_.ForEach([&](Slice key, const StateTable::Entry& entry) {
    image.entries.push_back(
        {std::string(key.view()), entry.state, entry.early_emitted});
  });
  ckpt_->Write(&image);
  // Acknowledge up to the OLDEST retained checkpoint: any of the retained
  // images can still restore, so the shuffle may release everything its
  // watermark covers.
  if (auto ack = ckpt_->OldestRetainedWatermark(); ack.has_value()) {
    env_.shuffle->Acknowledge(reducer_id_, *ack);
  }
}

void IncrementalHashReducer::SpillTable() {
  const double begin = env_.job_start->Seconds();
  const auto path = env_.files->NewFile("incr_spill");
  auto writer = NewSpillSink(options_.compress_spills, path,
                             IoChannel(env_.metrics, device::kSpillWrite));
  table_.ForEach([&](Slice key, const StateTable::Entry& entry) {
    writer->Append(key, entry.state);
  });
  writer->Close();
  table_.Clear();
  spill_runs_.push_back(path);
  ++table_spills_;
  env_.timeline->Record(TaskKind::kMerge, begin, env_.job_start->Seconds());
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
        StateTable::Entry& entry =
            table_.Fold(stream->key(), stream->value(), values_are_states_);
        if (options_.early_emit && !entry.early_emitted &&
            options_.early_emit(stream->key(), entry.state)) {
          // Incremental processing: the answer leaves the system the moment
          // the data needed to produce it has been read (paper §IV req. 3).
          spec_.aggregator->Finalize(entry.state, &early_value);
          out.Emit(stream->key(), early_value);
          entry.early_emitted = true;
          ++early_emits_;
        }
        if (++since_check >= 64) {
          since_check = 0;
          if (env_.reduce_preempt != nullptr &&
              env_.reduce_preempt->load(std::memory_order_relaxed)) {
            throw ReducePreempted("reduce task " +
                                  std::to_string(reducer_id_) +
                                  " preempted for a speculative backup");
          }
          if (table_.MemoryBytes() > options_.reduce_buffer_bytes) {
            SpillTable();
          }
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
    if (env_.reduce_preempt != nullptr &&
        env_.reduce_preempt->load(std::memory_order_relaxed)) {
      throw ReducePreempted("reduce task " + std::to_string(reducer_id_) +
                            " preempted for a speculative backup");
    }
  }
  env_.timeline->Record(TaskKind::kShuffle, shuffle_begin,
                        env_.job_start->Seconds());

  const double reduce_begin = env_.job_start->Seconds();
  {
    PhaseScope cpu(env_.profiler, "reduce_function");
    // Checkpointed runs route emissions through a sort so output bytes do
    // not depend on hash iteration order — a recovered attempt's output is
    // byte-identical to a clean run's.
    BufferingCollector sorted;
    OutputCollector& sink =
        ckpt_ != nullptr ? static_cast<OutputCollector&>(sorted) : out;
    if (spill_runs_.empty()) {
      // Pure in-memory one-pass processing: a finalize scan is all that
      // remains.
      std::string final_value;
      table_.ForEach([&](Slice key, const StateTable::Entry& entry) {
        spec_.aggregator->Finalize(entry.state, &final_value);
        sink.Emit(key, final_value);
      });
    } else {
      // Resolve spilled partial states: flush the live table as one more
      // run, then externally re-aggregate.  States merge associatively, so
      // the result is exact.
      if (table_.size() > 0) SpillTable();
      ExternalHashAggregate(
          spill_runs_, /*level=*/0, options_.reduce_buffer_bytes, env_,
          [&](Slice key, const std::vector<Slice>& states) {
            MergeStatesAndEmit(*spec_.aggregator, key, states, sink);
          },
          options_.compress_spills);
      for (const auto& path : spill_runs_) std::filesystem::remove(path);
    }
    if (ckpt_ != nullptr) sorted.DrainSorted(out);
  }
  out.Close();
  env_.timeline->Record(TaskKind::kReduce, reduce_begin,
                        env_.job_start->Seconds());
  return out.records();
}

// --- HotKeyIncrementalReducer ------------------------------------------------

HotKeyIncrementalReducer::HotKeyIncrementalReducer(int reducer_id,
                                                   const JobSpec& spec,
                                                   const JobOptions& options,
                                                   const RuntimeEnv& env)
    : reducer_id_(reducer_id),
      spec_(spec),
      options_(options),
      env_(env),
      values_are_states_(spec.has_aggregator() && options.map_side_combine),
      sketch_(options.hot_key_capacity),
      resident_((RequireAggregator(spec, "HotKeyIncrementalReducer"),
                 spec.aggregator.get())) {}

void HotKeyIncrementalReducer::EnsureColdWriter() {
  if (cold_ == nullptr) {
    cold_path_ = env_.files->NewFile("cold_run");
    cold_ = NewSpillSink(options_.compress_spills, cold_path_,
                         IoChannel(env_.metrics, device::kSpillWrite));
  }
}

void HotKeyIncrementalReducer::DemoteToCold(Slice key) {
  std::string state;
  if (!resident_.Extract(key, &state)) return;
  EnsureColdWriter();
  cold_->Append(key, state);
  ++cold_records_;
}

void HotKeyIncrementalReducer::EnforceBudget() {
  if (resident_.MemoryBytes() <= options_.reduce_buffer_bytes) return;
  // Demote the resident keys the sketch considers coldest until under
  // budget.  Rare: the sketch capacity normally bounds residency first.
  std::vector<std::pair<std::uint64_t, std::string>> by_estimate;
  by_estimate.reserve(resident_.size());
  resident_.ForEach([&](Slice key, const StateTable::Entry&) {
    by_estimate.emplace_back(sketch_.Estimate(key), std::string(key.view()));
  });
  std::sort(by_estimate.begin(), by_estimate.end());
  for (const auto& [estimate, key] : by_estimate) {
    if (resident_.MemoryBytes() <= options_.reduce_buffer_bytes) break;
    DemoteToCold(key);
  }
}

std::uint64_t HotKeyIncrementalReducer::Run() {
  const double shuffle_begin = env_.job_start->Seconds();
  IoChannel shuffle_read(env_.metrics, device::kShuffleRead);
  ReducerOutput out(env_,
                    spec_.output_file + ".part" + std::to_string(reducer_id_));
  std::string early_value;

  ShuffleItem item;
  std::uint64_t since_check = 0;
  while (env_.shuffle->NextItem(reducer_id_, &item)) {
    auto stream = OpenShuffleItem(item, shuffle_read);
    PhaseScope cpu(env_.profiler, "hash_group");
    while (stream->Next()) {
      const Slice key = stream->key();
      // The sketch sees every arrival; its eviction is the demotion signal —
      // but demotion only matters under memory pressure.  While the table
      // is comfortably inside its budget every state stays resident, so an
      // amply-provisioned run spills nothing at all.
      if (auto victim = sketch_.OfferAndEvict(key); victim.has_value()) {
        if (resident_.MemoryBytes() >
            options_.reduce_buffer_bytes - options_.reduce_buffer_bytes / 4) {
          DemoteToCold(*victim);
        }
      }
      StateTable::Entry& entry =
          resident_.Fold(key, stream->value(), values_are_states_);
      ++hot_folds_;
      if (options_.early_emit && !entry.early_emitted &&
          options_.early_emit(key, entry.state)) {
        spec_.aggregator->Finalize(entry.state, &early_value);
        out.Emit(key, early_value);
        entry.early_emitted = true;
        ++early_emits_;
      }
      if (++since_check >= 64) {
        since_check = 0;
        EnforceBudget();
      }
    }
  }
  env_.timeline->Record(TaskKind::kShuffle, shuffle_begin,
                        env_.job_start->Seconds());

  const double reduce_begin = env_.job_start->Seconds();
  {
    PhaseScope cpu(env_.profiler, "reduce_function");
    if (cold_ == nullptr) {
      // Everything stayed resident: exact one-pass answers.
      std::string final_value;
      resident_.ForEach([&](Slice key, const StateTable::Entry& entry) {
        spec_.aggregator->Finalize(entry.state, &final_value);
        out.Emit(key, final_value);
      });
    } else {
      // Early (approximate) answers for hot keys, available before any
      // cold-file pass — the paper's "return (approximate) results for
      // these keys as early as when all the input data has arrived".
      ReducerOutput early(env_, spec_.output_file + ".early.part" +
                                    std::to_string(reducer_id_));
      std::string approx_value;
      resident_.ForEach([&](Slice key, const StateTable::Entry& entry) {
        spec_.aggregator->Finalize(entry.state, &approx_value);
        early.Emit(key, approx_value);
      });
      early.Close();

      // Exact phase: fold the resident states into the cold run and
      // re-aggregate everything.
      resident_.ForEach([&](Slice key, const StateTable::Entry& entry) {
        cold_->Append(key, entry.state);
      });
      cold_->Close();
      ExternalHashAggregate(
          {cold_path_}, /*level=*/0, options_.reduce_buffer_bytes, env_,
          [&](Slice key, const std::vector<Slice>& states) {
            MergeStatesAndEmit(*spec_.aggregator, key, states, out);
          },
          options_.compress_spills);
      std::filesystem::remove(cold_path_);
    }
  }
  out.Close();
  env_.timeline->Record(TaskKind::kReduce, reduce_begin,
                        env_.job_start->Seconds());
  return out.records();
}

}  // namespace opmr
