#include "engine/incremental_store.h"

#include <algorithm>
#include <stdexcept>

#include "engine/reduce_hash.h"

namespace opmr {

IncrementalStore::IncrementalStore(const Aggregator* aggregator,
                                   std::size_t budget_bytes,
                                   std::size_t hot_key_capacity,
                                   bool compress_spills, const RuntimeEnv& env)
    : aggregator_(aggregator),
      budget_bytes_(budget_bytes),
      compress_spills_(compress_spills),
      env_(env),
      demotions_(env.metrics != nullptr ? env.metrics->Get(kStoreDemotions)
                                        : nullptr),
      table_(aggregator) {
  if (hot_key_capacity > 0) sketch_.emplace(hot_key_capacity);
}

void IncrementalStore::RemarkEarlyEmitted(Slice key, HashTable::Entry* entry) {
  if (auto it = emitted_elsewhere_.find(key.view());
      it != emitted_elsewhere_.end()) {
    entry->early_emitted = true;
    emitted_elsewhere_.erase(it);
  }
}

void IncrementalStore::Demote(Slice key) {
  std::string state;
  bool early_emitted = false;
  if (!table_.Extract(Hash(key), key, &state, &early_emitted)) return;
  if (early_emitted) emitted_elsewhere_.emplace(key.view());
  if (cold_ == nullptr) {
    runs_.push_back(env_.files->NewFile("cold_run"));
    cold_ = NewSpillSink(compress_spills_, runs_.back(),
                         IoChannel(env_.metrics, device::kSpillWrite));
  }
  cold_->Append(key, state);
  if (demotions_ != nullptr) demotions_->Increment();
}

void IncrementalStore::DemoteColdest() {
  // Rare: the sketch capacity normally bounds residency first.
  std::vector<std::pair<std::uint64_t, std::string>> by_estimate;
  by_estimate.reserve(table_.size());
  for (const auto& entry : table_.entries()) {
    by_estimate.emplace_back(sketch_->Estimate(entry.key),
                             entry.key.ToString());
  }
  std::sort(by_estimate.begin(), by_estimate.end());
  for (const auto& [estimate, key] : by_estimate) {
    if (table_.MemoryBytes() <= budget_bytes_) break;
    Demote(key);
  }
}

void IncrementalStore::SpillTable() {
  const bool timed = env_.timeline != nullptr && env_.job_start != nullptr;
  const double begin = timed ? env_.job_start->Seconds() : 0.0;
  const auto path = env_.files->NewFile("incr_spill");
  auto writer = NewSpillSink(compress_spills_, path,
                             IoChannel(env_.metrics, device::kSpillWrite));
  for (const auto& entry : table_.entries()) {
    writer->Append(entry.key, entry.state);
    if (entry.early_emitted) emitted_elsewhere_.emplace(entry.key.view());
  }
  writer->Close();
  table_.Clear();
  runs_.push_back(path);
  if (timed) {
    env_.timeline->Record(TaskKind::kMerge, begin, env_.job_start->Seconds());
  }
}

void IncrementalStore::CloseCold() {
  if (cold_ != nullptr) {
    cold_->Close();
    cold_.reset();
  }
}

void IncrementalStore::Capture(CheckpointImage* image) {
  if (cold_ != nullptr) cold_->Flush();
  for (const auto& path : runs_) {
    // The open cold run's durable prefix is its flushed byte count; the
    // closed runs are complete files.
    const bool open = cold_ != nullptr && &path == &runs_.back();
    image->spill_files.push_back(
        {path.string(),
         open ? cold_->bytes_written() : std::filesystem::file_size(path)});
  }
  CaptureResident(image);
}

void IncrementalStore::CaptureResident(CheckpointImage* image) const {
  if (sketch_.has_value()) {
    for (const auto& hitter : sketch_->Candidates()) {
      image->sketch.push_back(
          {hitter.key, hitter.count_estimate, hitter.error_bound});
    }
    image->sketch_stream_length += sketch_->StreamLength();
  }
  image->entries.reserve(image->entries.size() + table_.size());
  for (const auto& entry : table_.entries()) {
    image->entries.push_back(
        {entry.key.ToString(), entry.state, entry.early_emitted});
  }
}

void IncrementalStore::Restore(const CheckpointImage& image) {
  Discard();
  for (const auto& entry : image.entries) {
    table_.Fold(Hash(entry.key), entry.key, entry.state,
                /*value_is_state=*/true)
        .early_emitted = entry.early_emitted;
  }
  if (sketch_.has_value()) {
    for (const auto& entry : image.sketch) {
      sketch_->Restore(entry.key, entry.count, entry.error);
    }
    sketch_->SetStreamLength(image.sketch_stream_length);
  }
  for (const auto& spill : image.spill_files) {
    const std::filesystem::path path(spill.path);
    if (!std::filesystem::exists(path)) {
      throw std::runtime_error(
          "checkpoint manifest references missing spill run " + spill.path);
    }
    // Appends made after the checkpoint belong to the failed epoch.  A
    // restored cold run is never appended to again; demotions open a new
    // one.
    if (std::filesystem::file_size(path) > spill.committed_bytes) {
      std::filesystem::resize_file(path, spill.committed_bytes);
    }
    runs_.push_back(path);
  }
}

void IncrementalStore::Discard() {
  table_.Clear();
  if (sketch_.has_value()) sketch_.emplace(sketch_->Capacity());
  CloseCold();
  runs_.clear();
  emitted_elsewhere_.clear();
}

void IncrementalStore::Resolve(OutputCollector& out) {
  std::string final_value;
  auto emit = [&](const HashTable::Entry& entry) {
    aggregator_->Finalize(entry.state, &final_value);
    out.Emit(entry.key, final_value);
  };
  if (runs_.empty()) {
    // Pure in-memory one-pass processing: a finalize scan is all that
    // remains.
    for (const auto& entry : table_.entries()) emit(entry);
    return;
  }
  // The resident states join the open cold run, or become one more run.
  if (cold_ != nullptr) {
    for (const auto& entry : table_.entries()) {
      cold_->Append(entry.key, entry.state);
    }
    table_.Clear();
  } else if (!table_.empty()) {
    SpillTable();
  }
  CloseCold();
  ExternalHashAggregate(runs_, /*level=*/0, budget_bytes_, env_, aggregator_,
                        emit, compress_spills_);
  for (const auto& path : runs_) std::filesystem::remove(path);
  runs_.clear();
}

}  // namespace opmr
