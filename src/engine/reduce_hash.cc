#include "engine/reduce_hash.h"

#include <algorithm>
#include <stdexcept>

namespace opmr {

namespace {

constexpr int kMaxRecursionLevel = 8;

// ValueIterator over an in-memory value list.
class VectorValueIterator final : public ValueIterator {
 public:
  explicit VectorValueIterator(const std::vector<Slice>& values)
      : values_(values) {}

  bool Next(Slice* value) override {
    if (pos_ >= values_.size()) return false;
    *value = values_[pos_++];
    return true;
  }

 private:
  const std::vector<Slice>& values_;
  std::size_t pos_ = 0;
};

// Appends every entry of `table` to `sink`: the state of a state table,
// every value of a value-list table.
void SpillEntries(const HashTable& table, RecordSink& sink, bool states) {
  for (const auto& e : table.entries()) {
    if (states) {
      sink.Append(e.key, e.state);
    } else {
      for (const Slice& v : e.values) sink.Append(e.key, v);
    }
  }
}

}  // namespace

void ExternalHashAggregate(
    const std::vector<std::filesystem::path>& runs, int level,
    std::size_t memory_budget, const RuntimeEnv& env,
    const Aggregator* aggregator,
    const std::function<void(const HashTable::Entry& entry)>& emit,
    bool compress) {
  if (level > kMaxRecursionLevel) {
    throw std::runtime_error(
        "ExternalHashAggregate: recursion limit exceeded (pathological key "
        "distribution or tiny memory budget)");
  }
  constexpr int kSubBuckets = 16;
  const HashFamily family(0x5eedf00dULL);

  struct SubBucket {
    explicit SubBucket(const Aggregator* aggregator) : table(aggregator) {}
    HashTable table;
    std::unique_ptr<RecordSink> spill;
    std::filesystem::path spill_path;
  };
  std::vector<SubBucket> buckets;
  buckets.reserve(kSubBuckets);
  for (int b = 0; b < kSubBuckets; ++b) buckets.emplace_back(aggregator);

  IoChannel spill_read(env.metrics, device::kSpillRead);
  IoChannel spill_write(env.metrics, device::kSpillWrite);

  auto resident_bytes = [&buckets] {
    std::size_t total = 0;
    for (const auto& b : buckets) total += b.table.MemoryBytes();
    return total;
  };
  auto demote_largest = [&] {
    SubBucket* victim = nullptr;
    for (auto& b : buckets) {
      // Never demote single-key buckets: a group that alone exceeds memory
      // cannot be split by rehashing and must be handled in memory.
      if (b.spill == nullptr && b.table.size() > 1 &&
          (victim == nullptr ||
           b.table.MemoryBytes() > victim->table.MemoryBytes())) {
        victim = &b;
      }
    }
    if (victim == nullptr) return false;
    victim->spill_path = env.files->NewFile("hash_spill");
    victim->spill = NewSpillSink(compress, victim->spill_path, spill_write);
    SpillEntries(victim->table, *victim->spill, aggregator != nullptr);
    victim->table.Clear();
    return true;
  };

  std::uint64_t since_check = 0;
  for (const auto& path : runs) {
    auto reader = OpenSpillRun(compress, path, spill_read);
    while (reader->Next()) {
      const std::uint64_t h = family.Hash(level, reader->key());
      SubBucket& bucket = buckets[h % kSubBuckets];
      if (bucket.spill != nullptr) {
        bucket.spill->Append(reader->key(), reader->value());
      } else if (aggregator != nullptr) {
        bucket.table.Fold(h, reader->key(), reader->value(),
                          /*value_is_state=*/true);
      } else {
        bucket.table.Append(h, reader->key(), reader->value());
      }
      if (++since_check >= 64) {
        since_check = 0;
        while (resident_bytes() > memory_budget && demote_largest()) {
        }
      }
    }
  }

  // Resident buckets first, released as they go, so the recursion below
  // has the whole budget to itself.
  for (auto& bucket : buckets) {
    if (bucket.spill != nullptr) continue;
    for (const auto& e : bucket.table.entries()) emit(e);
    bucket.table.Clear();
  }
  for (auto& bucket : buckets) {
    if (bucket.spill == nullptr) continue;
    bucket.spill->Close();
    bucket.spill.reset();
    ExternalHashAggregate({bucket.spill_path}, level + 1, memory_budget, env,
                          aggregator, emit, compress);
    std::filesystem::remove(bucket.spill_path);
  }
}

HybridHashReducer::HybridHashReducer(int reducer_id, const JobSpec& spec,
                                     const JobOptions& options,
                                     const RuntimeEnv& env)
    : reducer_id_(reducer_id),
      spec_(spec),
      options_(options),
      env_(env),
      values_are_states_(spec.has_aggregator() && options.map_side_combine) {
  buckets_.reserve(kNumBuckets);
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets_.emplace_back(spec_.aggregator.get());
  }
}

std::size_t HybridHashReducer::ResidentBytes() const {
  std::size_t total = 0;
  for (const auto& b : buckets_) total += b.table.MemoryBytes();
  return total;
}

void HybridHashReducer::DemoteLargestBucket() {
  Bucket* victim = nullptr;
  for (auto& b : buckets_) {
    if (b.spill == nullptr && b.table.size() > 1 &&
        (victim == nullptr ||
         b.table.MemoryBytes() > victim->table.MemoryBytes())) {
      victim = &b;
    }
  }
  if (victim == nullptr) return;

  ++spilled_count_;
  victim->spill_path = env_.files->NewFile("hybrid_spill");
  victim->spill = NewSpillSink(
      options_.compress_spills, victim->spill_path,
      IoChannel(env_.metrics, device::kSpillWrite));
  SpillEntries(victim->table, *victim->spill, spec_.has_aggregator());
  victim->table.Clear();
}

void HybridHashReducer::FoldRecord(Slice key, Slice value) {
  const std::uint64_t h = family_.Hash(/*member=*/0, key);
  Bucket& bucket = buckets_[h % kNumBuckets];
  if (bucket.spill != nullptr) {
    if (spec_.has_aggregator() && !values_are_states_) {
      // Keep spill files uniform: with an aggregator, demoted buckets hold
      // states, so lift raw values before appending.
      std::string state;
      spec_.aggregator->Init(value, &state);
      bucket.spill->Append(key, state);
    } else {
      bucket.spill->Append(key, value);
    }
  } else if (spec_.has_aggregator()) {
    bucket.table.Fold(h, key, value, values_are_states_);
  } else {
    bucket.table.Append(h, key, value);
  }
}

void HybridHashReducer::EmitEntry(const HashTable::Entry& entry,
                                  OutputCollector& out) {
  if (spec_.has_aggregator()) {
    spec_.aggregator->Finalize(entry.state, &final_value_);
    out.Emit(entry.key, final_value_);
  } else {
    VectorValueIterator it(entry.values);
    spec_.reduce(entry.key, it, out);
  }
}

void HybridHashReducer::EmitSpilledBucket(Bucket& bucket,
                                          OutputCollector& out) {
  bucket.spill->Close();
  bucket.spill.reset();
  // Spill files hold states when the job has an aggregator.
  ExternalHashAggregate(
      {bucket.spill_path}, /*level=*/1, options_.reduce_buffer_bytes, env_,
      spec_.aggregator.get(),
      [&](const HashTable::Entry& entry) { EmitEntry(entry, out); },
      options_.compress_spills);
  std::filesystem::remove(bucket.spill_path);
}

std::uint64_t HybridHashReducer::Run() {
  const double shuffle_begin = env_.job_start->Seconds();
  IoChannel shuffle_read(env_.metrics, device::kShuffleRead);

  ShuffleItem item;
  std::uint64_t since_check = 0;
  while (env_.shuffle->NextItem(reducer_id_, &item)) {
    auto stream = OpenShuffleItem(item, shuffle_read);
    PhaseScope cpu(env_.profiler, "hash_group");
    while (stream->Next()) {
      FoldRecord(stream->key(), stream->value());
      if (++since_check >= 64) {
        since_check = 0;
        while (ResidentBytes() > options_.reduce_buffer_bytes) {
          const int before = spilled_count_;
          DemoteLargestBucket();
          if (spilled_count_ == before) break;  // nothing demotable
        }
      }
    }
  }
  env_.timeline->Record(TaskKind::kShuffle, shuffle_begin,
                        env_.job_start->Seconds());

  // Blocking emission: hybrid hash only answers after all input arrived.
  const double reduce_begin = env_.job_start->Seconds();
  ReducerOutput out(env_,
                    spec_.output_file + ".part" + std::to_string(reducer_id_));
  {
    PhaseScope cpu(env_.profiler, "reduce_function");
    // Resident buckets first, released as they go, so each spilled bucket
    // is resolved within the budget alone.
    for (auto& bucket : buckets_) {
      if (bucket.spill != nullptr) continue;
      for (const auto& entry : bucket.table.entries()) EmitEntry(entry, out);
      bucket.table.Clear();
    }
    for (auto& bucket : buckets_) {
      if (bucket.spill != nullptr) EmitSpilledBucket(bucket, out);
    }
  }
  out.Close();
  env_.timeline->Record(TaskKind::kReduce, reduce_begin,
                        env_.job_start->Seconds());
  return out.records();
}

}  // namespace opmr
