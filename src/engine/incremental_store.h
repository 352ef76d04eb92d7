// IncrementalStore: the per-key state store behind §V reduce techniques 2
// and 3, shared by the batch incremental reducer and the streaming worker.
//
// Every value folds into its key's aggregator state the moment it arrives.
// In plain mode (sketch capacity 0) a table over budget is spilled whole to
// a run.  In hot-key mode a Space-Saving sketch names the hot keys: a key
// the sketch evicts while the table is near its budget, and the coldest
// keys of a table over budget, are demoted to one open cold run, so the
// hot keys' states stay resident.  States are mergeable by construction,
// so Resolve re-aggregates the runs and the resident states exactly.
//
// The store is single-threaded; callers that read it concurrently (the
// streaming worker's live queries) hold their own lock.
#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/hash.h"
#include "engine/hash_table.h"
#include "engine/reduce_common.h"
#include "frequent/space_saving.h"

namespace opmr {

// States demoted to a cold run (hot-key mode), in batch and streaming.
inline constexpr const char* kStoreDemotions = "store.demotions";

// Collects emissions into (key, value) rows.
class RowCollector final : public OutputCollector {
 public:
  explicit RowCollector(std::vector<std::pair<std::string, std::string>>* rows)
      : rows_(rows) {}

  void Emit(Slice key, Slice value) override {
    rows_->emplace_back(std::string(key.view()), std::string(value.view()));
  }

 private:
  std::vector<std::pair<std::string, std::string>>* rows_;
};

class IncrementalStore {
 public:
  // `env` supplies the spill directory (files) and I/O counters (metrics);
  // when it also has a timeline, whole-table spills are charged to it.
  IncrementalStore(const Aggregator* aggregator, std::size_t budget_bytes,
                   std::size_t hot_key_capacity, bool compress_spills,
                   const RuntimeEnv& env);

  // Offers `key` to the sketch (demoting the key it evicts when the table
  // is above ¾ of the budget), then folds `value` into `key`'s state.  The
  // returned entry is valid until the next mutating call.
  HashTable::Entry& Fold(Slice key, Slice value, bool is_state) {
    if (sketch_.has_value()) {
      // The eviction is the demotion signal — but demotion only matters
      // under memory pressure: while the table is comfortably inside its
      // budget every state stays resident.
      if (auto victim = sketch_->OfferAndEvict(key);
          victim.has_value() &&
          table_.MemoryBytes() > budget_bytes_ - budget_bytes_ / 4) {
        Demote(*victim);
      }
    }
    HashTable::Entry& entry = table_.Fold(Hash(key), key, value, is_state);
    if (!emitted_elsewhere_.empty() && !entry.early_emitted) {
      RemarkEarlyEmitted(key, &entry);
    }
    return entry;
  }

  // Over budget: spills the whole table (plain mode) or demotes the
  // coldest keys until the table fits (hot-key mode).
  void EnforceBudget() {
    if (table_.MemoryBytes() <= budget_bytes_) return;
    if (sketch_.has_value()) {
      DemoteColdest();
    } else {
      SpillTable();
    }
  }

  // Appends the spill manifest (the open cold run at its flushed length),
  // the sketch summary and the resident entries to `image`.  The keys of
  // emitted_elsewhere_ are not captured: checkpointing and early emission
  // are mutually exclusive.
  void Capture(CheckpointImage* image);
  // Appends the sketch summary and the resident entries only: a consistent
  // view of live state with no I/O.
  void CaptureResident(CheckpointImage* image) const;
  // Replaces all state with `image`'s; spill runs that grew after the
  // checkpoint are truncated back to their committed length.
  void Restore(const CheckpointImage& image);
  // Forgets all in-memory state and the run list; files stay on disk.
  void Discard();

  // Emits every key's exact final value: a finalize scan when nothing left
  // memory, otherwise the resident states join the runs and the runs are
  // re-aggregated, then removed.
  void Resolve(OutputCollector& out);

  // The resident entry of `key`; nullptr when it is not resident.
  [[nodiscard]] const HashTable::Entry* Find(Slice key) const {
    return table_.Find(Hash(key), key);
  }
  [[nodiscard]] const HashTable& table() const noexcept { return table_; }
  [[nodiscard]] bool spilled() const noexcept { return !runs_.empty(); }

 private:
  static std::uint64_t Hash(Slice key) noexcept { return BytesHash(key); }

  void Demote(Slice key);
  void DemoteColdest();
  void SpillTable();
  void CloseCold();
  void RemarkEarlyEmitted(Slice key, HashTable::Entry* entry);

  const Aggregator* aggregator_;
  std::size_t budget_bytes_;
  bool compress_spills_;
  RuntimeEnv env_;
  Counter* demotions_;

  HashTable table_;
  std::optional<SpaceSaving> sketch_;
  std::vector<std::filesystem::path> runs_;
  std::unique_ptr<RecordSink> cold_;  // open cold run, the last of runs_
  // Keys whose early answer already fired while their state is on disk:
  // re-marked when they come back, so the answer never fires twice.
  std::unordered_set<std::string, TransparentStringHash, std::equal_to<>>
      emitted_elsewhere_;
};

}  // namespace opmr
