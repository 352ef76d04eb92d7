// Hybrid-hash grouping reducer (§V reduce technique 1) and the shared
// external-aggregation routine the incremental reducers use to resolve
// spilled data.
//
// Hybrid hash (Shapiro 1986, as cited by the paper) splits the key space
// into sub-buckets with a fresh hash-family member per recursion level;
// buckets stay memory-resident until the budget is exceeded, at which point
// the largest resident bucket is demoted to disk and its future arrivals
// are appended straight to its file.  Each bucket is one HashTable: a state
// table when the job has an aggregator, else a value-list table.  After
// input ends, resident buckets are reduced in memory and released first,
// then spilled buckets are processed recursively within the same budget.
//
// This grouping works with or without a combine function, but remains a
// blocking operation with I/O comparable to sort-merge — exactly the
// trade-off the paper states; the incremental paths exist to beat it.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "engine/hash_table.h"
#include "engine/job.h"
#include "engine/reduce_common.h"

namespace opmr {

// Recursively groups the records of `runs` (on-disk files of framed
// (key, value-or-state) records) within `memory_budget` and calls
// `emit(entry)` once per key.  With an aggregator the runs hold states, and
// each key's states fold into the entry's one state; without one, the
// entry lists every value of the key.  Used by HybridHashReducer for
// demoted buckets and by the incremental store to resolve its spill runs.
// `level` selects the hash-family member.
void ExternalHashAggregate(
    const std::vector<std::filesystem::path>& runs, int level,
    std::size_t memory_budget, const RuntimeEnv& env,
    const Aggregator* aggregator,
    const std::function<void(const HashTable::Entry& entry)>& emit,
    bool compress = false);

class HybridHashReducer {
 public:
  HybridHashReducer(int reducer_id, const JobSpec& spec,
                    const JobOptions& options, const RuntimeEnv& env);

  std::uint64_t Run();

  [[nodiscard]] int buckets_spilled() const noexcept { return spilled_count_; }
  // Bytes held by the buckets' in-memory tables.
  [[nodiscard]] std::size_t ResidentBytes() const;

 private:
  static constexpr int kNumBuckets = 32;

  struct Bucket {
    explicit Bucket(const Aggregator* aggregator) : table(aggregator) {}
    HashTable table;                    // while resident
    std::unique_ptr<RecordSink> spill;  // once demoted to disk
    std::filesystem::path spill_path;
  };

  void FoldRecord(Slice key, Slice value);
  void DemoteLargestBucket();
  void EmitEntry(const HashTable::Entry& entry, OutputCollector& out);
  void EmitSpilledBucket(Bucket& bucket, OutputCollector& out);

  int reducer_id_;
  const JobSpec& spec_;
  const JobOptions& options_;
  RuntimeEnv env_;
  bool values_are_states_;
  HashFamily family_{0x5eedf00dULL};
  std::vector<Bucket> buckets_;
  int spilled_count_ = 0;
  std::string final_value_;  // Finalize scratch
};

}  // namespace opmr
