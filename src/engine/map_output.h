// Map-side output structures: the layout of a map task's spill file
// (Segment, MapOutputFile) and the sort path's MapOutputBuffer.  Key/value
// bytes land in the buffer's arena, record metadata in a flat vector; a
// buffer sort on the compound (partition, key) achieves partitioning and
// per-partition order in one pass (paper §II-A).  This sort is the CPU
// overhead Table II exposes.  The hash path with a combiner folds into a
// HashTable (engine/hash_table.h) instead and never sorts; see MapTask.
//
// A buffer is owned by a single map-task thread (no sharing).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/slice.h"
#include "engine/job.h"

namespace opmr {

// One partition's contiguous byte range inside a map-output spill file.
struct Segment {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};

// A completed spill file of one map task: R contiguous partition segments.
struct MapOutputFile {
  int map_task = -1;
  std::filesystem::path path;
  bool sorted = false;  // segments internally sorted by key (sort-merge path)
  std::vector<Segment> partitions;
};

// --- Sort path ---------------------------------------------------------------

class MapOutputBuffer {
 public:
  struct RecordMeta {
    std::uint32_t partition;
    std::uint32_t key_len;
    std::uint32_t value_len;
    const char* key;  // into the arena; stable
    const char* value;
  };

  MapOutputBuffer() = default;

  void Add(std::uint32_t partition, Slice key, Slice value) {
    char* dst = arena_.Allocate(key.size() + value.size());
    std::memcpy(dst, key.data(), key.size());
    std::memcpy(dst + key.size(), value.data(), value.size());
    records_.push_back({partition, static_cast<std::uint32_t>(key.size()),
                        static_cast<std::uint32_t>(value.size()), dst,
                        dst + key.size()});
    payload_bytes_ += key.size() + value.size();
  }

  // Approximate resident bytes: payload + metadata.
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    return payload_bytes_ + records_.size() * sizeof(RecordMeta);
  }
  [[nodiscard]] std::size_t NumRecords() const noexcept {
    return records_.size();
  }
  [[nodiscard]] bool Empty() const noexcept { return records_.empty(); }

  // Hadoop's block-level sort on the compound (partition, key).  The caller
  // brackets this in the "map_sort" profiling phase — this is the CPU cost
  // Table II attributes to sorting.
  void Sort();

  // Records in current order (call Sort() first for partition/key order).
  [[nodiscard]] const std::vector<RecordMeta>& records() const noexcept {
    return records_;
  }

  void Clear() {
    records_.clear();
    arena_.Reset();
    payload_bytes_ = 0;
  }

 private:
  Arena arena_;
  std::vector<RecordMeta> records_;
  std::size_t payload_bytes_ = 0;
};

}  // namespace opmr
