// BlockCache — bounded LRU reducer-side cache of retained shuffle blocks.
//
// Checkpointed push-shuffle runs retain every consumed item until a
// checkpoint covers it; when the retention budget overflows, items spill
// to per-item retain files (see ShuffleService::SpillRetainedLocked).  A
// reduce-attempt restart rewinds the shuffle to the last acked watermark
// and re-reads those spill files — cold, random I/O on the recovery
// critical path.  This cache keeps the spilled payloads (bounded by
// capacity_bytes, LRU-evicted) keyed by
//
//   (job, sender map task, block sequence, CRC-32C of the payload)
//
// so a rewound fetch is served from memory; the CRC in the key means a
// stale or corrupt entry can never silently satisfy a lookup for
// different bytes.  Entries are pinned via shared_ptr: eviction never
// invalidates a payload a reader is still consuming.
//
// Thread-safe.  Hit/miss/evict counters feed JobResult.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "metrics/counters.h"

namespace opmr::dataplane {

// Metric names charged by the cache (surfaced in the job report).
inline constexpr const char* kBlockCacheHits = "blockcache.hits";
inline constexpr const char* kBlockCacheMisses = "blockcache.misses";
inline constexpr const char* kBlockCacheEvictions = "blockcache.evictions";
inline constexpr const char* kBlockCacheInserts = "blockcache.inserts";

struct BlockCacheKey {
  std::string job;
  std::int32_t sender = -1;    // originating map task
  std::uint64_t block_seq = 0; // retain-file sequence within the run
  std::uint32_t crc = 0;       // CRC-32C of the payload bytes
};

class BlockCache {
 public:
  // `metrics` may be null (counters are then kept internally only).
  explicit BlockCache(std::size_t capacity_bytes,
                      MetricRegistry* metrics = nullptr);

  // Inserts (or refreshes) an entry; evicts LRU entries until the cache
  // fits the capacity.  An entry larger than the whole capacity is not
  // admitted.
  void Insert(const BlockCacheKey& key,
              std::shared_ptr<const std::string> bytes);

  // Returns the payload or nullptr; counts a hit or a miss and marks the
  // entry most-recently-used.
  [[nodiscard]] std::shared_ptr<const std::string> Lookup(
      const BlockCacheKey& key);

  // Drops an entry if present (the retained item was acknowledged and its
  // spill file deleted — nothing can ever ask for it again).
  void Erase(const BlockCacheKey& key);

  [[nodiscard]] std::size_t size_bytes() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::int64_t hits() const { return hits_->value(); }
  [[nodiscard]] std::int64_t misses() const { return misses_->value(); }
  [[nodiscard]] std::int64_t evictions() const { return evictions_->value(); }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const std::string> bytes;
  };
  using LruList = std::list<Entry>;

  static std::string Encode(const BlockCacheKey& key);
  void EvictToFitLocked();

  const std::size_t capacity_bytes_;
  MetricRegistry* metrics_;  // may be null
  Counter owned_counters_[4];
  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  Counter* inserts_;

  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<std::string, LruList::iterator> index_;
  std::size_t bytes_ = 0;
};

}  // namespace opmr::dataplane
