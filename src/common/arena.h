// Arena allocator: the core of the paper's byte-array memory-management
// library.  Two kinds of owner allocate from arenas: the sort path's
// MapOutputBuffer (every record's key and value bytes) and the engine's
// HashTable (every key, and the values of value-list tables).  Aggregator
// states stay std::string, one per key, held by the table's entry.  A
// whole arena is released in O(1), and no per-record allocation reaches
// the general-purpose heap.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "common/slice.h"

namespace opmr {

// Bump allocator over a chain of fixed-size chunks.  Not thread-safe by
// design: each task thread owns its arenas (CP.2 — avoid sharing).
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 1 << 20;  // 1 MiB

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  // Allocates `n` bytes (unaligned; byte data only).  Returns a stable
  // pointer: chunks are never reallocated, so slices into the arena remain
  // valid until Reset()/destruction.
  char* Allocate(std::size_t n) {
    if (n > chunk_bytes_) {
      // Oversized allocation gets a dedicated chunk so we never waste more
      // than one partial chunk of slack.
      auto& chunk = *chunks_.emplace(chunks_.end() - (chunks_.empty() ? 0 : 1),
                                     std::make_unique<char[]>(n));
      allocated_ += n;
      return chunk.get();
    }
    if (pos_ + n > cap_) {
      chunks_.push_back(std::make_unique<char[]>(chunk_bytes_));
      pos_ = 0;
      cap_ = chunk_bytes_;
      allocated_ += chunk_bytes_;
    }
    char* out = chunks_.back().get() + pos_;
    pos_ += n;
    return out;
  }

  // Copies `src` into the arena and returns a stable view of the copy.
  Slice Copy(Slice src) {
    if (src.empty()) return {};
    char* dst = Allocate(src.size());
    std::memcpy(dst, src.data(), src.size());
    return {dst, src.size()};
  }

  // Bytes reserved from the OS (an upper bound on bytes handed out).
  [[nodiscard]] std::size_t allocated_bytes() const noexcept {
    return allocated_;
  }
  // Bytes actually handed out to callers in the current chunk chain.
  [[nodiscard]] std::size_t used_bytes() const noexcept {
    return allocated_ - (cap_ - pos_);
  }

  // Releases everything allocated so far.  All Slices into the arena are
  // invalidated.
  void Reset() {
    chunks_.clear();
    pos_ = cap_ = 0;
    allocated_ = 0;
  }

 private:
  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t pos_ = 0;
  std::size_t cap_ = 0;
  std::size_t allocated_ = 0;
};

}  // namespace opmr
