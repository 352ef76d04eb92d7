// HashTable: the one hash table of the hash runtimes (paper §V), the
// primitive that folds records into per-key state.  The map-side combiner,
// the hybrid-hash reducer, external hash aggregation and the incremental
// store (and through it the streaming worker) all use it.
//
// Open addressing with linear probing over a slot array that indexes a
// dense entry vector.  Keys are copied once into the table's arena, as
// are the values of value lists, so no per-key object reaches the
// general-purpose heap (the byte-array memory library of Fig. 5).  The
// caller hashes each key once and passes the hash in; the home slot comes
// from the hash's high bits, so a caller may derive a partition or bucket
// from its low bits without clustering the table.
//
// Two payload kinds, fixed at construction:
//   * state tables (an aggregator is given): each key holds an aggregator
//     state, folded in place, and an early-emitted mark;
//   * value-list tables (no aggregator): each key holds every value, in
//     arrival order, as a contiguous list of arena slices.
//
// A single thread owns a table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/slice.h"
#include "engine/job.h"

namespace opmr {

class HashTable {
 public:
  struct Entry {
    std::uint64_t hash = 0;
    Slice key;                   // in the arena
    std::string state;           // state tables
    std::vector<Slice> values;   // value-list tables; slices into the arena
    bool early_emitted = false;  // state tables: the early answer fired
  };

  // A state table when `aggregator` is non-null, else a value-list table.
  explicit HashTable(const Aggregator* aggregator) : aggregator_(aggregator) {}

  // State tables: folds `value` into the key's state (Init on first
  // sight; Merge instead of Update when `value_is_state`).  The entry is
  // valid until the next mutating call.
  Entry& Fold(std::uint64_t hash, Slice key, Slice value,
              bool value_is_state) {
    if (aggregator_ == nullptr) ThrowWrongKind("Fold");
    bool inserted;
    Entry& e = FindOrInsert(hash, key, &inserted);
    const std::size_t before = HeapBytes(e.state);
    if (inserted && value_is_state) {
      e.state.assign(value.data(), value.size());
    } else if (inserted) {
      aggregator_->Init(value, &e.state);
    } else if (value_is_state) {
      aggregator_->Merge(&e.state, value);
    } else {
      aggregator_->Update(&e.state, value);
    }
    heap_bytes_ = heap_bytes_ - before + HeapBytes(e.state);
    return e;
  }

  // Value-list tables: appends an arena copy of `value` to the key's list.
  void Append(std::uint64_t hash, Slice key, Slice value) {
    if (aggregator_ != nullptr) ThrowWrongKind("Append");
    bool inserted;
    Entry& e = FindOrInsert(hash, key, &inserted);
    const std::size_t before = e.values.capacity();
    e.values.push_back(arena_.Copy(value));
    heap_bytes_ += (e.values.capacity() - before) * sizeof(Slice);
  }

  // nullptr when absent; valid until the next mutating call.
  [[nodiscard]] const Entry* Find(std::uint64_t hash, Slice key) const {
    if (entries_.empty()) return nullptr;
    const std::uint32_t idx = slots_[Probe(hash, key)];
    return idx == 0 ? nullptr : &entries_[idx - 1];
  }

  // State tables: removes the key, moving its state (and its early-emitted
  // mark, when asked) out; false when absent.  The last entry moves into
  // the freed place, so removal reorders entries().
  bool Extract(std::uint64_t hash, Slice key, std::string* state,
               bool* early_emitted = nullptr);

  // Every entry, densely.  Insertion order until the first Extract.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  // What the table holds: the slot array, the entries, the arena bytes in
  // use (live and dead keys, values) and the states and value lists that
  // live out of line.  Reserved but unused arena bytes are not charged.
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    return slots_.size() * sizeof(std::uint32_t) +
           entries_.size() * sizeof(Entry) + arena_.used_bytes() +
           heap_bytes_;
  }

  // Drops every entry and releases the table's memory.
  void Clear();

 private:
  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::size_t kArenaChunkBytes = 16u << 10;

  // A string's inline buffer holds as much as an empty string's capacity.
  static inline const std::size_t kInlineCapacity = std::string().capacity();

  // Heap bytes behind a state string; 0 while it fits the inline buffer.
  static std::size_t HeapBytes(const std::string& s) noexcept {
    return s.capacity() > kInlineCapacity ? s.capacity() + 1 : 0;
  }
  [[noreturn]] void ThrowWrongKind(const char* op) const;

  [[nodiscard]] std::size_t Home(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> shift_);
  }
  // The slot holding `key`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t Probe(std::uint64_t hash, Slice key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t pos = Home(hash);; pos = (pos + 1) & mask) {
      const std::uint32_t idx = slots_[pos];
      if (idx == 0) return pos;
      const Entry& e = entries_[idx - 1];
      if (e.hash == hash && e.key == key) return pos;
    }
  }
  Entry& FindOrInsert(std::uint64_t hash, Slice key, bool* inserted) {
    if ((entries_.size() + 1) * 2 > slots_.size()) Grow();
    const std::size_t pos = Probe(hash, key);
    *inserted = slots_[pos] == 0;
    if (!*inserted) return entries_[slots_[pos] - 1];
    slots_[pos] = static_cast<std::uint32_t>(entries_.size() + 1);
    Entry& e = entries_.emplace_back();
    e.hash = hash;
    e.key = arena_.Copy(key);
    return e;
  }
  void Grow();
  void CompactArena();

  const Aggregator* aggregator_;
  Arena arena_{kArenaChunkBytes};
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
  std::vector<Entry> entries_;
  unsigned shift_ = 64;             // Home = hash >> shift_; set by Grow
  std::size_t heap_bytes_ = 0;      // out-of-line states and value lists
  std::size_t dead_key_bytes_ = 0;  // arena bytes of extracted keys
};

}  // namespace opmr
