#include "engine/hash_table.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace opmr {

bool HashTable::Extract(std::uint64_t hash, Slice key, std::string* state,
                        bool* early_emitted) {
  if (aggregator_ == nullptr) ThrowWrongKind("Extract");
  if (entries_.empty()) return false;
  std::size_t pos = Probe(hash, key);
  if (slots_[pos] == 0) return false;
  const std::size_t idx = slots_[pos] - 1;
  Entry& e = entries_[idx];
  heap_bytes_ -= HeapBytes(e.state);
  dead_key_bytes_ += e.key.size();
  *state = std::move(e.state);
  if (early_emitted != nullptr) *early_emitted = e.early_emitted;

  // Backward-shift delete: each later key of the probe run moves back
  // into the hole unless its home slot lies between the hole and it.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t next = (pos + 1) & mask; slots_[next] != 0;
       next = (next + 1) & mask) {
    const std::size_t home = Home(entries_[slots_[next] - 1].hash);
    if (((next - home) & mask) >= ((next - pos) & mask)) {
      slots_[pos] = slots_[next];
      pos = next;
    }
  }
  slots_[pos] = 0;

  // Swap-remove: the last entry fills the freed place.
  const std::size_t last = entries_.size() - 1;
  if (idx != last) {
    std::size_t at = Home(entries_[last].hash);
    while (slots_[at] != last + 1) at = (at + 1) & mask;
    slots_[at] = static_cast<std::uint32_t>(idx + 1);
    entries_[idx] = std::move(entries_[last]);
  }
  entries_.pop_back();

  if (entries_.empty()) {
    Clear();
  } else if (dead_key_bytes_ > arena_.used_bytes() - dead_key_bytes_) {
    CompactArena();
  }
  return true;
}

void HashTable::Clear() {
  slots_ = std::vector<std::uint32_t>();
  entries_ = std::vector<Entry>();
  arena_.Reset();
  shift_ = 64;
  heap_bytes_ = 0;
  dead_key_bytes_ = 0;
}

void HashTable::Grow() {
  const std::size_t n = std::max(kMinSlots, slots_.size() * 2);
  slots_.assign(n, 0);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
  const std::size_t mask = n - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t pos = Home(entries_[i].hash);
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = static_cast<std::uint32_t>(i + 1);
  }
}

void HashTable::CompactArena() {
  // Only state tables remove keys, so the arena holds keys alone.
  Arena fresh(kArenaChunkBytes);
  for (auto& e : entries_) e.key = fresh.Copy(e.key);
  arena_ = std::move(fresh);
  dead_key_bytes_ = 0;
}

void HashTable::ThrowWrongKind(const char* op) const {
  throw std::invalid_argument(
      std::string("HashTable::") + op +
      (aggregator_ == nullptr ? " needs a table built with an aggregator"
                              : " needs a value-list table"));
}

}  // namespace opmr
