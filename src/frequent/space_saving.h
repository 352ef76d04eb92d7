// Space-Saving (Metwally, Agrawal, El Abbadi 2005): the frequent-items
// summary used by the hot-key incremental reducer.  The paper's hot-key
// reducer (§V, reduce technique 3) "borrow[s] an existing online frequent
// algorithm to identify hot keys, and keep[s] hot keys in memory"; the
// store demotes the key this summary evicts (OfferAndEvict).
//
// Maintains exactly `capacity` monitored keys.  On an unmonitored arrival
// when full, the minimum-count entry is evicted and the newcomer inherits
// its count as the error bound.  Guarantees: for any key with true count
// f > N/capacity the key is monitored, and estimate - error <= f <= estimate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/slice.h"

namespace opmr {

struct HeavyHitter {
  std::string key;
  std::uint64_t count_estimate = 0;  // upper bound on the true count
  std::uint64_t error_bound = 0;     // count_estimate - error <= true count
};

class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity);

  // Observes `weight` occurrences of `key`.
  void Offer(Slice key, std::uint64_t weight = 1);

  // Estimated count for `key`; 0 if the key is not currently monitored.
  [[nodiscard]] std::uint64_t Estimate(Slice key) const;
  // True if `key` is currently one of the monitored (candidate-hot) keys.
  [[nodiscard]] bool IsMonitored(Slice key) const;
  // All monitored keys, most frequent first.
  [[nodiscard]] std::vector<HeavyHitter> Candidates() const;
  // Number of monitored keys / capacity of the summary.
  [[nodiscard]] std::size_t Size() const { return entries_.size(); }
  [[nodiscard]] std::size_t Capacity() const { return capacity_; }
  // Total stream weight observed.
  [[nodiscard]] std::uint64_t StreamLength() const { return n_; }

  // Error bound for a monitored key (0 if never recycled); part of the
  // (estimate, error) certificate Space-Saving provides.
  [[nodiscard]] std::uint64_t Error(Slice key) const;

  // Like Offer, but reports which key (if any) was evicted to admit this
  // one.  The hot-key reducer uses the eviction as its signal to demote the
  // victim's in-memory state to the cold spill file.
  std::optional<std::string> OfferAndEvict(Slice key, std::uint64_t weight = 1);

  // Checkpoint restore: re-installs a monitored entry with its exact
  // (count, error) certificate, without counting toward the stream length.
  // Replaces the key's entry if present; throws when the summary is full
  // and the key is new.
  void Restore(Slice key, std::uint64_t count, std::uint64_t error);

  // Checkpoint restore: resets the observed stream weight.
  void SetStreamLength(std::uint64_t n) noexcept { n_ = n; }

 private:
  struct Entry {
    std::string key;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
    std::size_t heap_pos = 0;  // position in min_heap_
  };

  void SiftUp(std::size_t pos);
  void SiftDown(std::size_t pos);

  std::size_t capacity_;
  std::uint64_t n_ = 0;
  // Monitored entries keyed by their bytes; the min-heap orders stable
  // Entry pointers by count (node-based map => addresses never move), so
  // heap maintenance swaps pointers, not strings.
  std::unordered_map<std::string, Entry, TransparentStringHash,
                     std::equal_to<>> entries_;
  std::vector<Entry*> min_heap_;
};

}  // namespace opmr
