// Correctness check for the one-pass job benchmark.
//
// A single-threaded reference runs a workload's own MapFn and ReduceFn (or
// Aggregator) over the input's DFS blocks, groups with a std::map, and
// reduces every row it produces to a row-multiset digest.  Every timed
// job's output is reduced the same way and must match.  The digest is
// order-independent on purpose: the engine makes no promise about row
// order across reducer parts, and sessionization's unstable sort may
// reorder rows that share a timestamp.
#pragma once

#include <cstdint>
#include <string>

#include "core/opmr.h"

namespace perfbench {

// How a row's value is compared.
enum class Canon {
  kExact,
  // The value is a space-separated posting list whose order follows value
  // arrival, which the runtimes do not fix; compare it as a multiset.
  kPostingSet,
};

// Order-independent digest of a multiset of (key, value) rows: row count,
// byte count, and two sums of independent 64-bit row hashes.
struct RowDigest {
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sum_a = 0;
  std::uint64_t sum_b = 0;

  void Add(opmr::Slice key, opmr::Slice value, Canon canon);
  friend bool operator==(const RowDigest&, const RowDigest&) = default;
};

// Digest of a finished job's output, read back one reducer part at a time.
[[nodiscard]] RowDigest OutputDigest(opmr::Platform& platform,
                                     const opmr::JobSpec& spec, Canon canon);

struct ReferenceResult {
  RowDigest digest;
  double seconds = 0;  // wall time of the single-threaded run
};

// Runs the single-threaded reference for `spec` over `dfs` in a forked
// child, so that its time and memory stay out of this process's metrics.
// Must be called while this process runs no other threads.  Throws if the
// child fails.
[[nodiscard]] ReferenceResult RunReferenceInChild(const opmr::Dfs& dfs,
                                                  const opmr::JobSpec& spec,
                                                  Canon canon);

}  // namespace perfbench
