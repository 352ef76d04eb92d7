// The declared job metrics: one table (job_metrics.cc) naming every counter
// a job report shows — its report label, unit, and group — from which the
// CLI report rows and the ablation CSV columns are generated.  A JobResult
// keeps only the counter snapshot; adding a reported counter is one table
// entry.
#pragma once

#include <string>
#include <vector>

namespace opmr {

struct JobResult;

// Recovery counters charged by the executor (retries, map speculation) and
// the incremental reducer (checkpoint-seeded reduce speculation).
inline constexpr const char* kRetryMapTask = "retry.map_task";
inline constexpr const char* kRetryReduceTask = "retry.reduce_task";
inline constexpr const char* kRetryBackoffMs = "retry.backoff_ms";
inline constexpr const char* kSpecLaunched = "speculation.launched";
inline constexpr const char* kSpecWins = "speculation.wins";
inline constexpr const char* kSpecReduceLaunched =
    "speculation.reduce_launched";
inline constexpr const char* kSpecReduceSeeded = "speculation.reduce_seeded";
inline constexpr const char* kSpecReduceWins = "speculation.reduce_wins";

// Report groups.  kCore always prints; every other group prints only when
// one of its counters is nonzero (all zero on a clean direct run).
enum class MetricGroup {
  kCore,
  kRecovery,
  kCheckpoint,
  kWire,
  kDataPlane,
  kCoded,
};

// {label, value} rows of kCore and of every group with a nonzero counter,
// in table order.  Bytes print humanized, µs/ns as seconds.
[[nodiscard]] std::vector<std::vector<std::string>> JobMetricRows(
    const JobResult& result);

// One group's CSV columns: the counter names, and their raw values.
[[nodiscard]] std::vector<std::string> MetricCsvHeader(MetricGroup group);
[[nodiscard]] std::vector<std::string> MetricCsvCells(const JobResult& result,
                                                      MetricGroup group);

}  // namespace opmr
