// Declared job metrics (engine/job_metrics.h): the one table the job report
// rows and the ablation CSV columns are generated from.
#include "engine/job_metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/format.h"
#include "core/opmr.h"
#include "net/transport.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

constexpr MetricGroup kGroups[] = {
    MetricGroup::kCore, MetricGroup::kRecovery, MetricGroup::kCheckpoint,
    MetricGroup::kWire, MetricGroup::kDataPlane, MetricGroup::kCoded};

// Value of the report row labelled `label`, or "" when it is not printed.
std::string RowValue(const JobResult& r, const std::string& label) {
  for (const auto& row : JobMetricRows(r)) {
    if (row.at(0) == label) return row.at(1);
  }
  return "";
}

// A result in which every declared counter holds a distinct nonzero value,
// so every group prints and a column order mismatch shows.
JobResult AllCountersSet() {
  JobResult r;
  std::int64_t next = 1;
  for (MetricGroup g : kGroups) {
    for (const auto& counter : MetricCsvHeader(g)) r.counters[counter] = next++;
  }
  return r;
}

TEST(JobMetrics, EveryCounterAndLabelIsDeclaredOnce) {
  const JobResult r = AllCountersSet();
  std::set<std::string> labels;
  for (const auto& row : JobMetricRows(r)) {
    EXPECT_TRUE(labels.insert(row.at(0)).second) << row.at(0);
  }
  std::size_t columns = 0;
  for (MetricGroup g : kGroups) {
    EXPECT_FALSE(MetricCsvHeader(g).empty()) << static_cast<int>(g);
    columns += MetricCsvHeader(g).size();
  }
  EXPECT_EQ(r.counters.size(), columns);  // no counter in two groups
  EXPECT_EQ(labels.size(), columns);      // one report row per counter
}

TEST(JobMetrics, CsvHeaderAndCellsAlignPerGroup) {
  const JobResult r = AllCountersSet();
  for (MetricGroup g : kGroups) {
    const auto header = MetricCsvHeader(g);
    const auto cells = MetricCsvCells(r, g);
    ASSERT_EQ(header.size(), cells.size()) << static_cast<int>(g);
    for (std::size_t i = 0; i < header.size(); ++i) {
      EXPECT_EQ(cells[i], std::to_string(r.Bytes(header[i]))) << header[i];
    }
  }
  EXPECT_EQ(MetricCsvHeader(MetricGroup::kRecovery).front(), kRetryMapTask);
}

TEST(JobMetrics, ZeroGroupsAreHiddenAndANonzeroCounterShowsItsGroup) {
  JobResult clean;
  const auto core_rows = JobMetricRows(clean);
  EXPECT_EQ(core_rows.size(), MetricCsvHeader(MetricGroup::kCore).size());
  EXPECT_EQ(RowValue(clean, "dfs read"), "0 B");
  EXPECT_EQ(RowValue(clean, "faults injected"), "");

  JobResult wire;
  wire.counters[net::kNetFramesReceived] = 7;
  EXPECT_EQ(RowValue(wire, "net frames received"), "7");
  EXPECT_EQ(RowValue(wire, "net frames sent"), "0");  // whole group prints
  EXPECT_EQ(RowValue(wire, "map task retries"), "");
  EXPECT_EQ(RowValue(wire, "blocks sent"), "");
  EXPECT_EQ(JobMetricRows(wire).size(),
            core_rows.size() + MetricCsvHeader(MetricGroup::kWire).size());
}

TEST(JobMetrics, TimeCountersPrintAsSeconds) {
  JobResult r;
  r.counters[kCheckpointRecoverUs] = 1'500'000;
  r.counters[net::kNetStallNanos] = 40'000'000;
  EXPECT_EQ(RowValue(r, "recover time"), HumanSeconds(1.5));
  EXPECT_EQ(RowValue(r, "net stall time"), HumanSeconds(0.04));
  // CSV cells stay raw counter values, under the counter's own name.
  const auto header = MetricCsvHeader(MetricGroup::kCheckpoint);
  const auto at = std::find(header.begin(), header.end(),
                            std::string(kCheckpointRecoverUs));
  ASSERT_NE(at, header.end());
  EXPECT_EQ(MetricCsvCells(r, MetricGroup::kCheckpoint)
                .at(static_cast<std::size_t>(at - header.begin())),
            "1500000");
}

TEST(JobMetrics, ExecutorChargesTheDeclaredRecoveryCounters) {
  // A retried map crash lands in the report through the same constants the
  // executor and the fault injector increment.
  PlatformOptions popts;
  popts.num_nodes = 2;
  popts.max_task_attempts = 3;
  popts.retry_backoff_base_ms = 0.1;
  popts.retry_backoff_max_ms = 1.0;
  popts.fault_plan = "seed=5;map_crash:task=0,record=100";
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 5'000;
  gen.num_users = 200;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  const JobResult r =
      platform.Run(PerUserCountJob("clicks", "out", 2), HadoopOptions());
  EXPECT_EQ(r.Bytes(kRetryMapTask), 1);
  EXPECT_EQ(RowValue(r, "map task retries"), "1");
  EXPECT_EQ(RowValue(r, "faults injected"), "1");
  EXPECT_EQ(RowValue(r, "net frames sent"), "");  // direct path: no wire
}

}  // namespace
}  // namespace opmr
