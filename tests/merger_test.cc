#include "storage/merger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metrics/counters.h"
#include "storage/file_manager.h"
#include "storage/record_stream.h"

namespace opmr {
namespace {

class MergerTest : public ::testing::Test {
 protected:
  MergerTest() : files_(FileManager::CreateTemp("opmr-merge")) {}

  IoChannel Channel() { return {&metrics_, "m.bytes"}; }

  // Writes a sorted run of the given (key, value) pairs.
  std::filesystem::path WriteRun(
      std::vector<std::pair<std::string, std::string>> records) {
    std::sort(records.begin(), records.end());
    RunWriter w(files_.NewFile("run"), Channel());
    for (const auto& [k, v] : records) w.Append(k, v);
    const auto path = w.path();
    w.Close();
    return path;
  }

  FileManager files_;
  MetricRegistry metrics_;
};

TEST_F(MergerTest, MergesTwoRunsInOrder) {
  auto r1 = WriteRun({{"a", "1"}, {"c", "3"}, {"e", "5"}});
  auto r2 = WriteRun({{"b", "2"}, {"d", "4"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<RunReader>(r1, Channel()));
  inputs.push_back(std::make_unique<RunReader>(r2, Channel()));
  KWayMerger merger(std::move(inputs));

  std::string out;
  while (merger.Next()) out += merger.key().ToString();
  EXPECT_EQ(out, "abcde");
}

TEST_F(MergerTest, MatchesReferenceSortOnRandomRuns) {
  Rng rng(42);
  std::vector<std::pair<std::string, std::string>> all;
  std::vector<std::unique_ptr<RecordStream>> inputs;
  for (int run = 0; run < 12; ++run) {
    std::vector<std::pair<std::string, std::string>> records;
    const int n = 1 + static_cast<int>(rng.Uniform(300));
    for (int i = 0; i < n; ++i) {
      std::string key =
          std::string("k").append(std::to_string(rng.Uniform(1000)));
      std::string value =
          std::string("v").append(std::to_string(rng.Next() % 100));
      records.emplace_back(key, value);
      all.emplace_back(key, value);
    }
    inputs.push_back(std::make_unique<RunReader>(WriteRun(records),
                                                 Channel()));
  }
  KWayMerger merger(std::move(inputs));

  std::vector<std::string> merged_keys;
  std::size_t count = 0;
  while (merger.Next()) {
    merged_keys.push_back(merger.key().ToString());
    ++count;
  }
  EXPECT_EQ(count, all.size());
  EXPECT_TRUE(std::is_sorted(merged_keys.begin(), merged_keys.end()));
}

TEST_F(MergerTest, DuplicateKeysAllSurvive) {
  auto r1 = WriteRun({{"k", "a"}, {"k", "b"}});
  auto r2 = WriteRun({{"k", "c"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<RunReader>(r1, Channel()));
  inputs.push_back(std::make_unique<RunReader>(r2, Channel()));
  KWayMerger merger(std::move(inputs));
  int n = 0;
  while (merger.Next()) {
    EXPECT_EQ(merger.key().ToString(), "k");
    ++n;
  }
  EXPECT_EQ(n, 3);
}

TEST_F(MergerTest, EmptyAndMissingInputsHandled) {
  auto empty = WriteRun({});
  auto r = WriteRun({{"x", "1"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<RunReader>(empty, Channel()));
  inputs.push_back(std::make_unique<RunReader>(r, Channel()));
  KWayMerger merger(std::move(inputs));
  ASSERT_TRUE(merger.Next());
  EXPECT_EQ(merger.key().ToString(), "x");
  EXPECT_FALSE(merger.Next());
}

TEST_F(MergerTest, NoInputsMeansEmptyStream) {
  KWayMerger merger({});
  EXPECT_FALSE(merger.Next());
}

TEST_F(MergerTest, StableTieBreakByInputIndex) {
  // Equal keys must be yielded in input order (Hadoop merge is stable with
  // respect to run order).
  auto r1 = WriteRun({{"k", "first"}});
  auto r2 = WriteRun({{"k", "second"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<RunReader>(r1, Channel()));
  inputs.push_back(std::make_unique<RunReader>(r2, Channel()));
  KWayMerger merger(std::move(inputs));
  ASSERT_TRUE(merger.Next());
  EXPECT_EQ(merger.value().ToString(), "first");
  ASSERT_TRUE(merger.Next());
  EXPECT_EQ(merger.value().ToString(), "second");
}

TEST_F(MergerTest, ComparisonCounterAdvances) {
  auto r1 = WriteRun({{"a", ""}, {"c", ""}});
  auto r2 = WriteRun({{"b", ""}, {"d", ""}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<RunReader>(r1, Channel()));
  inputs.push_back(std::make_unique<RunReader>(r2, Channel()));
  KWayMerger merger(std::move(inputs));
  while (merger.Next()) {
  }
  EXPECT_GT(merger.comparisons(), 0u);
}

TEST_F(MergerTest, MergeRunsToFileProducesSortedRun) {
  std::vector<std::filesystem::path> paths;
  paths.push_back(WriteRun({{"b", "2"}, {"d", "4"}}));
  paths.push_back(WriteRun({{"a", "1"}, {"c", "3"}}));
  const auto out = files_.NewFile("merged");
  const auto n = MergeRunsToFile(paths, out, Channel(), Channel());
  EXPECT_EQ(n, 4u);

  RunReader r(out, Channel());
  std::string keys;
  while (r.Next()) keys += r.key().ToString();
  EXPECT_EQ(keys, "abcd");
}

TEST_F(MergerTest, MemoryRunStreamParsesFrames) {
  std::string blob;
  AppendU32(blob, 1);
  AppendU32(blob, 2);
  blob += "k";
  blob += "vv";
  AppendU32(blob, 2);
  AppendU32(blob, 0);
  blob += "ab";
  MemoryRunStream stream{Slice(blob)};
  ASSERT_TRUE(stream.Next());
  EXPECT_EQ(stream.key().ToString(), "k");
  EXPECT_EQ(stream.value().ToString(), "vv");
  ASSERT_TRUE(stream.Next());
  EXPECT_EQ(stream.key().ToString(), "ab");
  EXPECT_TRUE(stream.value().empty());
  EXPECT_FALSE(stream.Next());
}

TEST_F(MergerTest, MemoryRunStreamRejectsTruncation) {
  std::string blob;
  AppendU32(blob, 10);
  AppendU32(blob, 10);
  blob += "short";
  MemoryRunStream stream{Slice(blob)};
  EXPECT_THROW(stream.Next(), std::runtime_error);

  std::string header_only = "\x01";
  MemoryRunStream stream2{Slice(header_only)};
  EXPECT_THROW(stream2.Next(), std::runtime_error);
}

TEST_F(MergerTest, MergeOfMemoryAndFileStreams) {
  std::string blob;
  AppendU32(blob, 1);
  AppendU32(blob, 1);
  blob += "b";
  blob += "2";
  auto file_run = WriteRun({{"a", "1"}, {"c", "3"}});

  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<RunReader>(file_run, Channel()));
  inputs.push_back(std::make_unique<MemoryRunStream>(Slice(blob)));
  KWayMerger merger(std::move(inputs));
  std::string keys;
  while (merger.Next()) keys += merger.key().ToString();
  EXPECT_EQ(keys, "abc");
}

}  // namespace
}  // namespace opmr
