#include "engine/map_output.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/rng.h"
#include "engine/aggregators.h"

namespace opmr {
namespace {

TEST(MapOutputBuffer, SortGroupsByPartitionThenKey) {
  MapOutputBuffer buffer;
  buffer.Add(1, "zebra", "1");
  buffer.Add(0, "alpha", "2");
  buffer.Add(1, "apple", "3");
  buffer.Add(0, "zulu", "4");
  buffer.Sort();

  const auto& records = buffer.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].partition, 0u);
  EXPECT_EQ(Slice(records[0].key, records[0].key_len).ToString(), "alpha");
  EXPECT_EQ(records[1].partition, 0u);
  EXPECT_EQ(Slice(records[1].key, records[1].key_len).ToString(), "zulu");
  EXPECT_EQ(records[2].partition, 1u);
  EXPECT_EQ(Slice(records[2].key, records[2].key_len).ToString(), "apple");
  EXPECT_EQ(records[3].partition, 1u);
  EXPECT_EQ(Slice(records[3].key, records[3].key_len).ToString(), "zebra");
}

TEST(MapOutputBuffer, KeyPrefixOrdering) {
  MapOutputBuffer buffer;
  buffer.Add(0, "ab", "");
  buffer.Add(0, "a", "");
  buffer.Add(0, "abc", "");
  buffer.Sort();
  const auto& r = buffer.records();
  EXPECT_EQ(Slice(r[0].key, r[0].key_len).ToString(), "a");
  EXPECT_EQ(Slice(r[1].key, r[1].key_len).ToString(), "ab");
  EXPECT_EQ(Slice(r[2].key, r[2].key_len).ToString(), "abc");
}

TEST(MapOutputBuffer, ValuesTravelWithKeys) {
  // The sort orders by key only; values of equal keys may appear in any
  // order, so compare as multisets of (key, value) pairs.
  MapOutputBuffer buffer;
  Rng rng(1);
  std::vector<std::pair<std::string, std::string>> expected;
  for (int i = 0; i < 1000; ++i) {
    const std::string k = "k" + std::to_string(rng.Uniform(50));
    const std::string v = "v" + std::to_string(i);
    expected.emplace_back(k, v);
    buffer.Add(0, k, v);
  }
  buffer.Sort();
  std::vector<std::pair<std::string, std::string>> actual;
  for (const auto& r : buffer.records()) {
    actual.emplace_back(Slice(r.key, r.key_len).ToString(),
                        Slice(r.value, r.value_len).ToString());
  }
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

TEST(MapOutputBuffer, MemoryAccountingAndClear) {
  MapOutputBuffer buffer;
  EXPECT_TRUE(buffer.Empty());
  buffer.Add(0, "1234", "567890");
  EXPECT_EQ(buffer.NumRecords(), 1u);
  EXPECT_GE(buffer.MemoryBytes(), 10u);
  buffer.Clear();
  EXPECT_TRUE(buffer.Empty());
  EXPECT_LT(buffer.MemoryBytes(), 10u);
}

}  // namespace
}  // namespace opmr
