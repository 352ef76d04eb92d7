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

class MapCombineTableTest : public ::testing::Test {
 protected:
  SumAggregator sum_;
};

TEST_F(MapCombineTableTest, FoldsValuesIntoStates) {
  MapCombineTable table(&sum_);
  table.Fold(0, "a", EncodeValueU64(2), false);
  table.Fold(0, "a", EncodeValueU64(3), false);
  table.Fold(0, "b", EncodeValueU64(10), false);
  EXPECT_EQ(table.NumKeys(), 2u);

  std::map<std::string, std::uint64_t> got;
  for (const auto* e : table.EntriesByPartition()) {
    got[e->key.ToString()] = DecodeU64(e->state.data());
  }
  EXPECT_EQ(got.at("a"), 5u);
  EXPECT_EQ(got.at("b"), 10u);
}

TEST_F(MapCombineTableTest, MergesStatesWhenFlagged) {
  MapCombineTable table(&sum_);
  table.Fold(0, "k", EncodeValueU64(7), /*value_is_state=*/true);
  table.Fold(0, "k", EncodeValueU64(8), /*value_is_state=*/true);
  EXPECT_EQ(DecodeU64(table.EntriesByPartition()[0]->state.data()), 15u);
}

TEST_F(MapCombineTableTest, SameKeyDifferentPartitionsAreDistinct) {
  // With a key-derived partitioner this never happens, but the table must
  // stay correct for any partitioner.
  MapCombineTable table(&sum_);
  table.Fold(0, "k", EncodeValueU64(1), false);
  table.Fold(1, "k", EncodeValueU64(2), false);
  EXPECT_EQ(table.NumKeys(), 2u);
}

TEST_F(MapCombineTableTest, EntriesByPartitionIsGrouped) {
  MapCombineTable table(&sum_);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    table.Fold(static_cast<std::uint32_t>(rng.Uniform(7)),
               std::string("k").append(std::to_string(rng.Uniform(100))),
               EncodeValueU64(1), false);
  }
  const auto entries = table.EntriesByPartition();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LE(entries[i - 1]->partition, entries[i]->partition);
  }
}

TEST_F(MapCombineTableTest, GrowsPastInitialCapacity) {
  MapCombineTable table(&sum_, /*initial_slots=*/8);
  for (int i = 0; i < 10'000; ++i) {
    table.Fold(0, "key-" + std::to_string(i), EncodeValueU64(1), false);
  }
  EXPECT_EQ(table.NumKeys(), 10'000u);
  // And every key is still reachable with the right value.
  std::size_t checked = 0;
  for (const auto* e : table.EntriesByPartition()) {
    EXPECT_EQ(DecodeU64(e->state.data()), 1u);
    ++checked;
  }
  EXPECT_EQ(checked, 10'000u);
}

TEST_F(MapCombineTableTest, MatchesReferenceUnderRandomFolds) {
  MapCombineTable table(&sum_);
  Rng rng(3);
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> expected;
  for (int i = 0; i < 20'000; ++i) {
    const auto p = static_cast<std::uint32_t>(rng.Uniform(4));
    const std::string k =
        std::string("u").append(std::to_string(rng.Uniform(300)));
    const std::uint64_t w = 1 + rng.Uniform(9);
    expected[{p, k}] += w;
    table.Fold(p, k, EncodeValueU64(w), false);
  }
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> actual;
  for (const auto* e : table.EntriesByPartition()) {
    actual[{e->partition, e->key.ToString()}] = DecodeU64(e->state.data());
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(MapCombineTableTest, HashOverloadAgreesWithConvenience) {
  MapCombineTable t1(&sum_), t2(&sum_);
  const Slice key("shared-key");
  t1.Fold(2, key, EncodeValueU64(5), false);
  t2.Fold(2, BytesHash(key), key, EncodeValueU64(5), false);
  EXPECT_EQ(t1.EntriesByPartition()[0]->state,
            t2.EntriesByPartition()[0]->state);
}

TEST_F(MapCombineTableTest, ClearResets) {
  MapCombineTable table(&sum_);
  table.Fold(0, "x", EncodeValueU64(1), false);
  table.Clear();
  EXPECT_TRUE(table.Empty());
  table.Fold(0, "x", EncodeValueU64(3), false);
  EXPECT_EQ(DecodeU64(table.EntriesByPartition()[0]->state.data()), 3u);
}

TEST_F(MapCombineTableTest, MemoryGrowsWithKeys) {
  MapCombineTable table(&sum_);
  const auto before = table.MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    table.Fold(0, "key-" + std::to_string(i), EncodeValueU64(1), false);
  }
  EXPECT_GT(table.MemoryBytes(), before + 1000);
}

TEST_F(MapCombineTableTest, RequiresAggregatorAndPow2Slots) {
  EXPECT_THROW(MapCombineTable(nullptr), std::invalid_argument);
  EXPECT_THROW(MapCombineTable(&sum_, 100), std::invalid_argument);
}

}  // namespace
}  // namespace opmr
