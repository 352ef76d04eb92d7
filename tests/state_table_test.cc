#include "engine/state_table.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "engine/aggregators.h"

namespace opmr {
namespace {

class StateTableTest : public ::testing::Test {
 protected:
  SumAggregator sum_;
};

TEST_F(StateTableTest, FoldInitializesThenUpdates) {
  StateTable table(&sum_);
  table.Fold("k", EncodeValueU64(2), false);
  auto& entry = table.Fold("k", EncodeValueU64(3), false);
  EXPECT_EQ(DecodeU64(entry.state.data()), 5u);
  EXPECT_EQ(table.size(), 1u);
}

TEST_F(StateTableTest, FoldMergesStatesWhenFlagged) {
  StateTable table(&sum_);
  table.Fold("k", EncodeValueU64(10), true);
  auto& entry = table.Fold("k", EncodeValueU64(20), true);
  EXPECT_EQ(DecodeU64(entry.state.data()), 30u);
}

TEST_F(StateTableTest, ExtractRemovesAndReturnsState) {
  StateTable table(&sum_);
  table.Fold("gone", EncodeValueU64(7), false);
  std::string state;
  EXPECT_TRUE(table.Extract("gone", &state));
  EXPECT_EQ(DecodeU64(state.data()), 7u);
  EXPECT_FALSE(table.Contains("gone"));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Extract("gone", &state));
}

TEST_F(StateTableTest, MemoryAccountingRisesAndFallsConsistently) {
  StateTable table(&sum_);
  EXPECT_EQ(table.MemoryBytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    table.Fold("key-" + std::to_string(i), EncodeValueU64(1), false);
  }
  const auto full = table.MemoryBytes();
  EXPECT_GT(full, 100u * 8);
  std::string state;
  for (int i = 0; i < 100; ++i) {
    table.Extract("key-" + std::to_string(i), &state);
  }
  EXPECT_EQ(table.MemoryBytes(), 0u);
}

TEST_F(StateTableTest, EarlyEmittedFlagPersistsAcrossFolds) {
  StateTable table(&sum_);
  auto& e1 = table.Fold("k", EncodeValueU64(1), false);
  e1.early_emitted = true;
  auto& e2 = table.Fold("k", EncodeValueU64(1), false);
  EXPECT_TRUE(e2.early_emitted);
}

TEST_F(StateTableTest, ForEachVisitsEverything) {
  StateTable table(&sum_);
  Rng rng(1);
  std::map<std::string, std::uint64_t> expected;
  for (int i = 0; i < 5000; ++i) {
    const std::string k =
        std::string("u").append(std::to_string(rng.Uniform(200)));
    expected[k] += 1;
    table.Fold(k, EncodeValueU64(1), false);
  }
  std::map<std::string, std::uint64_t> actual;
  table.ForEach([&](Slice key, const StateTable::Entry& entry) {
    actual[key.ToString()] = DecodeU64(entry.state.data());
  });
  EXPECT_EQ(actual, expected);
}

TEST_F(StateTableTest, ClearEmptiesTable) {
  StateTable table(&sum_);
  table.Fold("a", EncodeValueU64(1), false);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.MemoryBytes(), 0u);
  EXPECT_FALSE(table.Contains("a"));
}

TEST_F(StateTableTest, RequiresAggregator) {
  EXPECT_THROW(StateTable(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace opmr
