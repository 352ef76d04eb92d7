// HashTable: the state-table cases (as the incremental store uses it), the
// map-combine cases (as the map-side combiner uses it), and a seeded
// differential test of both payload kinds against std::unordered_map.
#include "engine/hash_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "engine/aggregators.h"

namespace opmr {
namespace {

std::uint64_t H(Slice key) { return BytesHash(key); }

std::uint64_t StateOf(const HashTable::Entry& e) {
  return DecodeU64(e.state.data());
}

// --- State tables (the incremental store's use) --------------------------------

class StateTableTest : public ::testing::Test {
 protected:
  SumAggregator sum_;
};

TEST_F(StateTableTest, FoldInitializesThenUpdates) {
  HashTable table(&sum_);
  table.Fold(H("k"), "k", EncodeValueU64(2), false);
  auto& entry = table.Fold(H("k"), "k", EncodeValueU64(3), false);
  EXPECT_EQ(StateOf(entry), 5u);
  EXPECT_EQ(table.size(), 1u);
}

TEST_F(StateTableTest, FoldMergesStatesWhenFlagged) {
  HashTable table(&sum_);
  table.Fold(H("k"), "k", EncodeValueU64(10), true);
  auto& entry = table.Fold(H("k"), "k", EncodeValueU64(20), true);
  EXPECT_EQ(StateOf(entry), 30u);
}

TEST_F(StateTableTest, ExtractRemovesAndReturnsState) {
  HashTable table(&sum_);
  table.Fold(H("gone"), "gone", EncodeValueU64(7), false);
  std::string state;
  EXPECT_TRUE(table.Extract(H("gone"), "gone", &state));
  EXPECT_EQ(DecodeU64(state.data()), 7u);
  EXPECT_EQ(table.Find(H("gone"), "gone"), nullptr);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Extract(H("gone"), "gone", &state));
}

TEST_F(StateTableTest, MemoryAccountingRisesAndFallsConsistently) {
  HashTable table(&sum_);
  EXPECT_EQ(table.MemoryBytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    const std::string k = "key-" + std::to_string(i);
    table.Fold(H(k), k, EncodeValueU64(1), false);
  }
  const auto full = table.MemoryBytes();
  EXPECT_GT(full, 100u * 8);
  std::string state;
  for (int i = 0; i < 100; ++i) {
    const std::string k = "key-" + std::to_string(i);
    table.Extract(H(k), k, &state);
  }
  EXPECT_EQ(table.MemoryBytes(), 0u);
}

TEST_F(StateTableTest, EarlyEmittedFlagPersistsAcrossFolds) {
  HashTable table(&sum_);
  auto& e1 = table.Fold(H("k"), "k", EncodeValueU64(1), false);
  e1.early_emitted = true;
  auto& e2 = table.Fold(H("k"), "k", EncodeValueU64(1), false);
  EXPECT_TRUE(e2.early_emitted);
  std::string state;
  bool early = false;
  EXPECT_TRUE(table.Extract(H("k"), "k", &state, &early));
  EXPECT_TRUE(early);
}

TEST_F(StateTableTest, ForEachVisitsEverything) {
  HashTable table(&sum_);
  Rng rng(1);
  std::map<std::string, std::uint64_t> expected;
  for (int i = 0; i < 5000; ++i) {
    const std::string k =
        std::string("u").append(std::to_string(rng.Uniform(200)));
    expected[k] += 1;
    table.Fold(H(k), k, EncodeValueU64(1), false);
  }
  std::map<std::string, std::uint64_t> actual;
  for (const auto& entry : table.entries()) {
    actual[entry.key.ToString()] = StateOf(entry);
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(StateTableTest, ClearEmptiesTable) {
  HashTable table(&sum_);
  table.Fold(H("a"), "a", EncodeValueU64(1), false);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.MemoryBytes(), 0u);
  EXPECT_EQ(table.Find(H("a"), "a"), nullptr);
}

TEST_F(StateTableTest, RequiresAggregator) {
  HashTable values(nullptr);
  EXPECT_THROW(values.Fold(H("k"), "k", EncodeValueU64(1), false),
               std::invalid_argument);
  std::string state;
  EXPECT_THROW(values.Extract(H("k"), "k", &state), std::invalid_argument);
  HashTable states(&sum_);
  EXPECT_THROW(states.Append(H("k"), "k", "v"), std::invalid_argument);
}

// --- The map-side combiner's use ------------------------------------------------

class MapCombineTableTest : public ::testing::Test {
 protected:
  SumAggregator sum_;
};

TEST_F(MapCombineTableTest, FoldsValuesIntoStates) {
  HashTable table(&sum_);
  table.Fold(H("a"), "a", EncodeValueU64(2), false);
  table.Fold(H("a"), "a", EncodeValueU64(3), false);
  table.Fold(H("b"), "b", EncodeValueU64(10), false);
  EXPECT_EQ(table.size(), 2u);

  std::map<std::string, std::uint64_t> got;
  for (const auto& e : table.entries()) got[e.key.ToString()] = StateOf(e);
  EXPECT_EQ(got.at("a"), 5u);
  EXPECT_EQ(got.at("b"), 10u);
}

TEST_F(MapCombineTableTest, MergesStatesWhenFlagged) {
  HashTable table(&sum_);
  table.Fold(H("k"), "k", EncodeValueU64(7), /*value_is_state=*/true);
  table.Fold(H("k"), "k", EncodeValueU64(8), /*value_is_state=*/true);
  EXPECT_EQ(StateOf(table.entries()[0]), 15u);
}

TEST_F(MapCombineTableTest, EntriesByPartitionIsGrouped) {
  // The flush derives each key's partition from the stored hash; entries
  // keep insertion order, so a stable sort groups them deterministically.
  HashTable table(&sum_);
  Rng rng(2);
  std::vector<std::string> first_seen;
  for (int i = 0; i < 500; ++i) {
    const std::string k =
        std::string("k").append(std::to_string(rng.Uniform(100)));
    if (table.Find(H(k), k) == nullptr) first_seen.push_back(k);
    table.Fold(H(k), k, EncodeValueU64(1), false);
  }
  ASSERT_EQ(table.size(), first_seen.size());
  for (std::size_t i = 0; i < first_seen.size(); ++i) {
    EXPECT_EQ(table.entries()[i].key.ToString(), first_seen[i]);
    EXPECT_EQ(table.entries()[i].hash, H(first_seen[i]));
  }
}

TEST_F(MapCombineTableTest, GrowsPastInitialCapacity) {
  HashTable table(&sum_);
  for (int i = 0; i < 10'000; ++i) {
    const std::string k = "key-" + std::to_string(i);
    table.Fold(H(k), k, EncodeValueU64(1), false);
  }
  EXPECT_EQ(table.size(), 10'000u);
  // And every key is still reachable with the right value.
  for (int i = 0; i < 10'000; ++i) {
    const std::string k = "key-" + std::to_string(i);
    const auto* e = table.Find(H(k), k);
    ASSERT_NE(e, nullptr) << k;
    EXPECT_EQ(StateOf(*e), 1u);
  }
}

TEST_F(MapCombineTableTest, MatchesReferenceUnderRandomFolds) {
  HashTable table(&sum_);
  Rng rng(3);
  std::map<std::string, std::uint64_t> expected;
  for (int i = 0; i < 20'000; ++i) {
    const std::string k =
        std::string("u").append(std::to_string(rng.Uniform(300)));
    const std::uint64_t w = 1 + rng.Uniform(9);
    expected[k] += w;
    table.Fold(H(k), k, EncodeValueU64(w), false);
  }
  std::map<std::string, std::uint64_t> actual;
  for (const auto& e : table.entries()) actual[e.key.ToString()] = StateOf(e);
  EXPECT_EQ(actual, expected);
}

TEST_F(MapCombineTableTest, HashOverloadAgreesWithConvenience) {
  // Any hash the caller picks works, as long as it picks it consistently:
  // the map side passes the partitioner's seeded hash.
  HashTable t1(&sum_), t2(&sum_);
  const Slice key("shared-key");
  t1.Fold(BytesHash(key), key, EncodeValueU64(5), false);
  t2.Fold(BytesHash(key, 0x9d5fULL), key, EncodeValueU64(5), false);
  EXPECT_EQ(t1.entries()[0].state, t2.entries()[0].state);
}

TEST_F(MapCombineTableTest, ClearResets) {
  HashTable table(&sum_);
  table.Fold(H("x"), "x", EncodeValueU64(1), false);
  table.Clear();
  EXPECT_TRUE(table.empty());
  table.Fold(H("x"), "x", EncodeValueU64(3), false);
  EXPECT_EQ(StateOf(table.entries()[0]), 3u);
}

TEST_F(MapCombineTableTest, MemoryGrowsWithKeys) {
  HashTable table(&sum_);
  const auto before = table.MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    const std::string k = "key-" + std::to_string(i);
    table.Fold(H(k), k, EncodeValueU64(1), false);
  }
  EXPECT_GT(table.MemoryBytes(), before + 1000);
}

TEST_F(MapCombineTableTest, RequiresAggregator) {
  HashTable table(nullptr);
  EXPECT_THROW(table.Fold(H("k"), "k", EncodeValueU64(1), false),
               std::invalid_argument);
}

// --- Memory accounting and the differential test -------------------------------

TEST(HashTable, MemoryChargesOutOfLineStates) {
  // A state longer than the string's inline buffer is charged; a short
  // one costs nothing beyond its entry.
  class ConcatAggregator final : public Aggregator {
   public:
    void Init(Slice value, std::string* state) const override {
      state->assign(value.data(), value.size());
    }
    void Update(std::string* state, Slice value) const override {
      state->append(value.data(), value.size());
    }
    void Merge(std::string* state, Slice other) const override {
      Update(state, other);
    }
    void Finalize(Slice state, std::string* out) const override {
      out->assign(state.data(), state.size());
    }
  } concat;
  HashTable table(&concat);
  table.Fold(H("k"), "k", "x", false);
  const std::size_t small = table.MemoryBytes();
  table.Fold(H("k"), "k", std::string(1000, 'y'), false);
  EXPECT_GE(table.MemoryBytes(), small + 1000);
  std::string state;
  ASSERT_TRUE(table.Extract(H("k"), "k", &state));
  EXPECT_EQ(state.size(), 1001u);
  EXPECT_EQ(table.MemoryBytes(), 0u);
}

// Interleaves Fold/Append, Extract, Find, a walk of entries() and Clear
// against a std::unordered_map reference, long enough to cross many grows,
// backward-shift deletes and arena compactions.  Every step checks the key
// it touched and the size; every 64th step checks every entry.
class HashTableDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(HashTableDifferential, MatchesUnorderedMapReference) {
  const bool states = GetParam();
  SumAggregator sum;
  HashTable table(states ? static_cast<const Aggregator*>(&sum) : nullptr);
  // Reference: key → (sum, early mark) for states, key → values for lists.
  std::unordered_map<std::string, std::pair<std::uint64_t, bool>> ref_states;
  std::unordered_map<std::string, std::vector<std::string>> ref_values;
  auto ref_size = [&] {
    return states ? ref_states.size() : ref_values.size();
  };

  auto check_all = [&] {
    ASSERT_EQ(table.size(), ref_size());
    std::size_t seen = 0;
    for (const auto& e : table.entries()) {
      ++seen;
      ASSERT_EQ(e.hash, H(e.key));
      const std::string k = e.key.ToString();
      if (states) {
        const auto it = ref_states.find(k);
        ASSERT_NE(it, ref_states.end()) << k;
        ASSERT_EQ(StateOf(e), it->second.first) << k;
        ASSERT_EQ(e.early_emitted, it->second.second) << k;
      } else {
        const auto it = ref_values.find(k);
        ASSERT_NE(it, ref_values.end()) << k;
        ASSERT_EQ(e.values.size(), it->second.size()) << k;
        for (std::size_t i = 0; i < e.values.size(); ++i) {
          ASSERT_EQ(e.values[i].ToString(), it->second[i]) << k;
        }
      }
    }
    ASSERT_EQ(seen, ref_size());
    if (ref_size() == 0) {
      ASSERT_EQ(table.MemoryBytes(), 0u);
    }
  };

  Rng rng(states ? 101 : 202);
  for (int step = 0; step < 100'000; ++step) {
    // Alternating 5000-step phases: growing ones cross table grows, and
    // shrinking ones leave dead key bytes above live ones, forcing arena
    // compactions.  Keys vary in length so compaction moves real bytes.
    const bool growing = (step / 5000) % 2 == 0;
    const std::uint64_t id = rng.Uniform(4096);
    const std::string k =
        std::string("key").append(std::to_string(id)).append(id % 7, '#');
    const std::uint64_t op = rng.Uniform(100);
    if (op < (growing ? 70u : 25u)) {
      const std::uint64_t w = rng.Uniform(6);
      if (states) {
        auto& e = table.Fold(H(k), k, EncodeValueU64(w), false);
        auto& r = ref_states[k];
        r.first += w;
        if (rng.Uniform(50) == 0) e.early_emitted = r.second = true;
      } else {
        const std::string v(w, 'v');  // empty values too
        table.Append(H(k), k, v);
        ref_values[k].push_back(v);
      }
    } else if (op < 99) {
      if (states) {
        std::string state;
        bool early = false;
        const bool found = table.Extract(H(k), k, &state, &early);
        const auto it = ref_states.find(k);
        ASSERT_EQ(found, it != ref_states.end()) << k;
        if (found) {
          ASSERT_EQ(DecodeU64(state.data()), it->second.first) << k;
          ASSERT_EQ(early, it->second.second) << k;
          ref_states.erase(it);
        }
      }
      // Value-list tables never remove single keys: a Find instead.
      const auto* e = table.Find(H(k), k);
      if (states) {
        ASSERT_EQ(e, nullptr) << k;
      } else {
        const auto it = ref_values.find(k);
        ASSERT_EQ(e != nullptr, it != ref_values.end()) << k;
        if (e != nullptr) {
          ASSERT_EQ(e->values.size(), it->second.size()) << k;
        }
      }
    } else if (rng.Uniform(64) == 0) {
      table.Clear();
      ref_states.clear();
      ref_values.clear();
    }
    ASSERT_EQ(table.size(), ref_size());
    if (step % 64 == 0) {
      ASSERT_NO_FATAL_FAILURE(check_all());
    }
  }
  ASSERT_NO_FATAL_FAILURE(check_all());

  // Extracting every key leaves nothing charged.
  if (states) {
    std::vector<std::string> keys;
    for (const auto& [k, r] : ref_states) keys.push_back(k);
    std::string state;
    for (const auto& k : keys) {
      ASSERT_TRUE(table.Extract(H(k), k, &state)) << k;
      ref_states.erase(k);
    }
    ASSERT_NO_FATAL_FAILURE(check_all());
    EXPECT_EQ(table.MemoryBytes(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(BothPayloads, HashTableDifferential,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "States" : "ValueLists";
                         });

}  // namespace
}  // namespace opmr
