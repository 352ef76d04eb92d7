// End-to-end integration tests: every runtime configuration must produce
// identical (correct) answers for the paper's workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "core/opmr.h"
#include "engine/aggregators.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"
#include "workloads/webdocs.h"

namespace opmr {
namespace {

ClickStreamOptions SmallClicks() {
  ClickStreamOptions o;
  o.num_records = 20'000;
  o.num_users = 500;
  o.num_urls = 300;
  return o;
}

// Ground truth: per-key counts straight from the generator's output.
std::map<std::string, std::uint64_t> TrueUrlCounts(Platform& platform,
                                                   const std::string& input) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& block : platform.dfs().ListBlocks(input)) {
    auto reader = platform.dfs().OpenBlock(block);
    Slice record;
    while (reader->Next(&record)) {
      const auto click = ParseClick(record, ClickFormat::kText);
      ++counts[UrlKey(click.url)];
    }
  }
  return counts;
}

std::map<std::string, std::uint64_t> OutputCounts(Platform& platform,
                                                  const std::string& prefix,
                                                  int reducers) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [key, value] : platform.ReadOutput(prefix, reducers)) {
    counts[key] = DecodeValueU64(value);
  }
  return counts;
}

struct RuntimeCase {
  const char* name;
  JobOptions options;
};

std::vector<RuntimeCase> AllRuntimes() {
  std::vector<RuntimeCase> cases;
  cases.push_back({"hadoop", HadoopOptions()});
  cases.push_back({"mr_online", MapReduceOnlineOptions()});
  cases.push_back({"hash_incremental", HashOnePassOptions()});
  cases.push_back({"hash_hotkey", HotKeyOnePassOptions(64)});
  JobOptions hybrid = HashOnePassOptions();
  hybrid.hash_reduce = HashReduce::kHybridHash;
  cases.push_back({"hash_hybrid", hybrid});
  JobOptions hash_pull = HashOnePassOptions();
  hash_pull.shuffle = Shuffle::kPull;
  cases.push_back({"hash_incremental_pull", hash_pull});
  return cases;
}

TEST(EngineIntegration, PageFrequencyAgreesAcrossAllRuntimes) {
  Platform platform({.num_nodes = 3, .block_bytes = 256u << 10});
  GenerateClickStream(platform.dfs(), "clicks", SmallClicks());
  const auto truth = TrueUrlCounts(platform, "clicks");
  ASSERT_FALSE(truth.empty());

  int i = 0;
  for (const auto& rt : AllRuntimes()) {
    SCOPED_TRACE(rt.name);
    const std::string out = "freq_" + std::to_string(i++);
    const auto spec = PageFrequencyJob("clicks", out, 3);
    const auto result = platform.Run(spec, rt.options);
    EXPECT_EQ(result.num_map_tasks,
              static_cast<int>(platform.dfs().ListBlocks("clicks").size()));
    const auto counts = OutputCounts(platform, out, 3);
    EXPECT_EQ(counts, truth);
  }
}

TEST(EngineIntegration, PageFrequencyWithoutCombinerStillCorrect) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  GenerateClickStream(platform.dfs(), "clicks", SmallClicks());
  const auto truth = TrueUrlCounts(platform, "clicks");

  int i = 0;
  for (const auto& rt : AllRuntimes()) {
    SCOPED_TRACE(rt.name);
    JobOptions options = rt.options;
    options.map_side_combine = false;
    const std::string out = "freq_nc_" + std::to_string(i++);
    platform.Run(PageFrequencyJob("clicks", out, 2), options);
    EXPECT_EQ(OutputCounts(platform, out, 2), truth);
  }
}

TEST(EngineIntegration, SessionizationOrdersClicksWithinSessions) {
  Platform platform({.num_nodes = 3, .block_bytes = 256u << 10});
  ClickStreamOptions gen = SmallClicks();
  gen.num_records = 10'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  // Holistic reduce: valid under sort-merge and hybrid hash.
  std::vector<RuntimeCase> cases;
  cases.push_back({"hadoop", HadoopOptions()});
  cases.push_back({"mr_online", MapReduceOnlineOptions()});
  JobOptions hybrid = HashOnePassOptions();
  hybrid.hash_reduce = HashReduce::kHybridHash;
  cases.push_back({"hash_hybrid", hybrid});

  std::map<std::string, std::uint64_t> reference;
  int i = 0;
  for (const auto& rt : cases) {
    SCOPED_TRACE(rt.name);
    const std::string out = "sess_" + std::to_string(i++);
    const auto result = platform.Run(SessionizationJob("clicks", out, 3),
                                     rt.options);
    // Sessionization output has one record per click.
    EXPECT_EQ(result.output_records, gen.num_records);

    // Within each user, session ids and timestamps must be non-decreasing
    // in emission order.
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> last;
    std::map<std::string, std::uint64_t> per_user;
    for (const auto& [user, value] : platform.ReadOutput(out, 3)) {
      ++per_user[user];
      // value = "s<k>\t<ts>\t<url>"
      ASSERT_EQ(value[0], 's');
      const auto tab1 = value.find('\t');
      const auto tab2 = value.find('\t', tab1 + 1);
      const std::uint64_t session = std::stoull(value.substr(1, tab1 - 1));
      const std::uint64_t ts =
          std::stoull(value.substr(tab1 + 1, tab2 - tab1 - 1));
      auto it = last.find(user);
      if (it != last.end()) {
        EXPECT_LE(it->second.first, session) << user;
        EXPECT_LE(it->second.second, ts) << user;
      }
      last[user] = {session, ts};
    }
    if (reference.empty()) {
      reference = per_user;
    } else {
      EXPECT_EQ(per_user, reference) << "per-user click counts diverged";
    }
  }
}

TEST(EngineIntegration, InvertedIndexPostingsMatchCorpus) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  WebDocsOptions gen;
  gen.num_docs = 300;
  gen.mean_doc_words = 60;
  GenerateWebDocs(platform.dfs(), "docs", gen);

  const auto spec = InvertedIndexJob("docs", "index", 2);
  platform.Run(spec, HadoopOptions());
  const auto rows = platform.ReadOutput("index", 2);
  ASSERT_FALSE(rows.empty());

  // Rebuild expected postings count per word from the corpus.
  std::map<std::string, std::uint64_t> expected;
  for (const auto& block : platform.dfs().ListBlocks("docs")) {
    auto reader = platform.dfs().OpenBlock(block);
    Slice record;
    while (reader->Next(&record)) {
      const std::string line = record.ToString();
      const auto tab = line.find('\t');
      std::size_t i = tab + 1;
      while (i < line.size()) {
        auto j = line.find(' ', i);
        if (j == std::string::npos) j = line.size();
        if (j > i) ++expected[line.substr(i, j - i)];
        i = j + 1;
      }
    }
  }

  std::map<std::string, std::uint64_t> actual;
  for (const auto& [word, postings] : rows) {
    // Postings are space-separated "doc:pos" entries.
    actual[word] = static_cast<std::uint64_t>(
        std::count(postings.begin(), postings.end(), ' ') + 1);
  }
  EXPECT_EQ(actual, expected);
}

TEST(EngineIntegration, IncrementalRuntimeEmitsEarlyUnderThresholdQuery) {
  Platform platform({.num_nodes = 2, .block_bytes = 128u << 10});
  ClickStreamOptions gen = SmallClicks();
  gen.url_theta = 1.2;  // strong skew: some urls cross the threshold early
  GenerateClickStream(platform.dfs(), "clicks", gen);

  // "Output a group as soon as the count of its items exceeds a threshold"
  // (paper §IV requirement 3).
  JobOptions options = HashOnePassOptions();
  options.map_side_combine = false;  // feed raw 1s so counts grow per click
  options.early_emit = [](Slice /*key*/, Slice state) {
    return DecodeU64(state.data()) >= 50;
  };
  const auto result =
      platform.Run(PageFrequencyJob("clicks", "thresh", 2), options);
  EXPECT_GE(result.first_output_seconds, 0.0);
  // Early answers must appear before the job ends (strictly, before the
  // reduce tail), demonstrating incremental processing.
  EXPECT_LT(result.first_output_seconds, result.wall_seconds);
}

TEST(EngineIntegration, EarlyAnswerIsNotRepeatedAfterSpillOrDemotion) {
  // A threshold query under a reduce budget small enough to spill (plain)
  // or demote (hot-key) states: a key's early row is written once, and its
  // final row once more — never a second early row after the key's state
  // left memory and came back.
  Platform platform({.num_nodes = 2, .block_bytes = 128u << 10});
  ClickStreamOptions gen;
  gen.num_records = 60'000;
  gen.url_theta = 1.2;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  for (const auto& [name, base] :
       {std::pair{"incremental", HashOnePassOptions()},
        std::pair{"hotkey", HotKeyOnePassOptions(64)}}) {
    SCOPED_TRACE(name);
    JobOptions options = base;
    options.map_side_combine = false;
    options.reduce_buffer_bytes = 16u << 10;
    options.early_emit = [](Slice /*key*/, Slice state) {
      return DecodeU64(state.data()) >= 50;
    };
    const std::string out = std::string("early_") + name;
    const auto result =
        platform.Run(PageFrequencyJob("clicks", out, 2), options);
    EXPECT_GT(result.Bytes(device::kSpillWrite), 0);
    std::map<std::string, int> rows;
    for (const auto& [key, value] : platform.ReadOutput(out, 2)) ++rows[key];
    int early_keys = 0;
    for (const auto& [key, n] : rows) {
      EXPECT_LE(n, 2) << key;
      early_keys += n == 2 ? 1 : 0;
    }
    EXPECT_GT(early_keys, 0);
  }
}

TEST(EngineIntegration, MapReduceOnlineProducesSnapshots) {
  Platform platform({.num_nodes = 2, .block_bytes = 64u << 10});
  GenerateClickStream(platform.dfs(), "clicks", SmallClicks());

  const auto spec = PageFrequencyJob("clicks", "snap", 2);
  platform.Run(spec, MapReduceOnlineOptions());
  // At least one snapshot file should exist (25/50/75 % points).
  bool any = false;
  for (int s = 1; s <= 3; ++s) {
    for (int r = 0; r < 2; ++r) {
      if (platform.dfs().Exists("snap.snapshot" + std::to_string(s) +
                                ".part" + std::to_string(r))) {
        any = true;
      }
    }
  }
  EXPECT_TRUE(any);
}

TEST(EngineIntegration, HotKeySpillsLessThanPlainIncrementalUnderTightMemory) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  ClickStreamOptions gen;
  gen.num_records = 60'000;
  gen.num_users = 20'000;  // many distinct keys
  gen.user_theta = 1.1;    // but heavy skew
  GenerateClickStream(platform.dfs(), "clicks", gen);

  JobOptions incremental = HashOnePassOptions();
  incremental.map_side_combine = false;  // stress the reducer table
  incremental.reduce_buffer_bytes = 64u << 10;

  JobOptions hotkey = HotKeyOnePassOptions(256);
  hotkey.map_side_combine = false;
  hotkey.reduce_buffer_bytes = 64u << 10;

  const auto r1 = platform.Run(PerUserCountJob("clicks", "inc", 2),
                               incremental);
  const auto r2 = platform.Run(PerUserCountJob("clicks", "hot", 2), hotkey);

  // Both exact.
  EXPECT_EQ(OutputCounts(platform, "inc", 2), OutputCounts(platform, "hot", 2));

  const auto spill1 = r1.Bytes(device::kSpillWrite);
  const auto spill2 = r2.Bytes(device::kSpillWrite);
  EXPECT_GT(spill1, 0);
  EXPECT_LT(spill2, spill1) << "hot-key pinning should reduce spill I/O";
}

}  // namespace
}  // namespace opmr
