#include "engine/hll.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/rng.h"
#include "core/opmr.h"
#include "engine/aggregators.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

std::string Element(std::uint64_t i) { return "element-" + std::to_string(i); }

TEST(Hll, SmallCardinalitiesAreNearExact) {
  HllAggregator hll(12);
  std::string state;
  hll.Init(Element(0), &state);
  for (std::uint64_t i = 1; i < 100; ++i) hll.Update(&state, Element(i));
  EXPECT_NEAR(hll.Estimate(state), 100.0, 5.0);
}

TEST(Hll, DuplicatesDoNotInflate) {
  HllAggregator hll(12);
  std::string state;
  hll.Init("only", &state);
  for (int i = 0; i < 100'000; ++i) hll.Update(&state, "only");
  EXPECT_NEAR(hll.Estimate(state), 1.0, 0.5);
}

TEST(Hll, LargeCardinalityWithinErrorBound) {
  // p=11 → 2048 registers → σ ≈ 1.04/√2048 ≈ 2.3 %; allow 4σ.
  HllAggregator hll(11);
  std::string state;
  constexpr std::uint64_t kN = 200'000;
  hll.Init(Element(0), &state);
  for (std::uint64_t i = 1; i < kN; ++i) hll.Update(&state, Element(i));
  EXPECT_NEAR(hll.Estimate(state), static_cast<double>(kN), 0.1 * kN);
}

TEST(Hll, MergeEqualsUnion) {
  HllAggregator hll(11);
  std::string a, b, u;
  hll.Init(Element(0), &a);
  hll.Init(Element(50'000), &b);
  hll.Init(Element(0), &u);
  for (std::uint64_t i = 1; i < 60'000; ++i) {
    hll.Update(&a, Element(i));               // [0, 60k)
    hll.Update(&b, Element(50'000 + i));      // [50k, 110k)
    hll.Update(&u, Element(i));
    hll.Update(&u, Element(50'000 + i));
  }
  hll.Merge(&a, b);
  EXPECT_EQ(a, u) << "merge must be the register-wise max == union sketch";
}

TEST(Hll, MergeIsCommutativeAndIdempotent) {
  HllAggregator hll(8);
  std::string a, b;
  hll.Init("x", &a);
  hll.Update(&a, "y");
  hll.Init("z", &b);

  std::string ab = a, ba = b;
  hll.Merge(&ab, b);
  hll.Merge(&ba, a);
  EXPECT_EQ(ab, ba);
  std::string twice = ab;
  hll.Merge(&twice, ab);
  EXPECT_EQ(twice, ab);
}

TEST(Hll, FinalizeEncodesU64Estimate) {
  HllAggregator hll(10);
  std::string state;
  hll.Init(Element(0), &state);
  for (std::uint64_t i = 1; i < 1'000; ++i) hll.Update(&state, Element(i));
  std::string out;
  hll.Finalize(state, &out);
  const auto v = DecodeValueU64(out);
  EXPECT_NEAR(static_cast<double>(v), 1'000.0, 120.0);
}

TEST(Hll, ValidatesPrecisionAndStateWidth) {
  EXPECT_THROW(HllAggregator bad(3), std::invalid_argument);
  EXPECT_THROW(HllAggregator bad(17), std::invalid_argument);
  HllAggregator hll(8);
  std::string tiny = "short";
  EXPECT_THROW(hll.Update(&tiny, "v"), std::runtime_error);
  EXPECT_THROW((void)hll.Estimate(Slice(tiny)), std::runtime_error);
}

TEST(Hll, DistinctVisitorsJobTracksTruth) {
  Platform platform({.num_nodes = 2, .block_bytes = 512u << 10});
  ClickStreamOptions gen;
  gen.num_records = 100'000;
  gen.num_users = 5'000;
  gen.num_urls = 50;  // few pages, many visitors each
  gen.url_theta = 0.5;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  // Exact distinct visitors per url.
  std::map<std::string, std::set<std::uint32_t>> truth;
  for (const auto& block : platform.dfs().ListBlocks("clicks")) {
    auto reader = platform.dfs().OpenBlock(block);
    Slice record;
    while (reader->Next(&record)) {
      const auto click = ParseClick(record, ClickFormat::kText);
      truth[UrlKey(click.url)].insert(click.user);
    }
  }

  // The sketch job must agree across sort-merge and incremental runtimes.
  for (const auto& options : {HadoopOptions(), HashOnePassOptions()}) {
    const auto spec = DistinctVisitorsJob("clicks", "dv", 2, /*precision=*/12);
    platform.Run(spec, options);
    int checked = 0;
    for (const auto& [url, v] : platform.ReadOutput("dv", 2)) {
      const double estimate = static_cast<double>(DecodeValueU64(v));
      const double exact = static_cast<double>(truth.at(url).size());
      EXPECT_NEAR(estimate, exact, std::max(6.0, 0.10 * exact)) << url;
      ++checked;
    }
    EXPECT_EQ(checked, static_cast<int>(truth.size()));
    // Re-run with a fresh output name next iteration.
    break;
  }
  const auto spec2 = DistinctVisitorsJob("clicks", "dv2", 2, 12);
  platform.Run(spec2, HashOnePassOptions());
  for (const auto& [url, v] : platform.ReadOutput("dv2", 2)) {
    const double estimate = static_cast<double>(DecodeValueU64(v));
    const double exact = static_cast<double>(truth.at(url).size());
    EXPECT_NEAR(estimate, exact, std::max(6.0, 0.10 * exact)) << url;
  }
}

}  // namespace
}  // namespace opmr
