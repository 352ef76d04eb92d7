// Space-Saving: its per-key guarantees plus a parameterized property suite
// run across several skew levels.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.h"
#include "frequent/space_saving.h"

namespace opmr {
namespace {

std::string Key(std::uint64_t rank) { return "k" + std::to_string(rank); }

// --- SpaceSaving-specific behaviour ------------------------------------------

TEST(SpaceSaving, ExactWhenUnderCapacity) {
  SpaceSaving ss(16);
  for (int i = 0; i < 5; ++i) {
    ss.Offer("a");
  }
  ss.Offer("b");
  EXPECT_EQ(ss.Estimate("a"), 5u);
  EXPECT_EQ(ss.Estimate("b"), 1u);
  EXPECT_EQ(ss.Error("a"), 0u);
  EXPECT_EQ(ss.Size(), 2u);
  EXPECT_EQ(ss.StreamLength(), 6u);
}

TEST(SpaceSaving, EvictsMinimumAndInheritsCount) {
  SpaceSaving ss(2);
  ss.Offer("a", 10);
  ss.Offer("b", 3);
  const auto victim = ss.OfferAndEvict("c");
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, "b");  // minimum count entry
  EXPECT_TRUE(ss.IsMonitored("c"));
  EXPECT_FALSE(ss.IsMonitored("b"));
  EXPECT_EQ(ss.Estimate("c"), 4u);  // inherited 3 + weight 1
  EXPECT_EQ(ss.Error("c"), 3u);
}

TEST(SpaceSaving, NoEvictionWhenMonitoredOrNotFull) {
  SpaceSaving ss(2);
  EXPECT_FALSE(ss.OfferAndEvict("a").has_value());
  EXPECT_FALSE(ss.OfferAndEvict("b").has_value());
  EXPECT_FALSE(ss.OfferAndEvict("a").has_value());  // already monitored
}

TEST(SpaceSaving, OverestimateNeverUnderestimates) {
  SpaceSaving ss(8);
  Rng rng(4);
  std::map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 20'000; ++i) {
    const std::string k = Key(rng.Uniform(64));
    ++truth[k];
    ss.Offer(k);
  }
  for (const auto& [k, f] : truth) {
    if (ss.IsMonitored(k)) {
      EXPECT_GE(ss.Estimate(k), f) << k;
      EXPECT_LE(ss.Estimate(k) - ss.Error(k), f) << k;
    }
  }
}

TEST(SpaceSaving, CapacityOneTracksLastRun) {
  SpaceSaving ss(1);
  for (int i = 0; i < 100; ++i) ss.Offer("x");
  ss.Offer("y");
  EXPECT_TRUE(ss.IsMonitored("y"));
  EXPECT_EQ(ss.Estimate("y"), 101u);  // inherited everything
  EXPECT_EQ(ss.Error("y"), 100u);
}

TEST(SpaceSaving, RejectsZeroCapacity) {
  EXPECT_THROW(SpaceSaving ss(0), std::invalid_argument);
}

// --- Property suite over skew levels -------------------------------------------

struct SketchCase {
  std::size_t capacity;  // monitored keys
  double theta;          // Zipf skew of the stream
};

class SketchProperties : public ::testing::TestWithParam<SketchCase> {
 protected:
  static SpaceSaving Make() { return SpaceSaving(GetParam().capacity); }
};

TEST_P(SketchProperties, HeavyHittersAreMonitored) {
  auto sketch = Make();
  ZipfSampler zipf(5'000, GetParam().theta, 11);
  std::map<std::uint64_t, std::uint64_t> truth;
  constexpr int kN = 60'000;
  for (int i = 0; i < kN; ++i) {
    const auto r = zipf.Sample();
    ++truth[r];
    sketch.Offer(Key(r));
  }
  // Every key with frequency > N/32 (double the summary threshold) must be
  // monitored by a 64-entry summary.
  for (const auto& [rank, f] : truth) {
    if (f > kN / 32) {
      EXPECT_TRUE(sketch.IsMonitored(Key(rank))) << "rank " << rank;
    }
  }
}

TEST_P(SketchProperties, StreamLengthIsExact) {
  auto sketch = Make();
  ZipfSampler zipf(100, GetParam().theta, 12);
  for (int i = 0; i < 10'000; ++i) sketch.Offer(Key(zipf.Sample()));
  EXPECT_EQ(sketch.StreamLength(), 10'000u);
}

TEST_P(SketchProperties, CandidatesSortedByEstimate) {
  auto sketch = Make();
  ZipfSampler zipf(1'000, GetParam().theta, 13);
  for (int i = 0; i < 30'000; ++i) sketch.Offer(Key(zipf.Sample()));
  const auto candidates = sketch.Candidates();
  ASSERT_FALSE(candidates.empty());
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].count_estimate, candidates[i].count_estimate);
  }
}

TEST_P(SketchProperties, TopRankDominatesCandidates) {
  auto sketch = Make();
  ZipfSampler zipf(1'000, std::max(0.8, GetParam().theta), 14);
  for (int i = 0; i < 50'000; ++i) sketch.Offer(Key(zipf.Sample()));
  const auto candidates = sketch.Candidates();
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates.front().key, Key(0));
}

TEST_P(SketchProperties, SizeBoundedByCapacity) {
  auto sketch = Make();
  Rng rng(15);
  for (int i = 0; i < 20'000; ++i) sketch.Offer(Key(rng.Uniform(10'000)));
  EXPECT_LE(sketch.Size(), sketch.Capacity());
}

INSTANTIATE_TEST_SUITE_P(
    AllSketchesAndSkews, SketchProperties,
    ::testing::Values(SketchCase{64, 0.5}, SketchCase{64, 1.0},
                      SketchCase{64, 1.3}),
    [](const auto& info) {
      return "SpaceSaving_theta" +
             std::to_string(static_cast<int>(info.param.theta * 10));
    });

}  // namespace
}  // namespace opmr
