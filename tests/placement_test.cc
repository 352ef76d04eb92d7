// Placement-plane tests: hierarchical fair-share pool arithmetic, the
// locality/load/health operation ranking, seed-reproducible assignment
// logs, work-stealing pick-up, and the seeded chaos drill — kill the
// most-loaded worker mid-wave and watch operations re-place onto the
// next-ranked replica holder without changing the job's output.
#include "placement/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "coord/registry.h"
#include "core/opmr.h"
#include "placement/pool_tree.h"
#include "sched/scheduler.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

using placement::Assignment;
using placement::ParsePoolConfig;
using placement::PlacementMode;
using placement::PlacementPlane;
using placement::PoolTree;

// ---------------------------------------------------------------------------
// Pool config parsing and the fair-share tree
// ---------------------------------------------------------------------------

TEST(PoolConfig, ParsesEveryForm) {
  auto p = ParsePoolConfig("tenants");
  EXPECT_EQ(p.name, "tenants");
  EXPECT_EQ(p.parent, "");
  EXPECT_DOUBLE_EQ(p.weight, 1.0);
  EXPECT_EQ(p.max_running_jobs, 0);

  p = ParsePoolConfig("alpha:3.5");
  EXPECT_EQ(p.name, "alpha");
  EXPECT_DOUBLE_EQ(p.weight, 3.5);

  p = ParsePoolConfig("tenants/alpha:2:4");
  EXPECT_EQ(p.parent, "tenants");
  EXPECT_EQ(p.name, "alpha");
  EXPECT_DOUBLE_EQ(p.weight, 2.0);
  EXPECT_EQ(p.max_running_jobs, 4);

  EXPECT_THROW((void)ParsePoolConfig(""), std::invalid_argument);
  EXPECT_THROW((void)ParsePoolConfig("a:zero"), std::invalid_argument);
  EXPECT_THROW((void)ParsePoolConfig("a:-1"), std::invalid_argument);
  EXPECT_THROW((void)ParsePoolConfig("a:1:-2"), std::invalid_argument);
}

TEST(PoolTreeTest, RejectsBadTrees) {
  EXPECT_THROW(PoolTree({{"a", "nope", 1.0, 0}}), std::invalid_argument);
  EXPECT_THROW(PoolTree({{"a", "", 1.0, 0}, {"a", "", 1.0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(PoolTree({{"a", "", 0.0, 0}}), std::invalid_argument);
  EXPECT_THROW(PoolTree({{"", "", 1.0, 0}}), std::invalid_argument);
}

TEST(PoolTreeTest, WeightsConvergeToThreeToOneWithinTenPercent) {
  // Two always-backlogged tenants with weights 3:1: the grant split over a
  // long contended run must land within 10% of 3:1 — the acceptance bar.
  PoolTree tree({{"alpha", "", 3.0, 0}, {"beta", "", 1.0, 0}});
  tree.JoinJob(1, "alpha");
  tree.JoinJob(2, "beta");
  const std::vector<PoolTree::Waiter> waiters = {{1, 0}, {2, 1}};
  int alpha_grants = 0;
  constexpr int kGrants = 400;
  for (int i = 0; i < kGrants; ++i) {
    const int winner = tree.Pick(waiters);
    ASSERT_TRUE(winner == 1 || winner == 2);
    if (winner == 1) ++alpha_grants;
    tree.OnGrant(winner);  // held, never released: steady-state backlog
  }
  const double share = static_cast<double>(alpha_grants) / kGrants;
  EXPECT_NEAR(share, 0.75, 0.075) << alpha_grants << " of " << kGrants;

  const auto stats = tree.Stats();
  ASSERT_EQ(stats.size(), 3u);  // root + two tenants
  EXPECT_EQ(stats[0].name, "(root)");
  EXPECT_EQ(stats[0].total_grants, kGrants);  // usage rolls up to the root
  EXPECT_EQ(stats[1].total_grants + stats[2].total_grants, kGrants);
}

TEST(PoolTreeTest, HierarchySubdividesWithoutAffectingSiblings) {
  // org gets weight 3 vs solo's 1; inside org, a and b split 1:1.  The
  // descent charges org's subtree as one unit, so a+b together still get
  // ~3/4 of the grants.
  PoolTree tree({{"org", "", 3.0, 0},
                 {"a", "org", 1.0, 0},
                 {"b", "org", 1.0, 0},
                 {"solo", "", 1.0, 0}});
  tree.JoinJob(1, "a");
  tree.JoinJob(2, "b");
  tree.JoinJob(3, "solo");
  const std::vector<PoolTree::Waiter> waiters = {{1, 0}, {2, 1}, {3, 2}};
  int org_grants = 0;
  int a_grants = 0;
  constexpr int kGrants = 400;
  for (int i = 0; i < kGrants; ++i) {
    const int winner = tree.Pick(waiters);
    if (winner == 1 || winner == 2) ++org_grants;
    if (winner == 1) ++a_grants;
    tree.OnGrant(winner);
  }
  EXPECT_NEAR(static_cast<double>(org_grants) / kGrants, 0.75, 0.075);
  EXPECT_NEAR(static_cast<double>(a_grants) / org_grants, 0.5, 0.1);
}

TEST(PoolTreeTest, PickIsDeterministicAndPrefersEarliestWaiterInPool) {
  PoolTree tree({{"p", "", 1.0, 0}});
  tree.JoinJob(5, "p");
  tree.JoinJob(4, "p");
  // Same pool: the admission ordinal decides, not the job id.
  EXPECT_EQ(tree.Pick({{5, 7}, {4, 9}}), 5);
  EXPECT_EQ(tree.Pick({{5, 7}, {4, 9}}), 5);  // pure: no hidden state
  // Jobs that never joined charge the root's implicit direct pool, which
  // sorts before any named child on a usage tie.
  EXPECT_EQ(tree.Pick({{5, 7}, {99, 1}}), 99);
  EXPECT_EQ(tree.Pick({}), -1);
}

TEST(PoolTreeTest, QuotaRollsUpTheAncestorChain) {
  PoolTree tree({{"org", "", 1.0, 2}, {"a", "org", 1.0, 0}});
  EXPECT_FALSE(tree.AtJobQuota("a"));
  tree.OnJobStart("a");
  EXPECT_FALSE(tree.AtJobQuota("a"));
  tree.OnJobStart("org");  // a sibling job inside the same org subtree
  // a itself is uncapped, but the org ancestor is at its 2-job cap.
  EXPECT_TRUE(tree.AtJobQuota("a"));
  tree.OnJobFinish("org");
  EXPECT_FALSE(tree.AtJobQuota("a"));
}

// ---------------------------------------------------------------------------
// PlacementPlane ranking
// ---------------------------------------------------------------------------

std::vector<BlockInfo> MakeBlocks(
    const std::vector<std::vector<int>>& holder_sets) {
  std::vector<BlockInfo> blocks;
  for (std::size_t i = 0; i < holder_sets.size(); ++i) {
    BlockInfo b;
    b.block_id = i + 1;
    b.replica_nodes = holder_sets[i];
    blocks.push_back(std::move(b));
  }
  return blocks;
}

TEST(PlacementPlaneTest, LocalityRankedPlansEveryBlockOntoAHolder) {
  PlacementPlane plane({PlacementMode::kLocalityRanked, 42, 4, nullptr});
  plane.PlanJob(0, MakeBlocks({{1, 2}, {2, 3}, {0, 1}, {3, 0}, {1, 3}}));
  const auto log = plane.Log();
  ASSERT_EQ(log.size(), 5u);
  for (const Assignment& a : log) {
    EXPECT_TRUE(a.local) << "block " << a.block_id;
    EXPECT_FALSE(a.replacement);
  }
  EXPECT_EQ(plane.stats().planned, 5);
  EXPECT_EQ(plane.stats().planned_local, 5);
}

TEST(PlacementPlaneTest, PlannedBacklogSpreadsCoLocatedBlocks) {
  // Four blocks all replicated on nodes {0, 1}: the planned-backlog term
  // must split them 2/2 instead of piling all four onto one holder.
  PlacementPlane plane({PlacementMode::kLocalityRanked, 42, 4, nullptr});
  plane.PlanJob(0, MakeBlocks({{0, 1}, {0, 1}, {0, 1}, {0, 1}}));
  int on_node0 = 0;
  for (const Assignment& a : plane.Log()) {
    if (a.node == 0) ++on_node0;
  }
  EXPECT_EQ(on_node0, 2);
}

TEST(PlacementPlaneTest, RegistrationOrderBaselineIsLocalityBlind) {
  PlacementPlane plane({PlacementMode::kRegistrationOrder, 42, 4, nullptr});
  plane.PlanJob(0, MakeBlocks({{2}, {2}, {2}, {2}}));
  std::vector<int> nodes;
  for (const Assignment& a : plane.Log()) nodes.push_back(a.node);
  // Round-robin over all nodes, blind to the fact node 2 holds everything.
  EXPECT_EQ(nodes, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(plane.stats().planned_local, 1);
}

TEST(PlacementPlaneTest, SameSeedYieldsIdenticalAssignmentLog) {
  const auto blocks =
      MakeBlocks({{1, 2}, {0, 3}, {2, 3}, {0, 1}, {1, 3}, {0, 2}});
  const auto run = [&](std::uint64_t seed) {
    PlacementPlane plane({PlacementMode::kLocalityRanked, seed, 4, nullptr});
    plane.PlanJob(0, blocks);
    plane.PlanJob(1, blocks);
    return plane.Log();
  };
  const auto a = run(7);
  const auto b = run(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].job, b[i].job);
    EXPECT_EQ(a[i].block_id, b[i].block_id);
    EXPECT_EQ(a[i].node, b[i].node) << "entry " << i;
    EXPECT_EQ(a[i].local, b[i].local);
    EXPECT_EQ(a[i].replacement, b[i].replacement);
  }
}

TEST(PlacementPlaneTest, HeartbeatLoadAndSuspectHistorySteerPlacement) {
  coord::WorkerRegistry registry;
  (void)registry.Register("map-0", "a:1", net::WireRole::kMap, 0.0);
  (void)registry.Register("map-1", "b:1", net::WireRole::kMap, 0.0);
  // Worker 0 reports heavy load in its v6 heartbeat; worker 1 is idle.
  (void)registry.Heartbeat("map-0", 1, 1.0, {5, 0, 9});
  (void)registry.Heartbeat("map-1", 1, 1.0, {0, 0, 0});

  PlacementPlane loaded({PlacementMode::kLocalityRanked, 42, 2, &registry});
  loaded.PlanJob(0, MakeBlocks({{0, 1}}));
  EXPECT_EQ(loaded.Log()[0].node, 1) << "load must steer off the busy holder";

  // Health: equal loads, but worker 0 has survived a lease expiry (flappy).
  coord::WorkerRegistry flappy;
  (void)flappy.Register("map-0", "a:1", net::WireRole::kMap, 0.0);
  (void)flappy.Register("map-1", "b:1", net::WireRole::kMap, 0.0);
  (void)flappy.Heartbeat("map-1", 1, 1.0);
  (void)flappy.ExpireLeases(3.0, 2.0);  // map-0 (registered at 0) expires
  (void)flappy.Register("map-0", "a:1", net::WireRole::kMap, 3.5);  // rejoin
  coord::WorkerInfo info;
  ASSERT_TRUE(flappy.Lookup("map-0", &info));
  ASSERT_EQ(info.suspect_count, 1u);

  PlacementPlane plane({PlacementMode::kLocalityRanked, 42, 2, &flappy});
  plane.PlanJob(0, MakeBlocks({{0, 1}}));
  EXPECT_EQ(plane.Log()[0].node, 1) << "suspect history must rank last";
}

TEST(PlacementPlaneTest, PickPendingServesThePlanThenStealsBacklog) {
  PlacementPlane plane({PlacementMode::kLocalityRanked, 42, 2, nullptr});
  const auto blocks = MakeBlocks({{0}, {0}, {1}});
  plane.PlanJob(0, blocks);
  std::vector<const BlockInfo*> pending = {&blocks[0], &blocks[1], &blocks[2]};

  // Node 0 drains its own plan first (earliest pending listing order).
  EXPECT_EQ(plane.PickPending(0, 0, pending), 0);
  pending.erase(pending.begin());
  EXPECT_EQ(plane.PickPending(0, 0, pending), 0);
  pending.erase(pending.begin());
  // Plan dry: node 0 steals node 1's block instead of idling.
  EXPECT_EQ(plane.PickPending(0, 0, pending), 0);
  EXPECT_EQ(plane.stats().steals, 1);
  // Unplanned job: the executor falls back to its built-in order.
  EXPECT_EQ(plane.PickPending(99, 0, pending), -1);
}

TEST(PlacementPlaneTest, LoadVectorReportsSlotsAndBacklog) {
  PlacementPlane plane({PlacementMode::kLocalityRanked, 42, 2, nullptr});
  plane.PlanJob(0, MakeBlocks({{1}, {1}}));
  plane.OnSlotAcquired(1);
  const auto load = plane.LoadVector(1);
  ASSERT_EQ(load.size(), net::kLoadQueueDepth + 1);
  EXPECT_EQ(load[net::kLoadMapSlotsHeld], 1u);
  EXPECT_EQ(load[net::kLoadQueueDepth], 2u);
  plane.OnSlotReleased(1);
  EXPECT_EQ(plane.LoadVector(1)[net::kLoadMapSlotsHeld], 0u);
}

// The satellite chaos drill, deterministic half: plan against a live
// registry, kill the most-loaded worker mid-wave (its lease lapses while
// the others renew), and every operation planned on it must re-place onto
// the next-ranked live replica holder, logged as a replacement.
TEST(PlacementChaos, KilledWorkerOpsReplaceOntoNextRankedHolder) {
  coord::WorkerRegistry registry;
  (void)registry.Register("map-0", "a:1", net::WireRole::kMap, 0.0);
  (void)registry.Register("map-1", "b:1", net::WireRole::kMap, 0.0);
  (void)registry.Register("map-2", "c:1", net::WireRole::kMap, 0.0);

  PlacementPlane plane({PlacementMode::kLocalityRanked, 42, 3, &registry});
  const auto blocks = MakeBlocks({{1, 2}, {1, 2}, {1, 2}, {1, 2}});
  plane.PlanJob(0, blocks);
  // Backlog spreads the wave across both holders.
  std::vector<std::uint64_t> on_node1;
  for (const Assignment& a : plane.Log()) {
    if (a.node == 1) on_node1.push_back(a.block_id);
  }
  ASSERT_FALSE(on_node1.empty());

  // map-1 is now the most-loaded worker (its last heartbeat says so) and
  // then goes silent; the detector evicts it while its peers renew.
  (void)registry.Heartbeat("map-1", 1, 1.0, {2, 0, 8});
  (void)registry.Heartbeat("map-0", 1, 10.0, {0, 0, 0});
  (void)registry.Heartbeat("map-2", 1, 10.0, {0, 0, 0});
  const auto expired = registry.ExpireLeases(11.0, 2.0);
  ASSERT_EQ(expired, (std::vector<std::string>{"map-1"}));

  // The next pick refreshes the plan against the bumped registry epoch.
  std::vector<const BlockInfo*> pending;
  for (const auto& b : blocks) pending.push_back(&b);
  (void)plane.PickPending(0, 2, pending);

  std::vector<std::uint64_t> replaced;
  for (const Assignment& a : plane.Log()) {
    if (!a.replacement) continue;
    EXPECT_EQ(a.node, 2) << "next-ranked live holder of {1,2} with 1 dead";
    EXPECT_TRUE(a.local);
    replaced.push_back(a.block_id);
  }
  std::sort(on_node1.begin(), on_node1.end());
  std::sort(replaced.begin(), replaced.end());
  // The refresh runs before the pick consumes anything, so every op that
  // was stranded on the dead node appears in the replacement log.
  EXPECT_EQ(replaced, on_node1);
  EXPECT_EQ(plane.stats().replacements,
            static_cast<std::int64_t>(on_node1.size()));
}

// ---------------------------------------------------------------------------
// JobScheduler integration
// ---------------------------------------------------------------------------

class PlacementSchedulerTest : public ::testing::Test {
 protected:
  PlacementSchedulerTest()
      : platform_({.num_nodes = 4,
                   .block_bytes = 64u << 10,
                   .replication = 3,
                   .placement_skew = 1.2,
                   .remote_read_penalty_us = 50}) {
    ClickStreamOptions gen;
    gen.num_records = 20'000;
    gen.num_users = 800;
    GenerateClickStream(platform_.dfs(), "clicks", gen);
  }

  std::vector<std::pair<std::string, std::string>> SortedOutput(
      const std::string& name, int reducers) {
    auto rows = platform_.ReadOutput(name, reducers);
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Platform platform_;
};

TEST_F(PlacementSchedulerTest, LocalityModeMatchesEngineOutputAndStaysLocal) {
  // Sequential engine-mode baseline.
  platform_.Run(PerUserCountJob("clicks", "base.out", 3),
                HashOnePassOptions());
  const auto expected = SortedOutput("base.out", 3);

  sched::SchedulerOptions sopts;
  sopts.num_nodes = 4;
  sopts.placement_mode = PlacementMode::kLocalityRanked;
  sopts.placement_seed = 7;
  sched::JobScheduler scheduler(&platform_.dfs(), &platform_.files(), sopts);
  sched::JobRequest request;
  request.id = "local";
  request.spec = PerUserCountJob("clicks", "local.out", 3);
  request.options = HashOnePassOptions();
  const int handle = scheduler.Submit(std::move(request));
  const auto report = scheduler.Wait(handle);
  ASSERT_FALSE(report.failed) << report.error;
  EXPECT_EQ(SortedOutput("local.out", 3), expected);

  const auto stats = scheduler.stats();
  ASSERT_GT(stats.placement.planned, 0);
  // Replication 3 over 4 nodes: a live holder always exists, so the plan
  // is fully data-local (the >= 80% acceptance bar with margin).
  EXPECT_EQ(stats.placement.planned_local, stats.placement.planned);
}

TEST_F(PlacementSchedulerTest, QuotaDefersSecondJobAndCountsReason) {
  sched::SchedulerOptions sopts;
  sopts.num_nodes = 4;
  sopts.pools = {{"capped", "", 1.0, 1}};  // one running job at a time
  sched::JobScheduler scheduler(&platform_.dfs(), &platform_.files(), sopts);
  for (int i = 0; i < 2; ++i) {
    sched::JobRequest request;
    request.id = "q" + std::to_string(i);
    request.spec =
        PerUserCountJob("clicks", "q" + std::to_string(i) + ".out", 2);
    request.options = HashOnePassOptions();
    request.pool = "capped";
    scheduler.Submit(std::move(request));
  }
  const auto reports = scheduler.Drain();
  for (const auto& report : reports) {
    EXPECT_FALSE(report.failed) << report.error;
  }
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.peak_concurrent, 1);  // the cap serialized them
  EXPECT_GE(stats.quota_deferrals, 1);
  EXPECT_EQ(stats.placement_deferrals,
            stats.no_map_worker_deferrals + stats.no_reduce_worker_deferrals +
                stats.quota_deferrals);
  ASSERT_EQ(stats.pools.size(), 2u);  // root + capped
  EXPECT_GT(stats.pools[1].total_grants, 0);

  // Naming a pool that was never declared is an admission error.
  sched::JobRequest bad;
  bad.id = "ghost";
  bad.spec = PerUserCountJob("clicks", "ghost.out", 2);
  bad.options = HashOnePassOptions();
  bad.pool = "undeclared";
  EXPECT_THROW(scheduler.Submit(std::move(bad)), sched::AdmissionError);
}

// The satellite chaos drill, full-stack half: a registry-backed locality
// scheduler keeps a job's output byte-identical to the engine baseline
// even when the most-loaded map worker is evicted mid-run — stranded
// operations re-place onto surviving holders and the wave completes.
TEST_F(PlacementSchedulerTest, WorkerDeathMidWaveKeepsOutputByteIdentical) {
  platform_.Run(PerUserCountJob("clicks", "chaos_base.out", 3),
                HashOnePassOptions());
  const auto expected = SortedOutput("chaos_base.out", 3);

  coord::WorkerRegistry registry;
  for (int i = 0; i < 4; ++i) {
    (void)registry.Register("map-" + std::to_string(i),
                            "h:" + std::to_string(i), net::WireRole::kMap,
                            0.0);
  }
  (void)registry.Register("reduce-0", "r:1", net::WireRole::kReduce, 0.0);
  // map-1 reports the heaviest load, then goes silent; everyone else
  // renews far into the future so only map-1 can expire.
  (void)registry.Heartbeat("map-1", 1, 1.0, {3, 0, 7});
  (void)registry.Heartbeat("map-0", 1, 1000.0, {0, 0, 0});
  (void)registry.Heartbeat("map-2", 1, 1000.0, {0, 0, 0});
  (void)registry.Heartbeat("map-3", 1, 1000.0, {0, 0, 0});
  (void)registry.Heartbeat("reduce-0", 1, 1000.0);

  sched::SchedulerOptions sopts;
  sopts.num_nodes = 4;
  sopts.registry = &registry;
  sopts.placement_mode = PlacementMode::kLocalityRanked;
  sopts.placement_seed = 7;
  sched::JobScheduler scheduler(&platform_.dfs(), &platform_.files(), sopts);
  sched::JobRequest request;
  request.id = "chaos";
  request.spec = PerUserCountJob("clicks", "chaos.out", 3);
  request.options = HashOnePassOptions();
  const int handle = scheduler.Submit(std::move(request));

  // Wait for the plan (the job dispatched and its wave is starting), then
  // evict the most-loaded worker mid-wave.
  while (scheduler.stats().placement.planned == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto expired = registry.ExpireLeases(5.0, 2.0);
  ASSERT_EQ(expired, (std::vector<std::string>{"map-1"}));

  const auto report = scheduler.Wait(handle);
  ASSERT_FALSE(report.failed) << report.error;
  EXPECT_EQ(SortedOutput("chaos.out", 3), expected);

  // Whatever of map-1's share was still pending at eviction time was
  // re-placed onto live nodes; the log stays internally consistent.
  const auto log = scheduler.placement_plane()->Log();
  ASSERT_FALSE(log.empty());
  for (const Assignment& a : log) {
    if (a.replacement) {
      EXPECT_NE(a.node, 1);
    }
  }
}

}  // namespace
}  // namespace opmr
