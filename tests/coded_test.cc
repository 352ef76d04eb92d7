// Coded shuffle plane acceptance: the XOR-multicast delivery path must be
// invisible in the answer.  The same job over the direct in-process engine
// and over coded loopback/TCP at r ∈ {2, 3} must produce byte-identical
// key→value output — including under an injected connection drop and under
// a seeded mid-job worker kill, which must be recovered by reconstructing
// the lost node's intermediates from the surviving r−1 replicas without
// re-executing a single map task.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coded/coded.h"
#include "coded/plan.h"
#include "core/opmr.h"
#include "net/loopback.h"
#include "net/tcp.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

std::map<std::string, std::string> AsMap(const Rows& rows) {
  std::map<std::string, std::string> m;
  for (const auto& [k, v] : rows) {
    EXPECT_TRUE(m.emplace(k, v).second) << "duplicate key " << k;
  }
  return m;
}

// --- CodedPlan ---------------------------------------------------------------

std::vector<BlockInfo> SyntheticBlocks(int n, int replication, int num_nodes) {
  std::vector<BlockInfo> blocks(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    blocks[i].block_id = static_cast<std::uint64_t>(1000 + i);
    for (int p = 0; p < replication; ++p) {
      blocks[i].replica_nodes.push_back((i + p) % num_nodes);
    }
  }
  return blocks;
}

TEST(CodedPlan, HoldersAreSortedRSubsetsDerivedDeterministically) {
  const auto blocks = SyntheticBlocks(10, 2, 3);
  const auto plan = coded::CodedPlan::Build(blocks, /*num_reducers=*/5,
                                            /*r=*/2, /*seed=*/42);
  const auto again = coded::CodedPlan::Build(blocks, 5, 2, 42);
  ASSERT_EQ(plan.num_tasks(), 10);
  for (int t = 0; t < plan.num_tasks(); ++t) {
    const auto& h = plan.holders(t);
    ASSERT_EQ(h.size(), 2u);
    EXPECT_TRUE(std::is_sorted(h.begin(), h.end()));
    EXPECT_EQ(std::set<int>(h.begin(), h.end()).size(), h.size());
    for (int node : h) {
      EXPECT_GE(node, 0);
      EXPECT_LT(node, 5);
    }
    EXPECT_EQ(again.holders(t), h) << "plan must be a pure function";
  }
  ASSERT_EQ(again.groups().size(), plan.groups().size());
  for (std::size_t g = 0; g < plan.groups().size(); ++g) {
    EXPECT_EQ(again.groups()[g].nodes, plan.groups()[g].nodes);
    EXPECT_EQ(again.groups()[g].tasks_for, plan.groups()[g].tasks_for);
  }
}

TEST(CodedPlan, EveryNonHolderIsServedByExactlyOneGroup) {
  const auto blocks = SyntheticBlocks(12, 2, 4);
  const auto plan = coded::CodedPlan::Build(blocks, /*num_reducers=*/5,
                                            /*r=*/2, /*seed=*/1);
  for (int t = 0; t < plan.num_tasks(); ++t) {
    const auto& holders = plan.holders(t);
    std::set<int> served;
    for (int g : plan.groups_of_task(t)) {
      const auto& group = plan.groups()[static_cast<std::size_t>(g)];
      ASSERT_EQ(group.nodes.size(), 3u);  // r + 1
      // Exactly one member receives t from this group: the non-holder.
      int receivers = 0;
      for (std::size_t j = 0; j < group.nodes.size(); ++j) {
        const auto& owed = group.tasks_for[j];
        if (std::find(owed.begin(), owed.end(), t) == owed.end()) continue;
        ++receivers;
        EXPECT_FALSE(std::binary_search(holders.begin(), holders.end(),
                                        group.nodes[j]));
        EXPECT_TRUE(served.insert(group.nodes[j]).second)
            << "node served twice for task " << t;
      }
      EXPECT_EQ(receivers, 1);
    }
    // The receivers across t's groups are precisely the non-holders.
    EXPECT_EQ(served.size(),
              static_cast<std::size_t>(plan.num_reducers()) - holders.size());
    for (int h : holders) EXPECT_EQ(served.count(h), 0u);
  }
}

TEST(CodedPlan, PartLengthsPartitionTheStream) {
  const auto blocks = SyntheticBlocks(4, 3, 4);
  const auto plan = coded::CodedPlan::Build(blocks, 6, 3, 9);
  for (std::uint64_t total : {0ull, 1ull, 2ull, 3ull, 1000ull, 65537ull}) {
    const auto parts = plan.PartLengths(total);
    ASSERT_EQ(parts.size(), 3u);
    std::uint64_t sum = 0;
    for (auto p : parts) sum += p;
    EXPECT_EQ(sum, total);
    EXPECT_LE(parts.back(), parts.front());
    EXPECT_LE(parts.front() - parts.back(), 1u);
  }
}

TEST(CodedPlan, RejectsDegenerateShapes) {
  const auto blocks = SyntheticBlocks(3, 1, 2);
  EXPECT_THROW(coded::CodedPlan::Build(blocks, 3, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(coded::CodedPlan::Build(blocks, 2, 2, 1),
               std::invalid_argument);
}

// --- Unit framing ------------------------------------------------------------

TEST(CodedUnits, FramingRoundTripsAndRejectsMalformedStreams) {
  std::string stream;
  coded::CodedUnit a;
  a.sorted = true;
  a.records = 7;
  a.bytes = "hello";
  coded::CodedUnit b;  // empty payload unit
  coded::AppendUnit(&stream, 3, a);
  coded::AppendUnit(&stream, 11, b);

  std::vector<std::pair<int, coded::CodedUnit>> parsed;
  ASSERT_TRUE(coded::ParseUnits(stream, &parsed));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].first, 3);
  EXPECT_TRUE(parsed[0].second.sorted);
  EXPECT_EQ(parsed[0].second.records, 7u);
  EXPECT_EQ(parsed[0].second.bytes, "hello");
  EXPECT_EQ(parsed[1].first, 11);
  EXPECT_EQ(parsed[1].second.bytes, "");

  // Truncations must fail — except a cut landing exactly on the unit
  // boundary, which is simply a valid shorter stream.
  const std::size_t first_unit = 4 + 1 + 8 + 4 + a.bytes.size();
  for (std::size_t cut = 1; cut < stream.size(); ++cut) {
    std::vector<std::pair<int, coded::CodedUnit>> out;
    if (cut == first_unit) {
      EXPECT_TRUE(coded::ParseUnits(stream.substr(0, cut), &out));
      EXPECT_EQ(out.size(), 1u);
      continue;
    }
    EXPECT_FALSE(coded::ParseUnits(stream.substr(0, cut), &out))
        << "cut at " << cut;
  }
  // A flag byte outside {0, 1} is malformed.
  std::string bad = stream;
  bad[4] = '\x02';
  std::vector<std::pair<int, coded::CodedUnit>> out;
  EXPECT_FALSE(coded::ParseUnits(bad, &out));
}

// --- End-to-end byte identity ------------------------------------------------

enum class Wire { kDirect, kLoopback, kTcp };

struct Outcome {
  JobResult result;
  Rows rows;
};

Outcome RunCoded(Wire wire, int coded_r, const std::string& fault_plan = "",
                 int kill_node = -1, std::uint64_t kill_after = 0) {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 256u << 10;
  popts.replication = 3;
  popts.fault_plan = fault_plan;
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 40'000;
  gen.num_users = 5'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  const JobSpec spec = PerUserCountJob("clicks", "out", 4);

  if (coded_r > 0) platform.executor().set_coded(coded_r);
  if (kill_node >= 0) platform.executor().set_coded_kill(kill_node, kill_after);

  Outcome out;
  switch (wire) {
    case Wire::kDirect:
      out.result = platform.Run(spec, HashOnePassOptions());
      break;
    case Wire::kLoopback: {
      net::LoopbackTransport transport(&platform.metrics());
      out.result =
          platform.RunWithTransport(spec, HashOnePassOptions(), &transport);
      break;
    }
    case Wire::kTcp: {
      net::TcpTransport transport(&platform.metrics());
      transport.Bind();
      out.result =
          platform.RunWithTransport(spec, HashOnePassOptions(), &transport);
      break;
    }
  }
  out.rows = platform.ReadOutput("out", 4);
  return out;
}

TEST(CodedShuffle, ByteIdenticalToDirectAtR2OverLoopbackAndTcp) {
  const auto direct = RunCoded(Wire::kDirect, /*coded_r=*/0);
  const auto truth = AsMap(direct.rows);
  ASSERT_GT(truth.size(), 0u);

  for (Wire wire : {Wire::kLoopback, Wire::kTcp}) {
    const auto coded = RunCoded(wire, /*coded_r=*/2);
    EXPECT_EQ(AsMap(coded.rows), truth);
    EXPECT_EQ(coded.result.output_records, direct.result.output_records);
    EXPECT_GT(coded.result.Bytes(coded::kCodedFrames), 0);
    EXPECT_GT(coded.result.Bytes(coded::kCodedDecodedUnits), 0);
    EXPECT_GT(coded.result.Bytes(coded::kCodedLocalUnits), 0);
    // Prepare re-ran every task once per holder: T × r re-maps, and the
    // job itself never retried a map task.
    EXPECT_EQ(coded.result.Bytes(coded::kCodedRemapTasks),
              2 * coded.result.num_map_tasks);
    EXPECT_EQ(coded.result.Bytes(kRetryMapTask), 0);
  }
}

TEST(CodedShuffle, ByteIdenticalToDirectAtR3) {
  const auto direct = RunCoded(Wire::kDirect, 0);
  const auto coded = RunCoded(Wire::kLoopback, /*coded_r=*/3);
  EXPECT_EQ(AsMap(coded.rows), AsMap(direct.rows));
  EXPECT_EQ(coded.result.Bytes(coded::kCodedRemapTasks),
            3 * coded.result.num_map_tasks);
}

TEST(CodedShuffle, CodedPayloadShrinksVersusUncodedUnicast) {
  // r=1 is degenerate coding: singleton holder sets, XOR of one part —
  // plain unicast through the coded path.  r=2 must ship materially fewer
  // coded payload bytes for the same job (each frame serves two peers).
  const auto r1 = RunCoded(Wire::kLoopback, 1);
  const auto r2 = RunCoded(Wire::kLoopback, 2);
  EXPECT_EQ(AsMap(r2.rows), AsMap(r1.rows));
  const auto payload1 = r1.result.Bytes(coded::kCodedPayloadBytes);
  const auto payload2 = r2.result.Bytes(coded::kCodedPayloadBytes);
  ASSERT_GT(payload1, 0);
  ASSERT_GT(payload2, 0);
  EXPECT_GT(static_cast<double>(payload1), 1.5 * payload2);
}

TEST(CodedShuffle, InjectedConnDropIsInvisibleInTheAnswer) {
  const auto clean = RunCoded(Wire::kDirect, 0);
  const auto dropped =
      RunCoded(Wire::kTcp, /*coded_r=*/2, "seed=7;conn_drop:record=2");
  EXPECT_EQ(AsMap(dropped.rows), AsMap(clean.rows));
  EXPECT_GE(dropped.result.Bytes(kFaultsInjected), 1);
  EXPECT_GE(dropped.result.Bytes(net::kNetReconnects), 1);
}

TEST(CodedShuffle, MidJobKillIsRecoveredFromReplicasWithoutMapRerun) {
  const auto clean = RunCoded(Wire::kDirect, 0);
  // Node 1 of the coded plane loses its entire re-mapped store after two
  // coded frames have been applied — mid-shuffle, with most groups still
  // undecoded.  Peeling falls back to the surviving replica's identical
  // store; no map task runs again.
  const auto killed = RunCoded(Wire::kLoopback, /*coded_r=*/2,
                               /*fault_plan=*/"", /*kill_node=*/1,
                               /*kill_after=*/2);
  EXPECT_EQ(AsMap(killed.rows), AsMap(clean.rows));
  EXPECT_GT(killed.result.Bytes(coded::kCodedReconstructedSegments), 0);
  EXPECT_EQ(killed.result.Bytes(kRetryMapTask), 0)
      << "reconstruction must not re-execute maps";
  EXPECT_EQ(killed.result.Bytes(coded::kCodedRemapTasks),
            2 * killed.result.num_map_tasks)
      << "only the up-front Prepare() re-maps, never recovery";
}

// --- Validation --------------------------------------------------------------

TEST(CodedShuffle, RejectsDirectTransportWithActionableError) {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.replication = 2;
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 100;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  const JobSpec spec = PerUserCountJob("clicks", "out", 4);
  platform.executor().set_coded(2);
  try {
    platform.Run(spec, HashOnePassOptions());
    FAIL() << "coded_r without a transport must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("transport"), std::string::npos)
        << e.what();
  }
}

TEST(CodedShuffle, RejectsPullShuffleAndThinReplication) {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.replication = 1;  // < r
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 100;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  platform.executor().set_coded(2);

  net::LoopbackTransport transport(&platform.metrics());
  try {
    platform.RunWithTransport(PerUserCountJob("clicks", "out", 4),
                              HadoopOptions(), &transport);
    FAIL() << "coded_r under pull shuffle must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("push"), std::string::npos)
        << e.what();
  }
  net::LoopbackTransport transport2(&platform.metrics());
  try {
    platform.RunWithTransport(PerUserCountJob("clicks", "out", 4),
                              HashOnePassOptions(), &transport2);
    FAIL() << "replication < r must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("replication"), std::string::npos)
        << e.what();
  }
}

TEST(CodedShuffle, RejectsTooFewReducers) {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.replication = 2;
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 100;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  platform.executor().set_coded(2);
  net::LoopbackTransport transport(&platform.metrics());
  try {
    platform.RunWithTransport(PerUserCountJob("clicks", "out", 2),
                              HashOnePassOptions(), &transport);
    FAIL() << "num_reducers < r + 1 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_reducers"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace opmr
