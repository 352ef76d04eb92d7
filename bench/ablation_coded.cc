// Ablation — coded shuffle replication factor r (Li et al., coded MapReduce).
//
// The coded plane trades spare map CPU for shuffle bytes: each map block is
// re-mapped on r reducer-side nodes, and intermediates travel as XOR'd
// multicast frames that every non-holder in a group of r+1 peels with its
// local copies.  In theory the shuffle payload shrinks by roughly r× (for
// K reducers, the exact r=2-vs-r=1 ratio is 2(K−1)/(K−2) — 3× at K=4);
// the bill is r extra map executions' worth of CPU.  This sweep runs the
// same job at r ∈ {1, 2, 3} over the loopback transport and records both
// sides of the trade.  r=1 is degenerate coding (singleton holder sets,
// XOR of one part — plain unicast through the coded path), so it is the
// uncoded baseline with identical framing overhead.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "coded/coded.h"
#include "common/config.h"
#include "common/format.h"
#include "core/opmr.h"
#include "engine/job_metrics.h"
#include "net/loopback.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

int main(int argc, char** argv) {
  using namespace opmr;
  const auto cfg = Config::FromArgs(argc, argv);

  bench::Banner("Ablation: coded shuffle replication r — XOR-multicast "
                "payload vs spare map CPU");

  const int num_reducers = 4;  // K=4 => ideal r2/r1 payload ratio is 3x
  const auto records =
      static_cast<std::uint64_t>(cfg.GetInt("records", 200'000));

  struct Point {
    int r = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::int64_t payload_bytes = 0;
    std::int64_t frames = 0;
    std::int64_t net_bytes = 0;
    std::int64_t remap_tasks = 0;
    int map_tasks = 0;
    std::vector<std::string> coded_cells;  // the coded group's CSV columns
  };
  std::vector<Point> points;

  int run = 0;
  for (int r : {1, 2, 3}) {
    // A fresh platform per point: set_coded sticks to the executor, and the
    // DFS layout (hence the plan) should be regenerated identically anyway.
    PlatformOptions popts;
    popts.num_nodes = 3;
    popts.block_bytes = 256u << 10;
    popts.replication = 3;
    Platform platform(popts);
    ClickStreamOptions gen;
    gen.num_records = records;
    gen.num_users = 20'000;
    GenerateClickStream(platform.dfs(), "clicks", gen);
    platform.executor().set_coded(r);

    net::LoopbackTransport wire(&platform.metrics());
    const auto spec =
        PerUserCountJob("clicks", "coded_" + std::to_string(run++), num_reducers);
    const auto res = platform.RunWithTransport(spec, HashOnePassOptions(), &wire);

    Point p;
    p.r = r;
    p.wall_s = res.wall_seconds;
    p.cpu_s = res.total_cpu_seconds;
    p.payload_bytes = res.Bytes(coded::kCodedPayloadBytes);
    p.frames = res.Bytes(coded::kCodedFrames);
    p.net_bytes = res.Bytes(net::kNetBytesSent);
    p.remap_tasks = res.Bytes(coded::kCodedRemapTasks);
    p.map_tasks = res.num_map_tasks;
    p.coded_cells = MetricCsvCells(res, MetricGroup::kCoded);
    points.push_back(p);
  }

  TextTable table;
  table.AddRow({"r", "Wall time", "CPU", "Coded payload", "Frames",
                "Net bytes", "Re-maps"});
  bench::CsvSink csv("ablation_coded.csv");
  csv.Row("r", "wall_s", "cpu_s", "map_tasks", net::kNetBytesSent,
          MetricCsvHeader(MetricGroup::kCoded));
  for (const auto& p : points) {
    table.AddRow({std::to_string(p.r), HumanSeconds(p.wall_s),
                  HumanSeconds(p.cpu_s), HumanBytes(double(p.payload_bytes)),
                  std::to_string(p.frames), HumanBytes(double(p.net_bytes)),
                  std::to_string(p.remap_tasks)});
    csv.Row(p.r, p.wall_s, p.cpu_s, p.map_tasks, p.net_bytes, p.coded_cells);
  }
  std::printf("%s", table.ToString().c_str());

  const double reduction =
      points[1].payload_bytes > 0
          ? double(points[0].payload_bytes) / double(points[1].payload_bytes)
          : 0.0;
  const double reduction_r3 =
      points[2].payload_bytes > 0
          ? double(points[0].payload_bytes) / double(points[2].payload_bytes)
          : 0.0;
  std::printf("\nshuffle payload reduction: r=2 ships %.2fx fewer coded "
              "bytes than r=1 (r=3: %.2fx);\nthe price is %lldx re-map "
              "executions per block.\n",
              reduction, reduction_r3,
              static_cast<long long>(
                  points[1].map_tasks > 0
                      ? points[1].remap_tasks / points[1].map_tasks
                      : 0));

  const auto json_path = bench::OutDir() / "BENCH_coded.json";
  if (std::FILE* out = std::fopen(json_path.string().c_str(), "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"ablation_coded\",\n"
                 "  \"num_reducers\": %d,\n"
                 "  \"records\": %llu,\n"
                 "  \"points\": [\n",
                 num_reducers, static_cast<unsigned long long>(records));
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      std::fprintf(out,
                   "    { \"r\": %d, \"wall_s\": %.4f, \"cpu_s\": %.4f, "
                   "\"coded_payload_bytes\": %lld, \"coded_frames\": %lld, "
                   "\"net_bytes_sent\": %lld, \"remap_tasks\": %lld, "
                   "\"map_tasks\": %d }%s\n",
                   p.r, p.wall_s, p.cpu_s,
                   static_cast<long long>(p.payload_bytes),
                   static_cast<long long>(p.frames),
                   static_cast<long long>(p.net_bytes),
                   static_cast<long long>(p.remap_tasks), p.map_tasks,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"payload_reduction_r2_vs_r1\": %.4f,\n"
                 "  \"payload_reduction_r3_vs_r1\": %.4f,\n"
                 "  \"meets_1p8x_bar\": %s\n"
                 "}\n",
                 reduction, reduction_r3, reduction >= 1.8 ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.string().c_str());
  }
  return reduction >= 1.8 ? 0 : 1;
}
