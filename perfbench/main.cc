// perfbench: the one-pass job benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--trace-dir DIR] [--git-sha SHA]
//
// One process runs one workload as a closed loop: each job starts when the
// previous one returns.  Set-up (platform construction, input generation
// and one untimed warm-up job) is repeated kSetups times and reported as
// its median; the timed loop then runs jobs for S seconds.  Every job's
// output is checked against a single-threaded reference.
//
// --trace 0 reports the end-to-end metrics of untraced jobs.  --trace 1
// alternates untraced and traced jobs, reports the per-layer metrics of the
// traced ones plus the tracing overhead, and writes the spans as Chrome
// trace-event JSON.  The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/opmr.h"
#include "dataplane/event_loop.h"
#include "net/tcp.h"
#include "reference.h"
#include "tracing.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"
#include "workloads/webdocs.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr int kReducers = 4;
constexpr double kMB = 1e6;

// --- Workloads ----------------------------------------------------------------

// Which path the shuffle takes: the engine's direct in-process calls, or a
// socket transport dialed back into this process.
enum class Wire { kDirect, kEpoll, kTcp };

struct Workload {
  std::string name;
  std::function<void(opmr::Dfs&, std::uint64_t seed)> generate;
  std::function<opmr::JobSpec(const std::string& output)> spec;
  opmr::JobOptions options;
  Wire wire = Wire::kDirect;
  Canon canon = Canon::kExact;
};

const char* const kInput = "input";

std::vector<Workload> Workloads() {
  std::vector<Workload> all;
  {
    // Paper Fig. 2 / Table II baseline: map sort, reduce-side spill and
    // multi-pass merge, holistic reduce.  The reduce budget sits far below
    // each reducer's share of the shuffle, so the merge goes to disk.
    Workload w;
    w.name = "sessionize-sortmerge";
    w.generate = [](opmr::Dfs& dfs, std::uint64_t seed) {
      opmr::ClickStreamOptions o;
      o.num_records = 2'000'000;
      o.seed = seed;
      opmr::GenerateClickStream(dfs, kInput, o);
    };
    w.spec = [](const std::string& out) {
      return opmr::SessionizationJob(kInput, out, kReducers);
    };
    w.options = opmr::HadoopOptions();
    w.options.reduce_buffer_bytes = 4u << 20;
    all.push_back(std::move(w));
  }
  {
    // Paper §V technique 3 under memory pressure: a Zipf head plus a long
    // tail of one-off users overflows a reduce budget far below the key
    // set, so cold keys spill while hot keys stay in memory.  Small push
    // chunks make many frames, the traffic epoll batching targets.
    Workload w;
    w.name = "usercount-hotkey-epoll";
    w.generate = [](opmr::Dfs& dfs, std::uint64_t seed) {
      opmr::ClickStreamOptions o;
      o.num_records = 2'000'000;
      o.tail_fraction = 0.3;
      o.tail_universe = 100'000'000;
      o.seed = seed;
      opmr::GenerateClickStream(dfs, kInput, o);
    };
    w.spec = [](const std::string& out) {
      return opmr::PerUserCountJob(kInput, out, kReducers);
    };
    w.options = opmr::HotKeyOnePassOptions();
    w.options.reduce_buffer_bytes = 1u << 20;
    w.options.push_chunk_bytes = 16u << 10;
    w.wire = Wire::kEpoll;
    all.push_back(std::move(w));
  }
  {
    // The counterpart of the other two: holistic with no combiner, bulk
    // bytes in large chunks on the wire, and a reduce budget that holds
    // every reducer's postings so storage stays idle.
    Workload w;
    w.name = "index-hash-tcp";
    w.generate = [](opmr::Dfs& dfs, std::uint64_t seed) {
      opmr::WebDocsOptions o;
      o.num_docs = 75'000;
      o.seed = seed;
      opmr::GenerateWebDocs(dfs, kInput, o);
    };
    w.spec = [](const std::string& out) {
      return opmr::InvertedIndexJob(kInput, out, kReducers);
    };
    w.options = opmr::HashOnePassOptions();
    w.options.hash_reduce = opmr::HashReduce::kHybridHash;
    w.options.reduce_buffer_bytes = 128u << 20;
    w.options.push_chunk_bytes = 256u << 10;
    w.wire = Wire::kTcp;
    w.canon = Canon::kPostingSet;
    all.push_back(std::move(w));
  }
  return all;
}

// Every transport the benchmark uses is built here, bound to an ephemeral
// loopback port that the engine dials back into (one shuffle connection).
std::unique_ptr<opmr::net::Transport> MakeTransport(
    Wire wire, opmr::MetricRegistry* metrics) {
  switch (wire) {
    case Wire::kDirect:
      return nullptr;
    case Wire::kEpoll: {
      auto t = std::make_unique<opmr::dataplane::EventLoopTransport>(metrics);
      t->Bind();
      return t;
    }
    case Wire::kTcp: {
      auto t = std::make_unique<opmr::net::TcpTransport>(metrics);
      t->Bind();
      return t;
    }
  }
  return nullptr;
}

// --- Process measurements -----------------------------------------------------

double ProcessCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Resets the kernel's RSS high-water mark to the current RSS.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// A "VmHWM:" / "VmRSS:" line of /proc/self/status, in MB.
double StatusMb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) * 1024 / kMB;
    }
  }
  return 0;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double CpuPhase(const opmr::JobResult& r, const char* phase) {
  auto it = r.cpu_seconds.find(phase);
  return it == r.cpu_seconds.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Jobs ---------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct JobSample {
  bool ok = false;
  bool traced = false;
  double job_s = 0;
  double cpu_s = 0;
  double first_output_s = 0;
  double shuffle_mb = 0;
  double spill_mb = 0;
  double peak_rss_mb = 0;
  double start_rss_mb = 0;  // RSS when the job started
  std::vector<Metric> layers;  // traced jobs only
};

std::vector<Metric> LayerMetrics(const opmr::JobResult& r, const JobTrace& t) {
  const double pushed = static_cast<double>(r.Bytes("shuffle.pushed_chunks"));
  const double diverted = static_cast<double>(r.Bytes("shuffle.diverted_chunks"));
  const double send_syscalls = static_cast<double>(r.Bytes("net.send_syscalls"));
  const auto frames = static_cast<double>(t.net_frames_sent);
  return {
      {"dfs.read_mb", "MB", static_cast<double>(r.Bytes("dfs.bytes_read")) / kMB},
      {"map.wave_s", "s", t.map_wave_s},
      {"map.task_s_p50", "s", t.map_task_s_p50},
      {"map.task_s_max", "s", t.map_task_s_max},
      {"map.fn_busy_s", "s", t.map_fn_busy_s},
      {"map.emit_records", "count", static_cast<double>(t.map_emit_records)},
      {"map.sort_cpu_s", "s", CpuPhase(r, "map_sort")},
      {"map.hash_cpu_s", "s",
       CpuPhase(r, "map_hash") + CpuPhase(r, "map_combine") +
           CpuPhase(r, "map_flush")},
      {"map.output_mb", "MB",
       static_cast<double>(r.Bytes("map_output.bytes_written")) / kMB},
      {"shuffle.pushed_chunks", "count", pushed},
      {"shuffle.divert_ratio", "ratio", Ratio(diverted, pushed + diverted)},
      {"net.frames_sent", "count", frames},
      {"net.mb_sent", "MB", t.net_mb_sent},
      {"net.send_busy_s", "s", t.net_send_busy_s},
      {"net.send_us_p50", "us", t.net_send_us_p50},
      {"net.send_us_p99", "us", t.net_send_us_p99},
      {"net.recv_busy_s", "s", t.net_recv_busy_s},
      {"net.syscalls_per_frame", "ratio", Ratio(send_syscalls, frames)},
      {"storage.write_ops", "count", static_cast<double>(t.storage_write_ops)},
      {"storage.read_ops", "count", static_cast<double>(t.storage_read_ops)},
      {"storage.spill_read_mb", "MB",
       static_cast<double>(r.Bytes("reduce_spill.bytes_read")) / kMB},
      {"storage.merge_cpu_s", "s", CpuPhase(r, "reduce_merge")},
      {"spill_mb", "MB",
       static_cast<double>(r.Bytes("reduce_spill.bytes_written")) / kMB},
      {"reduce.tail_s", "s", t.reduce_tail_s},
      {"reduce.task_s_max", "s", t.reduce_task_s_max},
      {"reduce.fn_busy_s", "s", t.reduce_fn_busy_s},
      {"reduce.fn_calls", "count", static_cast<double>(t.reduce_fn_calls)},
      {"reduce.fn_cpu_s", "s", CpuPhase(r, "reduce_function")},
      {"reduce.hash_group_cpu_s", "s", CpuPhase(r, "hash_group")},
      {"reduce.imbalance", "ratio", r.ReducerImbalance()},
  };
}

// Deletes what finished jobs left in the workspace (their output, map
// output and spill files) and keeps the input's blocks.  The DFS has no
// delete; without this a run would fill the disk and every job would pay
// for writing back the files of the jobs before it.
void DropJobFiles(opmr::Platform& platform) {
  std::set<std::string> keep;
  for (const auto& block : platform.dfs().ListBlocks(kInput)) {
    keep.insert(block.path.filename().string());
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(platform.files().root())) {
    if (keep.count(entry.path().filename().string()) == 0) {
      std::filesystem::remove_all(entry.path());
    }
  }
}

// Runs one job under `w` into DFS output `output` (a fresh name per job:
// the DFS refuses to overwrite), checks it against `expected`, and drops
// its files.
JobSample RunJob(opmr::Platform& platform, const Workload& w,
                 const std::string& output, Tracer* tracer,
                 const RowDigest& expected) {
  JobSample s;
  s.traced = tracer != nullptr;
  try {
    opmr::JobSpec spec = w.spec(output);
    auto transport = MakeTransport(w.wire, &platform.metrics());
    std::optional<Tracer::JobScope> scope;
    if (tracer != nullptr) {
      spec = tracer->Wrap(std::move(spec));
      if (transport) transport = tracer->Wrap(std::move(transport));
      scope.emplace(*tracer, platform.executor(), output);
    }
    ResetPeakRss();
    s.start_rss_mb = StatusMb("VmRSS:");
    const double cpu0 = ProcessCpuSeconds();
    const std::int64_t t0 = NowNs();
    const opmr::JobResult r =
        transport ? platform.RunWithTransport(spec, w.options, transport.get())
                  : platform.Run(spec, w.options);
    s.job_s = Seconds(NowNs() - t0);
    s.cpu_s = ProcessCpuSeconds() - cpu0;
    s.peak_rss_mb = StatusMb("VmHWM:");
    if (scope) {
      s.layers = LayerMetrics(r, scope->Finish());
      scope.reset();
    }
    s.first_output_s = r.first_output_seconds;
    s.shuffle_mb = static_cast<double>(r.Bytes("shuffle.bytes_read")) / kMB;
    s.spill_mb = static_cast<double>(r.Bytes("reduce_spill.bytes_written")) / kMB;
    s.ok = OutputDigest(platform, spec, w.canon) == expected;
    if (!s.ok) std::cerr << "perfbench: " << output << ": output mismatch\n";
    DropJobFiles(platform);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << output << ": " << e.what() << "\n";
    s.ok = false;
  }
  return s;
}

// --- Report -------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::map<std::string, std::string> HostBlock(const std::string& git_sha) {
  utsname u{};
  ::uname(&u);
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"kernel", std::string(u.sysname) + " " + u.release},
      {"compiler",
#if defined(__clang__)
       std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
       std::string("g++ ") + __VERSION__
#else
       "unknown"
#endif
      },
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"git_sha", git_sha.empty() ? "none" : git_sha},
  };
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const auto& m : metrics) {
    std::printf("  %-26s %14s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
}

std::string ResultJson(bool correct, int attempted, int failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path workdir;
  std::filesystem::path trace_dir;
  std::string git_sha;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
      have_workdir = true;
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  if (!have_workload || !have_workdir) {
    throw std::invalid_argument("--workload and --workdir are required");
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace_dir.empty()) a.trace_dir = a.workdir;
  return a;
}

int Main(const Args& args) {
  const auto workloads = Workloads();
  auto it = std::find_if(workloads.begin(), workloads.end(),
                         [&](const Workload& w) { return w.name == args.workload; });
  if (it == workloads.end()) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  const Workload& w = *it;
  const auto host = HostBlock(args.git_sha);
  std::printf("# perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace ? 1 : 0);
  std::printf("# host");
  for (const auto& [k, v] : host) std::printf(" %s=\"%s\"", k.c_str(), v.c_str());
  std::printf("\n");

  opmr::PlatformOptions popts;
  popts.num_nodes = 2;
  popts.map_slots_per_node = 2;
  const std::string ws_prefix =
      w.name + "-" + std::to_string(::getpid()) + "-";

  // Set-up, repeated: platform + input generation + one warm-up job.  The
  // reference runs once, in a child process, and is not part of set-up.
  std::unique_ptr<opmr::Platform> platform;
  std::vector<double> setup_s, generate_s;
  ReferenceResult reference;
  bool warmups_ok = true;
  for (int k = 0; k < kSetups; ++k) {
    platform.reset();
    const std::int64_t t0 = NowNs();
    popts.workspace = (args.workdir / (ws_prefix + std::to_string(k))).string();
    platform = std::make_unique<opmr::Platform>(popts);
    const std::int64_t t1 = NowNs();
    w.generate(platform->dfs(), args.seed);
    const std::int64_t t2 = NowNs();
    if (k == 0) reference = RunReferenceInChild(platform->dfs(), w.spec(""), w.canon);
    const std::int64_t t3 = NowNs();
    warmups_ok &= RunJob(*platform, w, "warmup", nullptr, reference.digest).ok;
    const std::int64_t t4 = NowNs();
    generate_s.push_back(Seconds(t2 - t1));
    setup_s.push_back(Seconds((t2 - t0) + (t4 - t3)));
  }
  if (!warmups_ok) std::cerr << "perfbench: a warm-up job failed\n";

  // Timed closed loop.  With tracing, untraced and traced jobs alternate so
  // the overhead compares neighbours under the same conditions.
  Tracer tracer;
  std::vector<JobSample> samples;
  const std::int64_t loop_start = NowNs();
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    samples.push_back(RunJob(*platform, w, "job" + std::to_string(i),
                             traced ? &tracer : nullptr, reference.digest));
    const bool enough = !args.trace || i >= 1;
    if (enough && Seconds(NowNs() - loop_start) >= args.seconds) break;
  }
  platform.reset();  // removes the workspace

  int failed = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const JobSample& s = samples[i];
    failed += s.ok ? 0 : 1;
    std::printf(
        "# job %zu traced=%d ok=%d job_s=%s cpu_s=%s start_rss_mb=%s "
        "peak_rss_mb=%s\n",
        i, s.traced ? 1 : 0, s.ok ? 1 : 0, Num(s.job_s).c_str(),
        Num(s.cpu_s).c_str(), Num(s.start_rss_mb).c_str(),
        Num(s.peak_rss_mb).c_str());
  }
  const int attempted = static_cast<int>(samples.size());
  const bool correct = failed == 0 && warmups_ok;

  auto median_of = [&](bool traced, double JobSample::*field) {
    std::vector<double> v;
    for (const auto& s : samples) {
      if (s.ok && s.traced == traced) v.push_back(s.*field);
    }
    return Median(v);
  };
  double peak_rss = 0;
  int untraced = 0;
  for (const auto& s : samples) {
    if (!s.traced) {
      peak_rss = std::max(peak_rss, s.peak_rss_mb);
      ++untraced;
    }
  }
  // Gated end-to-end metrics, then the two the report adds: spill_mb is 0
  // by design on index-hash-tcp and fail_ratio on every healthy run, and
  // peak_rss_mb spreads too much between runs to gate (see README.md).
  const std::vector<Metric> end_to_end = {
      {"job_s", "s", median_of(false, &JobSample::job_s)},
      {"cpu_s", "s", median_of(false, &JobSample::cpu_s)},
      {"first_output_s", "s", median_of(false, &JobSample::first_output_s)},
      {"shuffle_mb", "MB", median_of(false, &JobSample::shuffle_mb)},
      {"setup_s", "s", Median(setup_s)},
  };
  const Metric spill{"spill_mb", "MB", median_of(false, &JobSample::spill_mb)};
  const Metric peak{"peak_rss_mb", "MB", peak_rss};
  std::vector<Metric> report = end_to_end;
  report.push_back(spill);
  report.push_back(peak);
  report.push_back({"fail_ratio", "ratio",
                    static_cast<double>(failed) / static_cast<double>(attempted)});
  PrintTable("# end to end (untraced: median of " + std::to_string(untraced) +
                 " jobs; setup_s median of " + std::to_string(kSetups) +
                 " set-ups; peak_rss_mb highest of the jobs; " +
                 std::to_string(failed) + "/" + std::to_string(attempted) +
                 " jobs failed)",
             report);

  if (!args.trace) {
    std::printf("%s\n", ResultJson(correct, attempted, failed, end_to_end).c_str());
    return 0;
  }

  // Per-layer: median over traced jobs of each metric, then run-level ones.
  std::vector<Metric> layers;
  std::vector<const JobSample*> traced;
  for (const auto& s : samples) {
    if (s.traced && s.ok) traced.push_back(&s);
  }
  if (!traced.empty()) {
    for (std::size_t m = 0; m < traced.front()->layers.size(); ++m) {
      std::vector<double> v;
      for (const auto* s : traced) v.push_back(s->layers[m].value);
      layers.push_back({traced.front()->layers[m].name,
                        traced.front()->layers[m].unit, Median(v)});
    }
  }
  const double untraced_job_s = median_of(false, &JobSample::job_s);
  const double traced_job_s = median_of(true, &JobSample::job_s);
  layers.push_back(peak);
  layers.push_back({"workloads.generate_s", "s", Median(generate_s)});
  layers.push_back({"reference.single_thread_s", "s", reference.seconds});
  layers.push_back({"trace.overhead_pct", "%",
                    100 * Ratio(traced_job_s - untraced_job_s, untraced_job_s)});
  PrintTable("# per layer (traced: median of " + std::to_string(traced.size()) +
                 " jobs)",
             layers);

  auto meta = host;
  meta["workload"] = w.name;
  meta["seed"] = std::to_string(args.seed);
  const auto trace_path = args.trace_dir / (w.name + "-seed" +
                                            std::to_string(args.seed) + ".json");
  tracer.WriteChromeTrace(trace_path, meta);
  std::printf("# trace %s\n", trace_path.string().c_str());
  std::printf("%s\n", ResultJson(correct, attempted, failed, layers).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
