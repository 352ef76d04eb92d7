#include "tracing.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// The task span open on this thread, if any.  Per-record callbacks add to
// it without locking; EndTask moves the sums into the span.
struct TaskAcc {
  const Tracer* tracer = nullptr;
  bool map = false;
  std::int64_t start_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t emits = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t read_ops = 0;
};
thread_local TaskAcc t_task;

int ThreadId() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1);
  return id;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// Forwards Emit and counts records.
class CountingCollector final : public opmr::OutputCollector {
 public:
  explicit CountingCollector(opmr::OutputCollector& inner) : inner_(inner) {}
  void Emit(opmr::Slice key, opmr::Slice value) override {
    ++emits;
    inner_.Emit(key, value);
  }
  std::uint64_t emits = 0;

 private:
  opmr::OutputCollector& inner_;
};

void JsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

// --- Decorators ---------------------------------------------------------------

// Counts physical I/O operations on the engine's local files.  DFS block
// files belong to the dfs layer and are left out; everything else the
// FileManager names (map output, spill and merge runs) is storage.
class CountingIoHook final : public opmr::IoFaultHook {
 public:
  explicit CountingIoHook(Tracer* tracer) : tracer_(tracer) {}
  void BeforeWrite(const std::filesystem::path& path, std::uint64_t,
                   std::size_t) override {
    if (IsStorage(path)) tracer_->AddStorageOp(/*write=*/true);
  }
  void BeforeRead(const std::filesystem::path& path, std::uint64_t,
                  std::size_t) override {
    if (IsStorage(path)) tracer_->AddStorageOp(/*write=*/false);
  }

 private:
  static bool IsStorage(const std::filesystem::path& path) {
    const std::string& p = path.native();
    const std::size_t name = p.rfind('/') + 1;  // npos + 1 == 0
    return p.compare(name, 9, "dfs_block") != 0;
  }
  Tracer* tracer_;
};

class TracingAggregator final : public opmr::Aggregator {
 public:
  TracingAggregator(std::shared_ptr<opmr::Aggregator> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void Init(opmr::Slice value, std::string* state) const override {
    Call([&] { inner_->Init(value, state); });
  }
  void Update(std::string* state, opmr::Slice value) const override {
    Call([&] { inner_->Update(state, value); });
  }
  void Merge(std::string* state, opmr::Slice other) const override {
    Call([&] { inner_->Merge(state, other); });
  }
  void Finalize(opmr::Slice state, std::string* out) const override {
    Call([&] { inner_->Finalize(state, out); });
  }

 private:
  // Combiner calls inside a map task are map-side work and stay untimed;
  // the rest is the reduce function.
  template <typename F>
  void Call(F&& f) const {
    if (tracer_->InMapTask()) {
      f();
      return;
    }
    const std::int64_t t0 = NowNs();
    f();
    tracer_->AddReduceCall(NowNs() - t0);
  }

  std::shared_ptr<opmr::Aggregator> inner_;
  Tracer* tracer_;
};

class TracingConnection final : public opmr::net::Connection {
 public:
  TracingConnection(std::shared_ptr<opmr::net::Connection> inner,
                    Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void Send(const opmr::net::Frame& frame) override {
    const std::int64_t t0 = NowNs();
    inner_->Send(frame);
    tracer_->AddSend(NowNs() - t0,
                     opmr::net::kFrameHeaderBytes + frame.payload.size());
  }
  bool SendFileFrame(opmr::net::FrameType type,
                     const std::string& payload_prefix,
                     const std::string& path, std::uint64_t offset,
                     std::uint64_t length) override {
    const std::int64_t t0 = NowNs();
    const bool sent =
        inner_->SendFileFrame(type, payload_prefix, path, offset, length);
    if (sent) {
      tracer_->AddSend(NowNs() - t0, opmr::net::kFrameHeaderBytes +
                                         payload_prefix.size() + length);
    }
    return sent;
  }
  void Close() override { inner_->Close(); }

 private:
  std::shared_ptr<opmr::net::Connection> inner_;
  Tracer* tracer_;
};

class TracingTransport final : public opmr::net::Transport {
 public:
  TracingTransport(std::unique_ptr<opmr::net::Transport> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void Listen(opmr::net::FrameHandler handler) override {
    inner_->Listen([handler = std::move(handler), tracer = tracer_](
                       opmr::net::Connection* from, opmr::net::Frame frame) {
      const std::int64_t t0 = NowNs();
      handler(from, std::move(frame));
      tracer->AddReceive(NowNs() - t0);
    });
  }
  std::shared_ptr<opmr::net::Connection> Connect(
      opmr::net::FrameHandler on_reply) override {
    return std::make_shared<TracingConnection>(
        inner_->Connect(std::move(on_reply)), tracer_);
  }
  [[nodiscard]] std::string endpoint() const override {
    return inner_->endpoint();
  }
  void Shutdown() override { inner_->Shutdown(); }
  void SetConnectPreamble(opmr::net::Frame preamble) override {
    inner_->SetConnectPreamble(std::move(preamble));
  }
  void SetReconnectReplay(
      std::function<std::vector<opmr::net::Frame>()> replay) override {
    inner_->SetReconnectReplay(std::move(replay));
  }

 private:
  std::unique_ptr<opmr::net::Transport> inner_;
  Tracer* tracer_;
};

// --- Tracer -------------------------------------------------------------------

Tracer::Tracer()
    : io_hook_(std::make_unique<CountingIoHook>(this)), epoch_ns_(NowNs()) {
  hooks_.acquire_map_slot = [this](int) { BeginTask(true); };
  hooks_.release_map_slot = [this](int) { EndTask(); };
  hooks_.acquire_reduce_slot = [this] { BeginTask(false); };
  hooks_.release_reduce_slot = [this] { EndTask(); };
}

opmr::JobSpec Tracer::Wrap(opmr::JobSpec spec) {
  spec.map = [inner = std::move(spec.map), this](opmr::Slice record,
                                                 opmr::OutputCollector& out) {
    CountingCollector counting(out);
    const std::int64_t t0 = NowNs();
    inner(record, counting);
    AddMapCall(NowNs() - t0, counting.emits);
  };
  if (spec.reduce) {
    spec.reduce = [inner = std::move(spec.reduce), this](
                      opmr::Slice key, opmr::ValueIterator& values,
                      opmr::OutputCollector& out) {
      const std::int64_t t0 = NowNs();
      inner(key, values, out);
      AddReduceCall(NowNs() - t0);
    };
  }
  if (spec.aggregator) {
    spec.aggregator =
        std::make_shared<TracingAggregator>(std::move(spec.aggregator), this);
  }
  return spec;
}

std::unique_ptr<opmr::net::Transport> Tracer::Wrap(
    std::unique_ptr<opmr::net::Transport> inner) {
  return std::make_unique<TracingTransport>(std::move(inner), this);
}

void Tracer::BeginTask(bool map) {
  t_task = TaskAcc{};
  t_task.tracer = this;
  t_task.map = map;
  t_task.start_ns = NowNs();
}

void Tracer::EndTask() {
  if (t_task.tracer != this) return;
  const TaskAcc acc = t_task;
  t_task = TaskAcc{};
  Span span;
  span.name = acc.map ? "map.task" : "reduce.task";
  span.tid = ThreadId();
  span.start_ns = acc.start_ns;
  span.end_ns = NowNs();
  span.busy_ns = acc.busy_ns;
  span.calls = acc.calls;
  span.emits = acc.emits;
  span.write_ops = acc.write_ops;
  span.read_ops = acc.read_ops;
  std::scoped_lock lock(mu_);
  span.id = next_span_id_++;
  span.parent = job_span_;
  spans_.push_back(std::move(span));
}

bool Tracer::InMapTask() const { return t_task.tracer == this && t_task.map; }

void Tracer::AddMapCall(std::int64_t ns, std::uint64_t emits) {
  if (t_task.tracer != this) return;
  t_task.busy_ns += ns;
  ++t_task.calls;
  t_task.emits += emits;
}

void Tracer::AddReduceCall(std::int64_t ns) {
  if (t_task.tracer != this || t_task.map) return;
  t_task.busy_ns += ns;
  ++t_task.calls;
}

void Tracer::AddStorageOp(bool write) {
  if (t_task.tracer != this) return;
  ++(write ? t_task.write_ops : t_task.read_ops);
}

void Tracer::AddSend(std::int64_t ns, std::uint64_t bytes) {
  std::scoped_lock lock(mu_);
  send_ns_.push_back(ns);
  send_bytes_ += bytes;
}

void Tracer::AddReceive(std::int64_t ns) {
  std::scoped_lock lock(mu_);
  recv_busy_ns_ += ns;
}

void Tracer::BeginJob(const std::string& name) {
  std::scoped_lock lock(mu_);
  send_ns_.clear();
  send_bytes_ = 0;
  recv_busy_ns_ = 0;
  Span span;
  span.name = name;
  span.tid = ThreadId();
  span.start_ns = NowNs();
  span.id = next_span_id_++;
  job_span_ = span.id;
  spans_.push_back(std::move(span));
  job_first_span_ = spans_.size();
}

JobTrace Tracer::EndJob() {
  std::scoped_lock lock(mu_);
  JobTrace t;
  std::int64_t map_first = 0, map_last = 0, reduce_last = 0;
  std::vector<double> map_tasks;
  bool any_map = false;
  std::int64_t map_busy = 0, reduce_busy = 0;
  for (std::size_t i = job_first_span_; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = Seconds(s.end_ns - s.start_ns);
    t.storage_write_ops += s.write_ops;
    t.storage_read_ops += s.read_ops;
    if (s.name == "map.task") {
      map_first = any_map ? std::min(map_first, s.start_ns) : s.start_ns;
      map_last = any_map ? std::max(map_last, s.end_ns) : s.end_ns;
      any_map = true;
      map_tasks.push_back(dur);
      map_busy += s.busy_ns;
      t.map_emit_records += s.emits;
    } else {
      reduce_last = std::max(reduce_last, s.end_ns);
      t.reduce_task_s_max = std::max(t.reduce_task_s_max, dur);
      reduce_busy += s.busy_ns;
      t.reduce_fn_calls += s.calls;
    }
  }
  spans_[job_first_span_ - 1].end_ns = NowNs();
  job_span_ = 0;

  t.map_wave_s = any_map ? Seconds(map_last - map_first) : 0;
  t.map_task_s_p50 = Quantile(map_tasks, 0.5);
  t.map_task_s_max = Quantile(map_tasks, 1.0);
  t.map_fn_busy_s = Seconds(map_busy);
  t.reduce_tail_s =
      any_map && reduce_last > map_last ? Seconds(reduce_last - map_last) : 0;
  t.reduce_fn_busy_s = Seconds(reduce_busy);
  t.net_frames_sent = send_ns_.size();
  t.net_mb_sent = static_cast<double>(send_bytes_) / 1e6;
  std::vector<double> send_us;
  for (const std::int64_t ns : send_ns_) {
    t.net_send_busy_s += Seconds(ns);
    send_us.push_back(static_cast<double>(ns) / 1e3);
  }
  t.net_send_us_p50 = Quantile(send_us, 0.5);
  t.net_send_us_p99 = Quantile(std::move(send_us), 0.99);
  t.net_recv_busy_s = Seconds(recv_busy_ns_);
  return t;
}

Tracer::JobScope::JobScope(Tracer& tracer, opmr::ClusterExecutor& executor,
                           const std::string& job_name)
    : tracer_(tracer), executor_(executor) {
  tracer_.BeginJob(job_name);
  executor_.set_sched_hooks(&tracer_.hooks_);
  opmr::SetIoFaultHook(tracer_.io_hook_.get());
}

Tracer::JobScope::~JobScope() {
  opmr::SetIoFaultHook(nullptr);
  executor_.set_sched_hooks(nullptr);
  if (!finished_) (void)tracer_.EndJob();
}

JobTrace Tracer::JobScope::Finish() {
  finished_ = true;
  return tracer_.EndJob();
}

void Tracer::WriteChromeTrace(
    const std::filesystem::path& path,
    const std::map<std::string, std::string>& metadata) const {
  std::vector<Span> spans;
  {
    std::scoped_lock lock(mu_);
    spans = spans_;
  }
  // Child intervals per parent, for self time.
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  const int pid = static_cast<int>(::getpid());
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_start = 0, cur_end = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
          continue;
        }
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
      if (open) covered += cur_end - cur_start;
    }
    const std::int64_t dur = s.end_ns - s.start_ns;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f",
                  pid, s.tid, static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                  static_cast<double>(dur) / 1e3, s.id, s.parent,
                  static_cast<double>(dur - covered) / 1e3);
    out += first ? "{" : ",{";
    first = false;
    out += "\"name\":";
    JsonString(out, s.name);
    out += ",\"cat\":";
    JsonString(out, s.parent == 0 ? "job" : s.name.substr(0, s.name.find('.')));
    out += ',';
    out += buf;
    if (s.parent != 0) {
      std::snprintf(buf, sizeof(buf),
                    ",\"fn_busy_us\":%.3f,\"fn_calls\":%llu,\"emits\":%llu,"
                    "\"storage_write_ops\":%llu,\"storage_read_ops\":%llu",
                    static_cast<double>(s.busy_ns) / 1e3,
                    static_cast<unsigned long long>(s.calls),
                    static_cast<unsigned long long>(s.emits),
                    static_cast<unsigned long long>(s.write_ops),
                    static_cast<unsigned long long>(s.read_ops));
      out += buf;
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  first = true;
  for (const auto& [key, value] : metadata) {
    if (!first) out += ',';
    first = false;
    JsonString(out, key);
    out += ':';
    JsonString(out, value);
  }
  out += "}}\n";
  std::filesystem::create_directories(path.parent_path());
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  if (!file) throw std::runtime_error("cannot write trace " + path.string());
}

}  // namespace perfbench
