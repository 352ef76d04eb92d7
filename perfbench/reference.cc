#include "reference.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "tracing.h"

namespace perfbench {

namespace {

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t Fnv1a(std::uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

// Order-independent hash of a space-separated posting list: the runtimes
// do not fix the order in which a word's postings arrive.
std::uint64_t PostingSetHash(std::string_view postings) {
  std::uint64_t sum = 0, count = 0;
  while (!postings.empty()) {
    const auto space = postings.find(' ');
    sum += Mix(Fnv1a(0xcbf29ce484222325ull, postings.substr(0, space)));
    ++count;
    if (space == std::string_view::npos) break;
    postings.remove_prefix(space + 1);
  }
  return Mix(sum ^ Mix(count));
}

class DigestCollector final : public opmr::OutputCollector {
 public:
  DigestCollector(RowDigest& digest, Canon canon)
      : digest_(digest), canon_(canon) {}
  void Emit(opmr::Slice key, opmr::Slice value) override {
    digest_.Add(key, value, canon_);
  }

 private:
  RowDigest& digest_;
  Canon canon_;
};

class VectorValues final : public opmr::ValueIterator {
 public:
  explicit VectorValues(const std::vector<std::string>& values)
      : values_(values) {}
  bool Next(opmr::Slice* value) override {
    if (next_ == values_.size()) return false;
    *value = opmr::Slice(values_[next_++]);
    return true;
  }

 private:
  const std::vector<std::string>& values_;
  std::size_t next_ = 0;
};

// Feeds every input record of `spec` through its map function.
template <typename Sink>
void MapAll(const opmr::Dfs& dfs, const opmr::JobSpec& spec, Sink&& sink) {
  struct Collector final : opmr::OutputCollector {
    explicit Collector(Sink& s) : sink(s) {}
    void Emit(opmr::Slice key, opmr::Slice value) override { sink(key, value); }
    Sink& sink;
  } collector(sink);
  for (const auto& block : dfs.ListBlocks(spec.input_file)) {
    auto reader = dfs.OpenBlock(block);
    opmr::Slice record;
    while (reader->Next(&record)) spec.map(record, collector);
  }
}

RowDigest Reference(const opmr::Dfs& dfs, const opmr::JobSpec& spec,
                    Canon canon) {
  RowDigest digest;
  DigestCollector out(digest, canon);
  if (spec.aggregator) {
    const opmr::Aggregator& agg = *spec.aggregator;
    std::map<std::string, std::string, std::less<>> states;
    MapAll(dfs, spec, [&](opmr::Slice key, opmr::Slice value) {
      auto it = states.find(key.view());
      if (it == states.end()) {
        agg.Init(value, &states[key.ToString()]);
      } else {
        agg.Update(&it->second, value);
      }
    });
    std::string value;
    for (const auto& [key, state] : states) {
      agg.Finalize(opmr::Slice(state), &value);
      out.Emit(opmr::Slice(key), opmr::Slice(value));
    }
  } else {
    std::map<std::string, std::vector<std::string>, std::less<>> groups;
    MapAll(dfs, spec, [&](opmr::Slice key, opmr::Slice value) {
      auto it = groups.find(key.view());
      if (it == groups.end()) it = groups.emplace(key.ToString(), std::vector<std::string>{}).first;
      it->second.push_back(value.ToString());
    });
    for (const auto& [key, values] : groups) {
      VectorValues iter(values);
      spec.reduce(opmr::Slice(key), iter, out);
    }
  }
  return digest;
}

bool WriteAll(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void RowDigest::Add(opmr::Slice key, opmr::Slice value, Canon canon) {
  std::uint64_t h = Fnv1a(0xcbf29ce484222325ull, key.view());
  h = canon == Canon::kPostingSet ? Mix(h ^ PostingSetHash(value.view()))
                                  : Fnv1a(h ^ 0x1f, value.view());
  ++rows;
  bytes += key.size() + value.size();
  sum_a += Mix(h);
  sum_b += Mix(h ^ 0x5bd1e9955bd1e995ull);
}

RowDigest OutputDigest(opmr::Platform& platform,
                       const opmr::JobSpec& spec, Canon canon) {
  RowDigest digest;
  for (int r = 0; r < spec.num_reducers; ++r) {
    const std::string part = spec.output_file + ".part" + std::to_string(r);
    if (!platform.dfs().Exists(part)) continue;
    for (const auto& [key, value] : platform.ReadOutputFile(part)) {
      digest.Add(opmr::Slice(key), opmr::Slice(value), canon);
    }
  }
  return digest;
}

ReferenceResult RunReferenceInChild(const opmr::Dfs& dfs,
                                    const opmr::JobSpec& spec, Canon canon) {
  std::fflush(nullptr);  // the child must not inherit unflushed output
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("reference: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("reference: fork failed");
  }
  if (pid == 0) {
    // Child: no destructors run here (they would remove the parent's
    // workspace), so leave through _exit on every path.
    ::close(fds[0]);
    int code = 1;
    try {
      ReferenceResult result;
      const std::int64_t t0 = NowNs();
      result.digest = Reference(dfs, spec, canon);
      result.seconds = static_cast<double>(NowNs() - t0) / 1e9;
      if (WriteAll(fds[1], &result, sizeof(result))) code = 0;
    } catch (...) {
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  ReferenceResult result;
  std::size_t got = 0;
  while (got < sizeof(result)) {
    const ssize_t n =
        ::read(fds[0], reinterpret_cast<char*>(&result) + got,
               sizeof(result) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof(result) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference: child run failed");
  }
  return result;
}

}  // namespace perfbench
