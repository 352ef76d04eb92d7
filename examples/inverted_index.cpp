// Inverted-index construction over a web-document corpus (paper §III-A,
// the second benchmark application) — and a lookup against the result.
//
// The index job is holistic (reduce concatenates posting lists), so it
// runs on either the sort-merge runtime or hybrid-hash grouping; both are
// shown with their I/O profiles for comparison.
//
// Build & run:   ./build/examples/inverted_index
#include <cstdio>
#include <string>

#include "core/opmr.h"
#include "workloads/tasks.h"
#include "workloads/webdocs.h"

namespace {

void Report(const char* label, const opmr::JobResult& r) {
  std::printf("%-12s %.2f s wall, %.2f s CPU, map-out %lld B, spill %lld B\n",
              label, r.wall_seconds, r.total_cpu_seconds,
              static_cast<long long>(r.Bytes(opmr::device::kMapOutputWrite)),
              static_cast<long long>(r.Bytes(opmr::device::kSpillWrite)));
}

}  // namespace

int main() {
  using namespace opmr;

  Platform platform({.num_nodes = 4, .block_bytes = 1u << 20});

  WebDocsOptions corpus;
  corpus.num_docs = 5'000;
  corpus.vocabulary = 30'000;
  corpus.mean_doc_words = 150;
  GenerateWebDocs(platform.dfs(), "docs", corpus);

  // Build the index twice: Hadoop-style sort-merge and hybrid hash.
  const auto sm =
      platform.Run(InvertedIndexJob("docs", "index_sm", 4), HadoopOptions());
  JobOptions hybrid = HashOnePassOptions();
  hybrid.hash_reduce = HashReduce::kHybridHash;
  const auto hh =
      platform.Run(InvertedIndexJob("docs", "index_hh", 4), hybrid);

  Report("sort-merge", sm);
  Report("hybrid-hash", hh);

  // Query the index: postings of a frequent and a rare word.
  const auto rows = platform.ReadOutput("index_sm", 4);
  for (const std::string& probe : {WordKey(2), WordKey(25'000)}) {
    for (const auto& [word, postings] : rows) {
      if (word == probe) {
        const auto docs =
            1 + std::count(postings.begin(), postings.end(), ' ');
        std::printf("\n'%s' occurs %lld times; first postings: %.60s...\n",
                    word.c_str(), static_cast<long long>(docs),
                    postings.c_str());
        break;
      }
    }
  }
  return 0;
}
