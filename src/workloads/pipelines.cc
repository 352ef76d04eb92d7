#include "workloads/pipelines.h"

#include <cstdio>
#include <stdexcept>

#include "common/rng.h"

namespace opmr {

void DecodeOutputFrame(Slice record, Slice* key, Slice* value) {
  if (record.size() < 8) {
    throw std::runtime_error("DecodeOutputFrame: record too small");
  }
  const std::uint32_t klen = DecodeU32(record.data());
  const std::uint32_t vlen = DecodeU32(record.data() + 4);
  if (8ull + klen + vlen != record.size()) {
    throw std::runtime_error("DecodeOutputFrame: bad frame lengths");
  }
  *key = Slice(record.data() + 8, klen);
  *value = Slice(record.data() + 8 + klen, vlen);
}

std::vector<std::string> OutputParts(const std::string& output_prefix,
                                     int num_reducers) {
  std::vector<std::string> parts;
  parts.reserve(num_reducers);
  for (int r = 0; r < num_reducers; ++r) {
    parts.push_back(output_prefix + ".part" + std::to_string(r));
  }
  return parts;
}

JobSpec TopKFromCountsJob(const std::string& counts_prefix, int counts_parts,
                          const std::string& output, std::size_t k) {
  JobSpec spec;
  spec.name = "top_k";
  auto parts = OutputParts(counts_prefix, counts_parts);
  spec.input_file = parts.front();
  spec.extra_inputs.assign(parts.begin() + 1, parts.end());
  spec.output_file = output;
  spec.num_reducers = 1;  // global selection needs a single group
  spec.aggregator = std::make_shared<TopKAggregator>(k);

  spec.map = [](Slice record, OutputCollector& out) {
    Slice key, value;
    DecodeOutputFrame(record, &key, &value);
    // Candidate: score = count, payload = the counted key.  The combiner
    // prunes to k candidates per map task before anything is shuffled.
    out.Emit("topk", EncodeScored(DecodeValueU64(value), key));
  };
  return spec;
}

std::vector<ScoredEntry> RunTopKPipeline(Platform& platform,
                                         const JobSpec& counting_job,
                                         const JobOptions& options,
                                         std::size_t k) {
  platform.Run(counting_job, options);
  const auto topk_spec =
      TopKFromCountsJob(counting_job.output_file, counting_job.num_reducers,
                        counting_job.output_file + "_top", k);
  platform.Run(topk_spec, options);

  const auto rows =
      platform.ReadOutput(counting_job.output_file + "_top", 1);
  if (rows.empty()) return {};
  if (rows.size() != 1) {
    throw std::runtime_error("top-k pipeline: expected a single result row");
  }
  return DecodeTopKState(rows.front().second);
}

// --- Repartition join ---------------------------------------------------------

std::string CountryKey(std::uint32_t country) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "country%02u", country);
  return buf;
}

std::uint64_t GenerateUserProfiles(Dfs& dfs, const std::string& name,
                                   const UserProfileOptions& options) {
  Rng rng(options.seed);
  auto writer = dfs.Create(name);
  std::string record;
  for (std::uint64_t u = 0; u < options.num_users; ++u) {
    record = "P\t";
    record += UserKey(static_cast<std::uint32_t>(u));
    record += '\t';
    record += CountryKey(static_cast<std::uint32_t>(
        rng.Uniform(options.num_countries)));
    writer->Append(record);
  }
  return writer->Close();
}

JobSpec JoinClicksWithProfilesJob(const std::string& clicks,
                                  const std::string& profiles,
                                  const std::string& output,
                                  int num_reducers) {
  JobSpec spec;
  spec.name = "click_profile_join";
  spec.input_file = clicks;
  spec.extra_inputs = {profiles};
  spec.output_file = output;
  spec.num_reducers = num_reducers;

  spec.map = [](Slice record, OutputCollector& out) {
    // Tagged-union map: both datasets flow through the same function and
    // are told apart by their record shape (the standard repartition-join
    // trick).  Profiles re-key to the user with a 'P'-tagged value; clicks
    // emit a bare 'C' marker.
    if (record.size() >= 2 && record[0] == 'P' && record[1] == '\t') {
      std::size_t tab2 = 2;
      while (tab2 < record.size() && record[tab2] != '\t') ++tab2;
      const Slice user(record.data() + 2, tab2 - 2);
      std::string value = "P";
      value.append(record.data() + tab2 + 1, record.size() - tab2 - 1);
      out.Emit(user, value);
    } else {
      const ClickRecord click = ParseClick(record, ClickFormat::kText);
      out.Emit(UserKey(click.user), "C");
    }
  };

  spec.reduce = [](Slice user, ValueIterator& values, OutputCollector& out) {
    std::string country = "unknown";
    std::uint64_t clicks = 0;
    Slice v;
    while (values.Next(&v)) {
      if (!v.empty() && v[0] == 'P') {
        country.assign(v.data() + 1, v.size() - 1);
      } else {
        ++clicks;
      }
    }
    if (clicks == 0) return;  // profile without clicks: drop (inner join)
    char buf[24];
    const int n = std::snprintf(buf, sizeof(buf), "\t%llu",
                                static_cast<unsigned long long>(clicks));
    std::string value = country;
    value.append(buf, static_cast<std::size_t>(n));
    out.Emit(user, value);
  };
  return spec;
}

JobSpec CountryClickCountJob(const std::string& join_prefix, int join_parts,
                             const std::string& output, int num_reducers) {
  JobSpec spec;
  spec.name = "country_click_count";
  auto parts = OutputParts(join_prefix, join_parts);
  spec.input_file = parts.front();
  spec.extra_inputs.assign(parts.begin() + 1, parts.end());
  spec.output_file = output;
  spec.num_reducers = num_reducers;
  spec.aggregator = std::make_shared<SumAggregator>();

  spec.map = [](Slice record, OutputCollector& out) {
    Slice user, value;
    DecodeOutputFrame(record, &user, &value);
    // value = "<country>\t<clicks>"
    std::size_t tab = 0;
    while (tab < value.size() && value[tab] != '\t') ++tab;
    const std::uint64_t clicks =
        std::stoull(std::string(value.data() + tab + 1,
                                value.size() - tab - 1));
    out.Emit(Slice(value.data(), tab), EncodeValueU64(clicks));
  };
  return spec;
}

}  // namespace opmr
