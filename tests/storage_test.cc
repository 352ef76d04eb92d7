#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dfs/dfs.h"
#include "fault/fault.h"
#include "metrics/counters.h"
#include "storage/file_manager.h"
#include "storage/io.h"
#include "storage/run_format.h"

namespace opmr {
namespace {

namespace fs = std::filesystem;

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : files_(FileManager::CreateTemp("opmr-test")) {}

  IoChannel Channel(const char* name = "test.bytes") {
    return {&metrics_, name};
  }

  // Writes `data` to a fresh file tagged `tag` and returns its path.
  fs::path WriteFile(const std::string& tag, const std::string& data) {
    const auto path = files_.NewFile(tag);
    SequentialWriter w(path, Channel("write.bytes"));
    w.Append(data);
    w.Close();
    return path;
  }

  FileManager files_;
  MetricRegistry metrics_;
};

// Bytes 'a'..'z' repeating, so any misplaced copy shows up as a mismatch.
std::string Pattern(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<char>('a' + i % 26);
  return out;
}

// Records the (offset, bytes) of every physical read while installed.
class RecordingReadHook : public IoFaultHook {
 public:
  RecordingReadHook() { SetIoFaultHook(this); }
  ~RecordingReadHook() override { SetIoFaultHook(nullptr); }

  void BeforeWrite(const fs::path&, std::uint64_t, std::size_t) override {}
  void BeforeRead(const fs::path&, std::uint64_t offset,
                  std::size_t bytes) override {
    reads.emplace_back(offset, bytes);
  }

  std::vector<std::pair<std::uint64_t, std::size_t>> reads;
};

// Installs a FaultInjector as the I/O hook for its lifetime.
class InstalledFaultPlan {
 public:
  InstalledFaultPlan(const std::string& plan, MetricRegistry* metrics)
      : injector_(FaultPlan::Parse(plan), metrics) {
    SetIoFaultHook(&injector_);
  }
  ~InstalledFaultPlan() { SetIoFaultHook(nullptr); }

 private:
  FaultInjector injector_;
};

TEST_F(StorageTest, NewFilePathsAreUnique) {
  std::set<fs::path> paths;
  for (int i = 0; i < 100; ++i) paths.insert(files_.NewFile("spill"));
  EXPECT_EQ(paths.size(), 100u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.parent_path(), files_.root());
  }
}

TEST_F(StorageTest, NewDirIsCreated) {
  const auto dir = files_.NewDir("sub");
  EXPECT_TRUE(fs::is_directory(dir));
}

TEST_F(StorageTest, DestructorRemovesWorkspace) {
  fs::path root;
  {
    FileManager temp = FileManager::CreateTemp("opmr-cleanup");
    root = temp.root();
    SequentialWriter w(temp.NewFile("f"), Channel());
    w.Append("data");
    w.Close();
    EXPECT_TRUE(fs::exists(root));
  }
  EXPECT_FALSE(fs::exists(root));
}

TEST_F(StorageTest, DiskUsageTracksWrites) {
  EXPECT_EQ(files_.DiskUsageBytes(), 0u);
  SequentialWriter w(files_.NewFile("f"), Channel());
  w.Append(std::string(10'000, 'x'));
  w.Close();
  EXPECT_GE(files_.DiskUsageBytes(), 10'000u);
}

TEST_F(StorageTest, WriterReaderRoundTrip) {
  const auto path = files_.NewFile("rt");
  {
    SequentialWriter w(path, Channel());
    w.Append("hello ");
    w.AppendU32(1234);
    w.AppendU64(5678);
    w.Append("world");
    w.Close();
  }
  SequentialReader r(path, Channel());
  char buf[6];
  ASSERT_TRUE(r.ReadExact(buf, 6));
  EXPECT_EQ(std::string(buf, 6), "hello ");
  std::uint32_t v32 = 0;
  ASSERT_TRUE(r.ReadU32(&v32));
  EXPECT_EQ(v32, 1234u);
  std::uint64_t v64 = 0;
  ASSERT_TRUE(r.ReadU64(&v64));
  EXPECT_EQ(v64, 5678u);
  char buf2[5];
  ASSERT_TRUE(r.ReadExact(buf2, 5));
  EXPECT_EQ(std::string(buf2, 5), "world");
  EXPECT_FALSE(r.ReadExact(buf, 1));  // clean EOF
}

TEST_F(StorageTest, ReaderSeekRepositions) {
  const auto path = files_.NewFile("seek");
  {
    SequentialWriter w(path, Channel());
    w.Append("0123456789");
    w.Close();
  }
  SequentialReader r(path, Channel());
  r.Seek(7);
  char c;
  ASSERT_TRUE(r.ReadExact(&c, 1));
  EXPECT_EQ(c, '7');
  r.Seek(2);  // backwards, with read-ahead buffered
  ASSERT_TRUE(r.ReadExact(&c, 1));
  EXPECT_EQ(c, '2');
  EXPECT_EQ(r.FileSize(), 10u);
}

TEST_F(StorageTest, TruncatedReadThrows) {
  const auto path = files_.NewFile("trunc");
  {
    SequentialWriter w(path, Channel());
    w.Append("abc");
    w.Close();
  }
  SequentialReader r(path, Channel());
  char buf[10];
  EXPECT_THROW(r.ReadExact(buf, 10), std::runtime_error);
}

TEST_F(StorageTest, ChannelAccountsBytes) {
  const auto path = files_.NewFile("acct");
  {
    SequentialWriter w(path, Channel("w.bytes"));
    w.Append(std::string(1000, 'a'));
    w.Close();
  }
  EXPECT_EQ(metrics_.Value("w.bytes"), 1000);
  EXPECT_GE(metrics_.Value("w.bytes.ops"), 1);

  SequentialReader r(path, Channel("r.bytes"));
  char buf[250];
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(r.ReadExact(buf, sizeof(buf)));
  }
  EXPECT_FALSE(r.ReadExact(buf, 1));  // clean EOF
  EXPECT_EQ(metrics_.Value("r.bytes"), 1000);
}

TEST_F(StorageTest, SyncFlushPersists) {
  const auto path = files_.NewFile("sync");
  SequentialWriter w(path, Channel());
  w.Append("durable");
  w.Flush(/*sync=*/true);
  EXPECT_EQ(fs::file_size(path), 7u);
  w.Close();
}

TEST_F(StorageTest, WriteAfterCloseThrows) {
  const auto path = files_.NewFile("closed");
  SequentialWriter w(path, Channel());
  w.Close();
  EXPECT_THROW(w.Flush(), std::logic_error);
}

TEST_F(StorageTest, BytesWrittenCountsPayload) {
  SequentialWriter w(files_.NewFile("count"), Channel());
  w.Append("12345");
  w.AppendU32(0);
  EXPECT_EQ(w.bytes_written(), 9u);
  w.Close();
}

TEST_F(StorageTest, RunFormatRoundTrip) {
  const auto path = files_.NewFile("run");
  {
    RunWriter w(path, Channel());
    w.Append("alpha", "1");
    w.Append("beta", "");
    w.Append("", "valueonly");
    EXPECT_EQ(w.num_records(), 3u);
    w.Close();
  }
  RunReader r(path, Channel());
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.key().ToString(), "alpha");
  EXPECT_EQ(r.value().ToString(), "1");
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.key().ToString(), "beta");
  EXPECT_TRUE(r.value().empty());
  ASSERT_TRUE(r.Next());
  EXPECT_TRUE(r.key().empty());
  EXPECT_EQ(r.value().ToString(), "valueonly");
  EXPECT_FALSE(r.Next());
}

TEST_F(StorageTest, RunReaderRestrictReadsOneSegment) {
  const auto path = files_.NewFile("seg");
  std::uint64_t seg1_end = 0;
  {
    RunWriter w(path, Channel());
    w.Append("seg0-key", "seg0-val");
    w.Flush();
    seg1_end = w.bytes_written();
    w.Append("seg1-keyA", "x");
    w.Append("seg1-keyB", "y");
    w.Close();
  }
  // Segment 2 only.
  RunReader r(path, Channel());
  r.Restrict(seg1_end, 0);
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.key().ToString(), "seg1-keyA");
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.key().ToString(), "seg1-keyB");
  EXPECT_FALSE(r.Next());

  // Segment 1 only: restriction must stop exactly at the boundary.
  RunReader r1(path, Channel());
  r1.Restrict(0, seg1_end);
  ASSERT_TRUE(r1.Next());
  EXPECT_EQ(r1.key().ToString(), "seg0-key");
  EXPECT_FALSE(r1.Next());
}

TEST_F(StorageTest, RunReaderRestrictDetectsCrossingRecord) {
  const auto path = files_.NewFile("cross");
  {
    RunWriter w(path, Channel());
    w.Append("0123456789", "0123456789");
    w.Close();
  }
  RunReader r(path, Channel());
  r.Restrict(0, 10);  // cuts through the record
  EXPECT_THROW(r.Next(), std::runtime_error);
}

TEST_F(StorageTest, LargeRecordsSurviveRoundTrip) {
  const auto path = files_.NewFile("large");
  const std::string big_value(5u << 20, 'V');
  {
    RunWriter w(path, Channel());
    w.Append("big", big_value);
    w.Close();
  }
  RunReader r(path, Channel());
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.value().size(), big_value.size());
  EXPECT_EQ(r.value().ToString(), big_value);
}

TEST_F(StorageTest, ReadExactSpansBufferBoundaries) {
  const std::string tail = Pattern(100);
  const auto path = files_.NewFile("span");
  {
    SequentialWriter w(path, Channel());
    w.Append("abc");
    w.AppendU32(0xdeadbeefu);
    w.AppendU64(0x0123456789abcdefull);
    w.Append(tail);
    w.Close();
  }
  for (const std::size_t buffer : {std::size_t{1}, std::size_t{7}}) {
    SCOPED_TRACE("buffer " + std::to_string(buffer));
    SequentialReader r(path, Channel(), buffer);
    char head[3];
    ASSERT_TRUE(r.ReadExact(head, sizeof(head)));
    EXPECT_EQ(std::string(head, 3), "abc");
    std::uint32_t v32 = 0;
    ASSERT_TRUE(r.ReadU32(&v32));
    EXPECT_EQ(v32, 0xdeadbeefu);
    std::uint64_t v64 = 0;
    ASSERT_TRUE(r.ReadU64(&v64));  // bytes 7..14: crosses a 7-byte refill
    EXPECT_EQ(v64, 0x0123456789abcdefull);
    std::string got(tail.size(), '\0');
    for (std::size_t at = 0; at < got.size(); at += 5) {
      ASSERT_TRUE(r.ReadExact(got.data() + at, 5));
    }
    EXPECT_EQ(got, tail);
    char c;
    EXPECT_FALSE(r.ReadExact(&c, 1));
    EXPECT_EQ(r.bytes_read(), 115u);
  }
}

TEST_F(StorageTest, ReadLargerThanBufferGoesStraightToDestination) {
  const std::string data = Pattern(100);
  const auto path = WriteFile("large_read", data);
  RecordingReadHook hook;
  SequentialReader r(path, Channel(), 7);
  std::string got(data.size(), '\0');
  ASSERT_TRUE(r.ReadExact(got.data(), 2));        // refill of 7, 5 left
  ASSERT_TRUE(r.ReadExact(got.data() + 2, 40));   // 5 buffered + 35 direct
  ASSERT_TRUE(r.ReadExact(got.data() + 42, 58));  // direct
  EXPECT_EQ(got, data);
  char c;
  EXPECT_FALSE(r.ReadExact(&c, 1));
  const std::vector<std::pair<std::uint64_t, std::size_t>> expected{
      {0, 7}, {7, 35}, {42, 58}, {100, 7}};
  EXPECT_EQ(hook.reads, expected);
}

TEST_F(StorageTest, TruncatedRunThrowsAndCleanEofReturnsFalse) {
  const auto path = files_.NewFile("run_trunc");
  std::uint64_t last_record_at = 0;
  {
    RunWriter w(path, Channel());
    for (int i = 0; i < 10; ++i) {
      last_record_at = w.bytes_written();
      w.Append("key-" + std::to_string(i), "value-" + std::to_string(i));
    }
    w.Close();
  }
  const std::uint64_t size = fs::file_size(path);
  for (const std::size_t buffer : {std::size_t{1}, std::size_t{7},
                                   std::size_t{1} << 16}) {
    SCOPED_TRACE("buffer " + std::to_string(buffer));
    RunReader clean(path, Channel(), buffer);
    int records = 0;
    while (clean.Next()) ++records;
    EXPECT_EQ(records, 10);
    EXPECT_FALSE(clean.Next());
  }
  // Cut mid-payload, then mid-header, of the last record.
  for (const std::uint64_t cut : {size - 3, last_record_at + 6}) {
    const auto copy = files_.NewFile("run_trunc_copy");
    fs::copy_file(path, copy);
    fs::resize_file(copy, cut);
    for (const std::size_t buffer : {std::size_t{1}, std::size_t{7},
                                     std::size_t{1} << 16}) {
      SCOPED_TRACE("cut " + std::to_string(cut) + " buffer " +
                   std::to_string(buffer));
      RunReader r(copy, Channel(), buffer);
      for (int i = 0; i < 9; ++i) ASSERT_TRUE(r.Next());
      EXPECT_THROW(r.Next(), std::runtime_error);
    }
  }
}

TEST_F(StorageTest, RestrictedReaderChargesExactlyItsSegment) {
  const auto path = files_.NewFile("segments");
  std::uint64_t seg_begin = 0;
  std::uint64_t seg_end = 0;
  {
    RunWriter w(path, Channel());
    for (int i = 0; i < 50; ++i) w.Append("seg0-" + std::to_string(i), "v");
    seg_begin = w.bytes_written();
    for (int i = 0; i < 50; ++i) w.Append("seg1-" + std::to_string(i), "v");
    seg_end = w.bytes_written();
    for (int i = 0; i < 50; ++i) w.Append("seg2-" + std::to_string(i), "v");
    w.Close();
  }
  {
    // Reads its whole segment; the read-ahead runs into segment 2, but the
    // reader is destroyed before it ever reaches EOF.
    RunReader r(path, Channel("seg.bytes"));
    r.Restrict(seg_begin, seg_end - seg_begin);
    int records = 0;
    while (r.Next()) ++records;
    EXPECT_EQ(records, 50);
  }
  EXPECT_EQ(metrics_.Value("seg.bytes"),
            static_cast<std::int64_t>(seg_end - seg_begin));
  {
    // Abandoned after one record: charges that record only.
    RunReader r(path, Channel("one.bytes"));
    r.Restrict(seg_begin, seg_end - seg_begin);
    ASSERT_TRUE(r.Next());
    EXPECT_EQ(r.key().ToString(), "seg1-0");
  }
  EXPECT_EQ(metrics_.Value("one.bytes"), 8 + 6 + 1);
}

TEST_F(StorageTest, MovedFromReaderDoesNotDoubleCharge) {
  const std::string data = Pattern(100);
  const auto path = WriteFile("moved", data);
  std::string got(data.size(), '\0');
  {
    SequentialReader a(path, Channel("mv.bytes"), 16);
    ASSERT_TRUE(a.ReadExact(got.data(), 10));
    {
      SequentialReader b(std::move(a));
      ASSERT_TRUE(b.ReadExact(got.data() + 10, 20));
      EXPECT_EQ(b.bytes_read(), 30u);
    }
    EXPECT_EQ(metrics_.Value("mv.bytes"), 30);
  }
  EXPECT_EQ(got.substr(0, 30), data.substr(0, 30));
  EXPECT_EQ(metrics_.Value("mv.bytes"), 30);
}

TEST_F(StorageTest, ReaderOpsCountPhysicalRefills) {
  const auto path = WriteFile("ops", Pattern(1000));
  RecordingReadHook hook;
  SequentialReader r(path, Channel("r.bytes"), 256);
  char buf[10];
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(r.ReadExact(buf, sizeof(buf)));
  EXPECT_FALSE(r.ReadExact(buf, 1));
  // Four refills carry data (256, 256, 256, 232 bytes); the fifth finds EOF.
  EXPECT_EQ(hook.reads.size(), 5u);
  EXPECT_EQ(metrics_.Value("r.bytes.ops"), 5);
  EXPECT_EQ(metrics_.Value("r.bytes"), 1000);
}

TEST_F(StorageTest, SeekedReaderReportsFileOffsetsToTheHook) {
  const auto path = WriteFile("seek_hook", Pattern(3000));
  RecordingReadHook hook;
  SequentialReader r(path, Channel(), 256);
  r.Seek(1000);
  char buf[600];
  ASSERT_TRUE(r.ReadExact(buf, sizeof(buf)));
  EXPECT_EQ(std::string(buf, 600), Pattern(1600).substr(1000));
  ASSERT_FALSE(hook.reads.empty());
  EXPECT_EQ(hook.reads.front().first, 1000u);
  for (const auto& [offset, bytes] : hook.reads) EXPECT_GE(offset, 1000u);
}

TEST_F(StorageTest, AfterBytesReadFaultOnSegmentFiresAtFileOffset) {
  // Two segments of 100 twenty-byte records: [0, 2000) and [2000, 4000).
  const auto path = files_.NewFile("map_out");
  {
    RunWriter w(path, Channel());
    for (int i = 0; i < 200; ++i) {
      char key[7];
      std::snprintf(key, sizeof(key), "k%05d", i);
      w.Append(key, "value_");
    }
    w.Close();
  }
  ASSERT_EQ(fs::file_size(path), 4000u);
  const auto read_segment = [&](const std::string& plan) {
    InstalledFaultPlan installed(plan, &metrics_);
    RunReader r(path, Channel(), 256);
    r.Restrict(2000, 2000);
    int records = 0;
    try {
      while (r.Next()) ++records;
    } catch (const InjectedFault&) {
      return std::optional<int>(records);
    }
    return std::optional<int>();
  };
  // File offset 1000 lies in segment 1, which this reader never reads.
  EXPECT_FALSE(
      read_segment("io_read:tag=map_out,after_bytes=1000").has_value());
  // File offset 2500 fires on the refill that crosses it, before the
  // reader has consumed the record at 2500.
  const auto fired = read_segment("io_read:tag=map_out,after_bytes=2500");
  ASSERT_TRUE(fired.has_value());
  EXPECT_LT(2000 + *fired * 20, 2500);
}

// Deterministic ceiling on physical reads: a reader makes one per buffer,
// not one per field, whatever the record size.
TEST_F(StorageTest, ReadOpsStayWithinOnePerBuffer) {
  const auto ceiling = [](std::uint64_t bytes) {
    return (bytes + (std::uint64_t{1} << 16) - 1) / (std::uint64_t{1} << 16) +
           1;
  };
  const auto run = files_.NewFile("ceiling_run");
  {
    RunWriter w(run, Channel());
    for (int i = 0; w.bytes_written() < (1u << 20); ++i) {
      char key[7];
      std::snprintf(key, sizeof(key), "%06d", i % 1000000);
      w.Append(key, "valuev");  // 8 + 6 + 6 = 20 bytes a record
    }
    w.Close();
  }
  const std::uint64_t run_bytes = fs::file_size(run);
  {
    RecordingReadHook hook;
    {
      RunReader r(run, Channel("ceiling.run"));
      while (r.Next()) {
      }
    }
    EXPECT_LE(hook.reads.size(), ceiling(run_bytes));
    EXPECT_EQ(metrics_.Value("ceiling.run"),
              static_cast<std::int64_t>(run_bytes));
  }

  Dfs dfs(&files_, &metrics_, {.block_bytes = 1u << 20, .num_nodes = 1});
  auto writer = dfs.Create("input");
  for (int i = 0; i < 40'000; ++i) writer->Append("click-" + std::to_string(i));
  writer->Close();
  const auto blocks = dfs.ListBlocks("input");
  ASSERT_FALSE(blocks.empty());
  const BlockInfo& block = blocks.front();
  ASSERT_EQ(fs::file_size(block.path), block.length);
  {
    RecordingReadHook hook;
    const std::int64_t before = metrics_.Value(device::kDfsRead);
    {
      auto reader = dfs.OpenBlock(block);
      Slice record;
      while (reader->Next(&record)) {
      }
    }
    EXPECT_LE(hook.reads.size(), ceiling(block.length));
    EXPECT_EQ(metrics_.Value(device::kDfsRead) - before,
              static_cast<std::int64_t>(block.length));
  }
}

}  // namespace
}  // namespace opmr
