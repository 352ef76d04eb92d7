#include "storage/codec.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "metrics/counters.h"
#include "storage/compressed_run.h"
#include "storage/file_manager.h"

namespace opmr {
namespace {

std::string RoundTrip(const std::string& input) {
  return OzDecompress(OzCompress(input));
}

TEST(OzCodec, EmptyAndTinyInputs) {
  EXPECT_EQ(RoundTrip(""), "");
  EXPECT_EQ(RoundTrip("a"), "a");
  EXPECT_EQ(RoundTrip("abc"), "abc");
  EXPECT_EQ(RoundTrip("abcd"), "abcd");
}

TEST(OzCodec, HighlyCompressibleInputShrinks) {
  const std::string input(100'000, 'z');
  const std::string compressed = OzCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 20);
  EXPECT_EQ(OzDecompress(compressed), input);
}

TEST(OzCodec, RepeatedRecordsCompress) {
  std::string input;
  for (int i = 0; i < 2'000; ++i) {
    input += "u000123\t/page/00042.html\t894001122\n";
  }
  const std::string compressed = OzCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 4);
  EXPECT_EQ(OzDecompress(compressed), input);
}

TEST(OzCodec, IncompressibleInputRoundTripsWithBoundedExpansion) {
  Rng rng(1);
  std::string input;
  input.reserve(200'000);
  for (int i = 0; i < 200'000; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  const std::string compressed = OzCompress(input);
  EXPECT_EQ(OzDecompress(compressed), input);
  // Worst case: 1 control byte per 128 literals + 4-byte header.
  EXPECT_LT(compressed.size(), input.size() + input.size() / 100 + 64);
}

TEST(OzCodec, MixedStructuredDataFuzz) {
  Rng rng(2);
  for (int round = 0; round < 50; ++round) {
    std::string input;
    const int pieces = 1 + static_cast<int>(rng.Uniform(60));
    for (int p = 0; p < pieces; ++p) {
      switch (rng.Uniform(4)) {
        case 0:
          input.append(rng.Uniform(300), static_cast<char>(rng.Next()));
          break;
        case 1:
          input += "key-" + std::to_string(rng.Uniform(50));
          break;
        case 2:
          for (std::uint64_t i = 0; i < rng.Uniform(200); ++i) {
            input.push_back(static_cast<char>(rng.Next() & 0xff));
          }
          break;
        default: {
          // self-similar chunk: repeat a recent window
          const std::size_t n = std::min<std::size_t>(input.size(), 97);
          input.append(input.substr(input.size() - n));
          break;
        }
      }
    }
    EXPECT_EQ(RoundTrip(input), input) << "round " << round;
  }
}

TEST(OzCodec, OverlappingMatchRle) {
  // "ababab..." exercises distance < length copies.
  std::string input;
  for (int i = 0; i < 5'000; ++i) input += (i % 2 ? "b" : "a");
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(OzCodec, DecompressRejectsCorruption) {
  EXPECT_THROW(OzDecompress(Slice("")), std::runtime_error);
  EXPECT_THROW(OzDecompress(Slice("ab")), std::runtime_error);

  // Valid stream, then flip the raw-size header.
  std::string good = OzCompress(std::string(1000, 'x'));
  std::string bad_size = good;
  bad_size[0] = static_cast<char>(bad_size[0] + 1);
  EXPECT_THROW(OzDecompress(bad_size), std::runtime_error);

  // Truncate mid-stream.
  EXPECT_THROW(OzDecompress(Slice(good.data(), good.size() - 1)),
               std::runtime_error);
}

TEST(OzCodec, MatchDistanceValidation) {
  // Hand-build a stream whose match points before the start of output.
  std::string evil;
  AppendU32(evil, 4);
  evil.push_back(static_cast<char>(0x80));  // match len 4
  evil.push_back(5);                        // distance 5 into nothing
  evil.push_back(0);
  EXPECT_THROW(OzDecompress(evil), std::runtime_error);
}

// --- Compressed run files -------------------------------------------------------

class CompressedRunTest : public ::testing::Test {
 protected:
  CompressedRunTest() : files_(FileManager::CreateTemp("opmr-comp")) {}
  FileManager files_;
  MetricRegistry metrics_;
};

TEST_F(CompressedRunTest, RoundTripsRecordsAcrossBlocks) {
  const auto path = files_.NewFile("crun");
  IoChannel channel(&metrics_, "c.bytes");
  {
    CompressedRunWriter writer(path, channel);
    for (int i = 0; i < 20'000; ++i) {  // well beyond one 64 KiB block
      writer.Append("user-" + std::to_string(i % 500),
                    "payload-" + std::to_string(i));
    }
    EXPECT_EQ(writer.num_records(), 20'000u);
    writer.Close();
  }
  CompressedRunReader reader(path, channel);
  int n = 0;
  while (reader.Next()) {
    ASSERT_EQ(reader.key().ToString(), "user-" + std::to_string(n % 500));
    ASSERT_EQ(reader.value().ToString(), "payload-" + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, 20'000);
}

TEST_F(CompressedRunTest, CompressedFileIsSmallerForRedundantData) {
  IoChannel plain_ch(&metrics_, "plain.bytes");
  IoChannel comp_ch(&metrics_, "comp.bytes");
  {
    RunWriter plain(files_.NewFile("plain"), plain_ch);
    CompressedRunWriter comp(files_.NewFile("comp"), comp_ch);
    for (int i = 0; i < 50'000; ++i) {
      const std::string key = std::string("u").append(std::to_string(i % 100));
      plain.Append(key, "1");
      comp.Append(key, "1");
    }
    plain.Close();
    comp.Close();
  }
  EXPECT_LT(metrics_.Value("comp.bytes"), metrics_.Value("plain.bytes") / 3)
      << "counting spills must compress well";
}

TEST_F(CompressedRunTest, EmptyRunIsValid) {
  const auto path = files_.NewFile("empty");
  IoChannel channel(&metrics_, "c.bytes");
  {
    CompressedRunWriter writer(path, channel);
    writer.Close();
  }
  CompressedRunReader reader(path, channel);
  EXPECT_FALSE(reader.Next());
}

TEST_F(CompressedRunTest, LargeValuesSpanBlocksCorrectly) {
  const auto path = files_.NewFile("big");
  IoChannel channel(&metrics_, "c.bytes");
  const std::string big(300u << 10, 'Q');  // single record > block size
  {
    CompressedRunWriter writer(path, channel);
    writer.Append("small", "v");
    writer.Append("big", big);
    writer.Append("tail", "w");
    writer.Close();
  }
  CompressedRunReader reader(path, channel);
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.key().ToString(), "small");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.value().size(), big.size());
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.key().ToString(), "tail");
  EXPECT_FALSE(reader.Next());
}

}  // namespace
}  // namespace opmr
