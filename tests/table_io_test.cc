// Unit tests for CSV/binary table IO.

#include "table/table_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace ricd::table {
namespace {

class TableIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  static ClickTable Sample() {
    ClickTable t;
    t.Append(1, 10, 3);
    t.Append(2, 20, 1);
    t.Append(-3, 30, 4000000);
    return t;
  }
};

TEST_F(TableIoTest, CsvRoundTrip) {
  const std::string path = TempPath("roundtrip.csv");
  const ClickTable original = Sample();
  ASSERT_TRUE(WriteCsv(original, path).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_rows(), original.num_rows());
  for (size_t i = 0; i < original.num_rows(); ++i) {
    EXPECT_EQ(loaded->row(i), original.row(i));
  }
}

TEST_F(TableIoTest, CsvReadsHeaderlessFiles) {
  const std::string path = TempPath("noheader.csv");
  std::ofstream(path) << "5,6,7\n8,9,10\n";
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->user(0), 5);
}

TEST_F(TableIoTest, CsvSkipsBlankLines) {
  const std::string path = TempPath("blank.csv");
  std::ofstream(path) << "user,item,clicks\n1,2,3\n\n  \n4,5,6\n";
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 2u);
}

TEST_F(TableIoTest, CsvRejectsWrongFieldCount) {
  const std::string path = TempPath("badfields.csv");
  std::ofstream(path) << "1,2\n";
  auto loaded = ReadCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find(":1:"), std::string::npos)
      << "error should name the line: " << loaded.status().message();
}

TEST_F(TableIoTest, CsvRejectsNonNumericFields) {
  const std::string path = TempPath("badnum.csv");
  std::ofstream(path) << "1,x,3\n";
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(TableIoTest, CsvRejectsNegativeClicks) {
  const std::string path = TempPath("negclicks.csv");
  std::ofstream(path) << "1,2,-3\n";
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(TableIoTest, CsvRejectsOverflowingClicks) {
  const std::string path = TempPath("bigclicks.csv");
  std::ofstream(path) << "1,2,4294967296\n";  // 2^32
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(TableIoTest, CsvMissingFileIsIoError) {
  auto loaded = ReadCsv(TempPath("does_not_exist.csv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(TableIoTest, BinaryRoundTrip) {
  const std::string path = TempPath("roundtrip.bin");
  const ClickTable original = Sample();
  ASSERT_TRUE(WriteBinary(original, path).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_rows(), original.num_rows());
  for (size_t i = 0; i < original.num_rows(); ++i) {
    EXPECT_EQ(loaded->row(i), original.row(i));
  }
}

TEST_F(TableIoTest, BinaryEmptyTableRoundTrip) {
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(WriteBinary(ClickTable(), path).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(TableIoTest, BinaryRejectsBadMagic) {
  const std::string path = TempPath("badmagic.bin");
  std::ofstream(path, std::ios::binary) << "NOTRICD1andmore";
  auto loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(TableIoTest, BinaryRejectsTruncatedFile) {
  const std::string good = TempPath("good.bin");
  ASSERT_TRUE(WriteBinary(Sample(), good).ok());
  // Copy all but the last 4 bytes.
  std::ifstream in(good, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  const std::string bad = TempPath("truncated.bin");
  std::ofstream(bad, std::ios::binary)
      << contents.substr(0, contents.size() - 4);
  auto loaded = ReadBinary(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(TableIoTest, CsvLargeTableRoundTrip) {
  ClickTable big;
  for (int i = 0; i < 5000; ++i) big.Append(i, i * 2, (i % 40) + 1);
  const std::string path = TempPath("big.csv");
  ASSERT_TRUE(WriteCsv(big, path).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 5000u);
  EXPECT_EQ(loaded->TotalClicks(), big.TotalClicks());
}

}  // namespace
}  // namespace ricd::table
