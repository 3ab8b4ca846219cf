// Unit tests for string utilities.

#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace ricd {
namespace {

TEST(SplitStringTest, BasicSplit) {
  const auto parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, PreservesEmptyFields) {
  const auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitStringTest, EmptyInputIsOneEmptyField) {
  const auto parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimStringTest, TrimsBothEnds) {
  EXPECT_EQ(TrimString("  x y \t\n"), "x y");
  EXPECT_EQ(TrimString("abc"), "abc");
  EXPECT_EQ(TrimString("   "), "");
  EXPECT_EQ(TrimString(""), "");
}

TEST(ParseInt64Test, ValidInputs) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt64(" 13 ", &v));
  EXPECT_EQ(v, 13);
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(ParseInt64Test, RejectsGarbage) {
  int64_t v = 99;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("1 2", &v));
  EXPECT_FALSE(ParseInt64("999999999999999999999999", &v));  // overflow
  EXPECT_EQ(v, 99) << "failed parse must not modify output";
}

TEST(ParseUint64Test, ValidAndInvalid) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("-1", &v));
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12.5", &v));
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("x", &v));
  EXPECT_FALSE(ParseDouble("1.2.3", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(EnvUintTest, FallsBackOnAnythingButAnInRangeInteger) {
  constexpr const char* kName = "RICD_STRING_UTIL_TEST_UINT";
  ::unsetenv(kName);
  EXPECT_EQ(EnvUint(kName, 7, 1, 100), 7u) << "absent";
  ::setenv(kName, "", 1);
  EXPECT_EQ(EnvUint(kName, 7, 1, 100), 7u) << "empty";
  for (const char* garbage : {"12a", "-3", "+3", " 3", "3.0"}) {
    ::setenv(kName, garbage, 1);
    EXPECT_EQ(EnvUint(kName, 7, 1, 100), 7u) << "non-digit '" << garbage << "'";
  }
  ::setenv(kName, "0", 1);
  EXPECT_EQ(EnvUint(kName, 7, 1, 100), 7u) << "0 below the bound";
  EXPECT_EQ(EnvUint(kName, 7, 0, 100), 0u) << "0 at the bound";
  ::setenv(kName, "101", 1);
  EXPECT_EQ(EnvUint(kName, 7, 1, 100), 7u) << "above the maximum";
  ::setenv(kName, "99999999999999999999999", 1);
  EXPECT_EQ(EnvUint(kName, 7, 1, UINT64_MAX), 7u) << "beyond uint64";
  ::setenv(kName, "100", 1);
  EXPECT_EQ(EnvUint(kName, 7, 1, 100), 100u);
  ::setenv(kName, "1", 1);
  EXPECT_EQ(EnvUint(kName, 7, 1, 100), 1u);
  ::unsetenv(kName);
}

TEST(StringPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 1.005), "1.00");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(StringPrintfTest, LongOutput) {
  const std::string big(500, 'a');
  EXPECT_EQ(StringPrintf("%s", big.c_str()).size(), 500u);
}

TEST(FormatWithCommasTest, GroupsDigits) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(90000000), "90,000,000");
}

}  // namespace
}  // namespace ricd
