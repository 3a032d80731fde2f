#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace faaspart::util {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("z"), "z");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("MIG-abc", "MIG-"));
  EXPECT_FALSE(starts_with("MI", "MIG"));
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("GPU-0"), "gpu-0"); }

TEST(Strings, Strf) { EXPECT_EQ(strf("x=", 3, " y=", 4.5), "x=3 y=4.5"); }

/// What strf replaced: every piece through a default-flagged ostringstream.
template <typename... Args>
std::string ostream_reference(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

template <typename T>
void expect_extremes_match() {
  for (const T v : {std::numeric_limits<T>::min(), std::numeric_limits<T>::max(),
                    T{0}, T{7}}) {
    EXPECT_EQ(strf(v), ostream_reference(v));
  }
}

TEST(Strf, MatchesOstream) {
  const std::string s = "std::string";
  const char* cs = "const char*";
  const std::string_view sv = "string_view";
  EXPECT_EQ(strf(s, cs, sv, 'c', "-literal"),
            ostream_reference(s, cs, sv, 'c', "-literal"));
  EXPECT_EQ(strf("x=", 3, " y=", 4.5, ' ', -2LL, "u", 9UL),
            ostream_reference("x=", 3, " y=", 4.5, ' ', -2LL, "u", 9UL));

  expect_extremes_match<short>();
  expect_extremes_match<unsigned short>();
  expect_extremes_match<int>();
  expect_extremes_match<unsigned>();
  expect_extremes_match<long>();
  expect_extremes_match<unsigned long>();
  expect_extremes_match<long long>();
  expect_extremes_match<unsigned long long>();

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double d : {0.0, -0.0, 0.1, 1e-7, 1e21, 999999.5, 9999995.0, 4.0,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max(), kInf, -kInf, kNan,
                         -kNan}) {
    EXPECT_EQ(strf(d), ostream_reference(d))
        << "bits " << std::bit_cast<std::uint64_t>(d);
  }
  EXPECT_EQ(strf(0.1F), ostream_reference(0.1F));
  EXPECT_EQ(strf(std::numeric_limits<float>::max()),
            ostream_reference(std::numeric_limits<float>::max()));

  // Random bit patterns reach every exponent, both signs, denormals and NaN
  // payloads.
  Rng rng(20231112);
  int mismatches = 0;
  for (int i = 0; i < 50000; ++i) {
    const double d = std::bit_cast<double>(rng.next_u64());
    if (strf(d) != ostream_reference(d) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(d) << ": strf "
                    << strf(d) << ", ostream " << ostream_reference(d);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Strings, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(FP_CHECK(1 == 2), Error);
  EXPECT_NO_THROW(FP_CHECK(1 == 1));
}

TEST(Error, CheckMessageIncluded) {
  try {
    FP_CHECK_MSG(false, "context detail");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context detail"), std::string::npos);
  }
}

TEST(Error, Hierarchy) {
  EXPECT_THROW(throw OutOfMemoryError("40 GB"), Error);
  EXPECT_THROW(throw ConfigError("bad"), Error);
  EXPECT_THROW(throw StateError("bad"), Error);
  EXPECT_THROW(throw NotFoundError("bad"), Error);
}

}  // namespace
}  // namespace faaspart::util
