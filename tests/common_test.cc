#include <gtest/gtest.h>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

// GCC 12 falsely flags std::variant's destructor visit of the Status
// alternative as -Wmaybe-uninitialized when a fully-inlined Result<int>
// provably holds the int alternative (GCC PR 105937).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace taurus {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::SyntaxError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kSyntaxError);
  EXPECT_EQ(s.ToString(), "SyntaxError: bad token");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kExecutionError); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  TAURUS_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Internal("x")).status().code(),
            StatusCode::kInternal);
}

TEST(StringsTest, AsciiLower) {
  EXPECT_EQ(AsciiLower("SELECT Foo_1"), "select foo_1");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(AsciiEqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(AsciiEqualsIgnoreCase("GROUP", "groups"));
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto parts = SplitString("a||b", '|');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(LikeTest, ExactMatch) {
  EXPECT_TRUE(SqlLikeMatch("abc", "abc"));
  EXPECT_FALSE(SqlLikeMatch("abc", "abd"));
}

TEST(LikeTest, PercentWildcard) {
  EXPECT_TRUE(SqlLikeMatch("PROMO BURNISHED", "PROMO%"));
  EXPECT_TRUE(SqlLikeMatch("xx Customer yy Complaints zz",
                           "%Customer%Complaints%"));
  EXPECT_FALSE(SqlLikeMatch("Customer", "%Customer%Complaints%"));
}

TEST(LikeTest, UnderscoreWildcard) {
  EXPECT_TRUE(SqlLikeMatch("cat", "c_t"));
  EXPECT_FALSE(SqlLikeMatch("cart", "c_t"));
}

TEST(LikeTest, EmptyPattern) {
  EXPECT_TRUE(SqlLikeMatch("", ""));
  EXPECT_FALSE(SqlLikeMatch("a", ""));
  EXPECT_TRUE(SqlLikeMatch("", "%"));
}

TEST(LikeTest, TrailingPercentCollapse) {
  EXPECT_TRUE(SqlLikeMatch("abc", "abc%%%"));
  EXPECT_TRUE(SqlLikeMatch("abc", "%%abc"));
}

// The one-pass matcher for '%'-only patterns against the backtracking one,
// on random values and patterns over {a, b, %}: short alphabets make
// overlapping and repeated segments, and runs of '%', common.
TEST(LikeTest, OnePassMatchesRecursiveMatcher) {
  Rng rng(17);
  auto random_string = [&](const char* alphabet, int alpha_size, int max_len) {
    std::string s;
    const int64_t len = rng.Uniform(0, max_len);
    for (int64_t i = 0; i < len; ++i) {
      s += alphabet[rng.Uniform(0, alpha_size - 1)];
    }
    return s;
  };
  int matches = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string value = random_string("ab", 2, 8);
    const std::string pattern = random_string("ab%%", 4, 7);
    const bool want = SqlLikeMatchRecursive(value, pattern);
    EXPECT_EQ(SqlLikeMatch(value, pattern), want)
        << "'" << value << "' LIKE '" << pattern << "'";
    matches += want ? 1 : 0;
  }
  // Both outcomes are well represented.
  EXPECT_GT(matches, 2000);
  EXPECT_LT(matches, 18000);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, StringLengthBounds) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::string s = rng.NextString(2, 6);
    EXPECT_GE(s.size(), 2u);
    EXPECT_LE(s.size(), 6u);
  }
}

TEST(HashTest, Fnv1aStableAndSpread) {
  EXPECT_EQ(Fnv1aHash("abc", 3), Fnv1aHash("abc", 3));
  EXPECT_NE(Fnv1aHash("abc", 3), Fnv1aHash("abd", 3));
}

}  // namespace
}  // namespace taurus
