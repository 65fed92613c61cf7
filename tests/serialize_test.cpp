// Tests for the tuple-notation serialization of FALLS sets.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "falls/print.h"
#include "falls/serialize.h"
#include "tests/test_util.h"

namespace pfm {
namespace {

TEST(Serialize, TupleNotationMatchesPaper) {
  EXPECT_EQ(to_string(make_falls(3, 5, 6, 5)), "(3,5,6,5)");
  EXPECT_EQ(to_string(make_nested(0, 3, 8, 2, {make_falls(0, 0, 2, 2)})),
            "(0,3,8,2,{(0,0,2,2)})");
  EXPECT_EQ(to_string(FallsSet{make_falls(0, 1, 6, 1), make_falls(2, 3, 6, 1)}),
            "{(0,1,6,1), (2,3,6,1)}");
}

TEST(Serialize, ParseAcceptsWhitespace) {
  const FallsSet s = parse_falls_set(" { ( 0 , 3 , 8 , 2 , { (0,0,2,2) } ) } ");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], make_nested(0, 3, 8, 2, {make_falls(0, 0, 2, 2)}));
}

TEST(Serialize, ParseEmptySet) {
  EXPECT_TRUE(parse_falls_set("{}").empty());
  EXPECT_TRUE(parse_falls_set("  {  }  ").empty());
}

TEST(Serialize, RoundTripProperty) {
  Rng rng(4242);
  for (int it = 0; it < 100; ++it) {
    const FallsSet s = pfm::testing::random_falls_set(rng, 250, 3);
    const FallsSet back = parse_falls_set(serialize(s));
    EXPECT_EQ(back, s) << serialize(s);
  }
}

/// The tuple notation printed through std::ostream: the writer's oracle.
void print_reference(std::ostream& os, const FallsSet& set);
void print_reference(std::ostream& os, const Falls& f) {
  os << '(' << f.l << ',' << f.r << ',' << f.s << ',' << f.n;
  if (!f.leaf()) {
    os << ',';
    print_reference(os, f.inner);
  }
  os << ')';
}
void print_reference(std::ostream& os, const FallsSet& set) {
  os << '{';
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (i > 0) os << ", ";
    print_reference(os, set[i]);
  }
  os << '}';
}

/// A value in [lo, hi] of a random number of decimal digits (1 to 19), so
/// that every number length is written.
std::int64_t any_length(Rng& rng, std::int64_t lo, std::int64_t hi) {
  std::int64_t top = 9;  // the largest value of d digits, or hi
  for (std::int64_t d = rng.uniform(1, 19); d > 1; --d)
    top = top > hi / 10 ? hi : top * 10 + 9;
  return rng.uniform(lo, std::max(lo, std::min(hi, top)));
}

/// A valid FALLS set in file order of the given depth inside [0, extent),
/// with members and strides anywhere up to INT64_MAX.
FallsSet wide_set(Rng& rng, std::int64_t extent, int depth) {
  FallsSet out;
  std::int64_t cursor = 0;
  const int members = static_cast<int>(rng.uniform(1, 3));
  for (int i = 0; i < members && cursor < extent; ++i) {
    Falls f;
    f.l = any_length(rng, cursor, extent - 1);
    const std::int64_t room = extent - f.l;  // bytes left for this member
    const std::int64_t len = any_length(rng, 1, room);
    f.r = f.l + len - 1;
    f.n = room / len > 1 ? any_length(rng, 1, room / len) : 1;
    const std::int64_t max_s =
        f.n > 1 ? (room - len) / (f.n - 1) : std::numeric_limits<std::int64_t>::max();
    f.s = any_length(rng, f.n > 1 ? len : 1, max_s);
    if (depth > 1 && len > 1) f.inner = wide_set(rng, len, depth - 1);
    cursor = falls_extent(f);
    out.push_back(std::move(f));
  }
  return out;
}

template <typename T>
std::string reference(const T& x) {
  std::ostringstream os;
  print_reference(os, x);
  return os.str();
}

TEST(Serialize, WriterMatchesStreamOracleAcrossNumberLengths) {
  Rng rng(20261019);
  for (int it = 0; it < 2000; ++it) {
    const FallsSet s = wide_set(rng, std::numeric_limits<std::int64_t>::max(),
                                1 + it % 3);
    const std::string want = reference(s);
    ASSERT_EQ(to_string(s), want);
    ASSERT_EQ(serialize(s), want);
    ASSERT_EQ(to_string(s.front()), reference(s.front()));
    ASSERT_EQ(parse_falls_set(want), s) << want;
  }
  // The extremes of every field, and a set with no members.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(to_string(FallsSet{Falls{0, kMax - 1, kMax, 1, {}}}),
            "{(0,9223372036854775806,9223372036854775807,1)}");
  EXPECT_EQ(to_string(Falls{-1, std::numeric_limits<std::int64_t>::min(), 0, 0, {}}),
            "(-1,-9223372036854775808,0,0)");
  EXPECT_EQ(to_string(FallsSet{}), "{}");
  EXPECT_EQ(to_string("12 ", FallsSet{make_falls(0, 1, 4, 2)}), "12 {(0,1,4,2)}");
}

TEST(Serialize, RejectsSyntaxErrors) {
  EXPECT_THROW(parse_falls_set(""), std::invalid_argument);
  EXPECT_THROW(parse_falls_set("("), std::invalid_argument);
  EXPECT_THROW(parse_falls_set("{(1,2,3)}"), std::invalid_argument);
  EXPECT_THROW(parse_falls_set("{(1,2,3,4)} trailing"), std::invalid_argument);
  EXPECT_THROW(parse_falls_set("{(1,2,3,4),}"), std::invalid_argument);
  EXPECT_THROW(parse_falls_set("{(a,2,3,4)}"), std::invalid_argument);
}

TEST(Serialize, RejectsStructurallyInvalidFalls) {
  // Parses syntactically but fails validation (l > r).
  EXPECT_THROW(parse_falls_set("{(5,2,6,1)}"), std::invalid_argument);
  // Overlapping set members.
  EXPECT_THROW(parse_falls_set("{(0,3,8,2),(2,5,8,1)}"), std::invalid_argument);
}

}  // namespace
}  // namespace pfm
