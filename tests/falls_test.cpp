// Unit tests for the nested FALLS representation (paper section 4).
#include <gtest/gtest.h>

#include "falls/falls.h"
#include "falls/print.h"
#include "tests/test_util.h"

namespace pfm {
namespace {

using ::pfm::testing::byte_set;

TEST(LineSegment, SizeIsInclusive) {
  EXPECT_EQ((LineSegment{3, 5}).size(), 3);
  EXPECT_EQ((LineSegment{7, 7}).size(), 1);
}

TEST(Falls, FromSegmentDenotesExactlyTheSegment) {
  const Falls f = from_segment({4, 9});
  EXPECT_EQ(falls_bytes(f), (std::vector<std::int64_t>{4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(falls_size(f), 6);
}

// Paper figure 1: FALLS (3,5,6,5) has segments 3-5, 9-11, ..., 27-29.
TEST(Falls, PaperFigure1Example) {
  const Falls f = make_falls(3, 5, 6, 5);
  EXPECT_EQ(falls_size(f), 15);
  EXPECT_EQ(falls_extent(f), 30);
  const std::vector<std::int64_t> expected{3,  4,  5,  9,  10, 11, 15, 16,
                                           17, 21, 22, 23, 27, 28, 29};
  EXPECT_EQ(falls_bytes(f), expected);
}

// Paper figure 2: nested FALLS (0,3,8,2,{(0,0,2,2)}) denotes {0,2,8,10},
// size 4.
TEST(Falls, PaperFigure2NestedExample) {
  const Falls f = make_nested(0, 3, 8, 2, {make_falls(0, 0, 2, 2)});
  EXPECT_EQ(falls_size(f), 4);
  EXPECT_EQ(falls_bytes(f), (std::vector<std::int64_t>{0, 2, 8, 10}));
}

TEST(Falls, SizeOfSetIsSumOfMembers) {
  const FallsSet s{make_falls(0, 1, 6, 2), make_falls(2, 3, 6, 2)};
  EXPECT_EQ(set_size(s), 8);
}

TEST(Falls, HeightCountsNestingLevels) {
  EXPECT_EQ(falls_height(make_falls(0, 3, 4, 1)), 1);
  const Falls two = make_nested(0, 7, 8, 2, {make_falls(0, 1, 4, 2)});
  EXPECT_EQ(falls_height(two), 2);
  const Falls three =
      make_nested(0, 15, 16, 1, {make_nested(0, 7, 8, 2, {make_falls(0, 1, 4, 2)})});
  EXPECT_EQ(falls_height(three), 3);
  EXPECT_EQ(set_height(FallsSet{}), 0);
}

TEST(FallsValidate, RejectsMalformedFalls) {
  EXPECT_THROW(validate_falls(make_falls(-1, 2, 4, 1)), std::invalid_argument);
  EXPECT_THROW(validate_falls(make_falls(5, 2, 4, 1)), std::invalid_argument);
  EXPECT_THROW(validate_falls(make_falls(0, 2, 4, 0)), std::invalid_argument);
  EXPECT_THROW(validate_falls(make_falls(0, 2, 0, 1)), std::invalid_argument);
  // Overlapping blocks: stride smaller than block length with n > 1.
  EXPECT_THROW(validate_falls(make_falls(0, 5, 3, 2)), std::invalid_argument);
  // n == 1 tolerates any stride >= 1.
  EXPECT_NO_THROW(validate_falls(make_falls(0, 5, 1, 1)));
}

TEST(FallsValidate, RejectsInnerExceedingBlock) {
  // Built by mutation: make_nested itself validates in checked builds and
  // would throw before the validator under test gets to run.
  Falls f = make_falls(0, 3, 8, 2);
  f.inner.push_back(make_falls(0, 4, 5, 1));
  EXPECT_THROW(validate_falls(f), std::invalid_argument);
}

TEST(FallsValidate, RejectsOverlappingSetMembers) {
  const FallsSet s{make_falls(0, 3, 8, 2), make_falls(2, 5, 8, 1)};
  EXPECT_THROW(validate_falls_set(s), std::invalid_argument);
}

TEST(FallsValidate, InterleavedMembersAreDecidedOnNodes) {
  // 2*10^8 runs, decided by one pair test: a run-level check would take
  // seconds and gigabytes.
  EXPECT_NO_THROW(validate_falls_set(
      {make_falls(0, 0, 2, 100000000), make_falls(1, 1, 2, 100000000)}));
  // Strides 2 and 4 meet at byte 4.
  EXPECT_THROW(validate_falls_set(
                   {make_falls(0, 0, 2, 100000000), make_falls(4, 4, 4, 100000000)}),
               std::invalid_argument);
  // Nested members disjoint only inside their blocks: even against odd
  // bytes, then even against even.
  const Falls even = make_nested(0, 7, 16, 4, {make_falls(0, 0, 2, 4)});
  EXPECT_NO_THROW(validate_falls_set({even, make_nested(1, 7, 16, 4, {make_falls(0, 0, 2, 3)})}));
  EXPECT_THROW(validate_falls_set({even, make_nested(1, 7, 16, 4, {make_falls(1, 1, 2, 3)})}),
               std::invalid_argument);
}

TEST(FallsValidate, SetPastTheBudgetIsRefused) {
  // 6000 byte-disjoint families of one stride whose spans all overlap:
  // deciding every pair exceeds the fixed budget.
  FallsSet set;
  for (std::int64_t k = 0; k < 6000; ++k) set.push_back(make_falls(k, k, 6000, 1000));
  EXPECT_THROW(validate_falls_set(set), std::invalid_argument);
  set.resize(500);
  EXPECT_NO_THROW(validate_falls_set(set));
}

TEST(FallsValidate, DisjointSetsAreDecidedOnNodes) {
  EXPECT_NO_THROW(validate_disjoint(std::vector<FallsSet>{
      {make_falls(0, 0, 2, 100000000)}, {make_falls(1, 1, 2, 100000000)}}));
  // Byte 6 lies in both sets; members of one set are not compared.
  EXPECT_THROW(validate_disjoint(std::vector<FallsSet>{
                   {make_falls(0, 0, 2, 4)}, {make_falls(1, 1, 2, 3), make_falls(6, 6, 1, 1)}}),
               std::invalid_argument);
  EXPECT_NO_THROW(validate_disjoint(std::vector<FallsSet>{
      {make_falls(0, 0, 6, 2), make_falls(3, 3, 4, 3)}, {make_falls(1, 2, 3, 2)}}));
}

TEST(FallsValidate, AcceptsPaperFigure3Pattern) {
  // Subfile patterns (0,1,6,1), (2,3,6,1), (4,5,6,1).
  EXPECT_NO_THROW(validate_falls_set({make_falls(0, 1, 6, 1)}));
  EXPECT_NO_THROW(validate_falls_set({make_falls(2, 3, 6, 1)}));
  EXPECT_NO_THROW(validate_falls_set({make_falls(4, 5, 6, 1)}));
}

TEST(FallsRuns, RunsAreMaximalAndSorted) {
  // Two set members producing adjacent runs coalesce.
  const FallsSet s{make_falls(0, 1, 8, 2), make_falls(2, 3, 8, 2)};
  const auto runs = set_runs(s);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (LineSegment{0, 3}));
  EXPECT_EQ(runs[1], (LineSegment{8, 11}));
}

TEST(FallsShift, ShiftMovesEveryByte) {
  const Falls f = make_nested(0, 3, 8, 2, {make_falls(0, 0, 2, 2)});
  const Falls g = shift_falls(f, 5);
  EXPECT_EQ(falls_bytes(g), (std::vector<std::int64_t>{5, 7, 13, 15}));
  EXPECT_THROW(shift_falls(f, -1), std::invalid_argument);
}

TEST(FallsWrap, WrapOuterTilesInnerSet) {
  const FallsSet inner{make_falls(0, 1, 4, 1)};
  const Falls f = wrap_outer(inner, 8, 3);
  EXPECT_EQ(falls_bytes(f), (std::vector<std::int64_t>{0, 1, 8, 9, 16, 17}));
}

TEST(FallsEqualize, PreservesByteSetAndReachesHeight) {
  Rng rng(42);
  for (int it = 0; it < 50; ++it) {
    const FallsSet s = pfm::testing::random_falls_set(rng, 200, 2);
    const int target = set_height(s) + static_cast<int>(rng.uniform(0, 2));
    const FallsSet e = equalize_height(s, target);
    EXPECT_EQ(byte_set(e), byte_set(s)) << to_string(s);
    for (const Falls& f : e) EXPECT_EQ(falls_height(f), target);
    EXPECT_NO_THROW(validate_falls_set(e));
  }
}

TEST(FallsOracle, SizeMatchesEnumeration) {
  Rng rng(7);
  for (int it = 0; it < 100; ++it) {
    const FallsSet s = pfm::testing::random_falls_set(rng, 300, 3);
    EXPECT_EQ(set_size(s), static_cast<std::int64_t>(byte_set(s).size()))
        << to_string(s);
  }
}

TEST(FallsOracle, ExtentBoundsAllBytes) {
  Rng rng(11);
  for (int it = 0; it < 100; ++it) {
    const FallsSet s = pfm::testing::random_falls_set(rng, 300, 2);
    const auto bytes = byte_set(s);
    ASSERT_FALSE(bytes.empty());
    // Every byte lies below the extent; for a flat tail the bound is tight,
    // for nested FALLS the last member byte may fall short of it.
    EXPECT_LT(*bytes.rbegin(), set_extent(s));
  }
}

}  // namespace
}  // namespace pfm
