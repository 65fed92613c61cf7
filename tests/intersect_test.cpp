// Tests for flat and nested FALLS intersection and the projections
// (paper section 7).
#include <gtest/gtest.h>

#include <set>

#include "falls/print.h"
#include "falls/set_ops.h"
#include "intersect/intersect.h"
#include "intersect/intersect_falls.h"
#include "intersect/project.h"
#include "tests/test_util.h"

namespace pfm {
namespace {

using ::pfm::testing::byte_set;
using ::pfm::testing::tiled_byte_set;

std::set<std::int64_t> intersect_oracle(const FallsSet& a, const FallsSet& b) {
  const auto sa = byte_set(a);
  const auto sb = byte_set(b);
  std::set<std::int64_t> out;
  for (std::int64_t x : sa)
    if (sb.count(x)) out.insert(x);
  return out;
}

// Paper figure 4: INTERSECT-FALLS((0,7,16,2), (0,3,8,4)) = (0,3,16,2).
TEST(IntersectFalls, PaperFigure4FlatExample) {
  const FallsSet r = intersect_falls(make_falls(0, 7, 16, 2), make_falls(0, 3, 8, 4));
  EXPECT_EQ(byte_set(r), byte_set({make_falls(0, 3, 16, 2)})) << to_string(r);
}

TEST(IntersectFalls, DisjointFamilies) {
  const FallsSet r = intersect_falls(make_falls(0, 1, 4, 4), make_falls(2, 3, 4, 4));
  EXPECT_TRUE(r.empty());
}

TEST(IntersectFalls, IdenticalFamiliesIntersectToThemselves) {
  const Falls f = make_falls(3, 5, 6, 5);
  const FallsSet r = intersect_falls(f, f);
  EXPECT_EQ(byte_set(r), byte_set({f}));
}

TEST(IntersectFalls, OffsetFamiliesWithLateFirstOverlap) {
  // Regression guard for congruence classes whose first intersecting pair
  // has a segment index of the first family >= lcm/s1.
  const Falls f1 = make_falls(0, 0, 6, 10);   // bytes 0,6,12,...,54
  const Falls f2 = make_falls(2, 2, 2, 10);   // bytes 2,4,...,20
  const FallsSet r = intersect_falls(f1, f2);
  EXPECT_EQ(byte_set(r), (std::set<std::int64_t>{6, 12, 18})) << to_string(r);
}

TEST(IntersectFalls, PropertyMatchesOracle) {
  Rng rng(31415);
  for (int it = 0; it < 300; ++it) {
    const Falls f1 = pfm::testing::random_flat_falls(rng, 150);
    const Falls f2 = pfm::testing::random_flat_falls(rng, 150);
    const FallsSet r = intersect_falls(f1, f2);
    EXPECT_EQ(byte_set(r), intersect_oracle({f1}, {f2}))
        << to_string(f1) << " ∩ " << to_string(f2) << " = " << to_string(r);
  }
}

TEST(IntersectFallsSets, PairwiseUnion) {
  const FallsSet a{make_falls(0, 1, 8, 2), make_falls(4, 5, 8, 2)};
  const FallsSet b{make_falls(0, 5, 8, 2)};
  const FallsSet r = intersect_falls_sets(a, b);
  EXPECT_EQ(byte_set(r), intersect_oracle(a, b));
}

// Paper figure 4, full nested intersection:
// V = {(0,7,16,2,{(0,1,4,2)})}, S = {(0,3,8,4,{(0,0,2,2)})}, pattern size 32.
// V's bytes: {0,1,4,5,16,17,20,21}; S's bytes: {0,2,8,10,16,18,24,26};
// common: {0,16}.
TEST(IntersectNested, PaperFigure4NestedExample) {
  PatternElement v{{make_nested(0, 7, 16, 2, {make_falls(0, 1, 4, 2)})}, 32, 0};
  PatternElement s{{make_nested(0, 3, 8, 4, {make_falls(0, 0, 2, 2)})}, 32, 0};
  const Intersection x = intersect_nested(v, s);
  EXPECT_EQ(x.period, 32);
  EXPECT_EQ(x.origin, 0);
  EXPECT_EQ(byte_set(x.falls), (std::set<std::int64_t>{0, 16})) << to_string(x.falls);

  // Projections (paper figure 4c/4d): both (0,0,4,2) -> bytes {0,4}.
  const Projection pv = project(x, v);
  const Projection ps = project(x, s);
  EXPECT_EQ(byte_set(pv.falls), (std::set<std::int64_t>{0, 4})) << to_string(pv.falls);
  EXPECT_EQ(byte_set(ps.falls), (std::set<std::int64_t>{0, 4})) << to_string(ps.falls);
  EXPECT_EQ(pv.period, 8);
  EXPECT_EQ(ps.period, 8);
}

TEST(IntersectNested, IdenticalElementsIntersectFully) {
  PatternElement v{{make_nested(0, 3, 8, 2, {make_falls(0, 0, 2, 2)})}, 16, 0};
  const Intersection x = intersect_nested(v, v);
  EXPECT_EQ(byte_set(x.falls), byte_set(v.falls));
  const Projection p = project(x, v);
  // Projection of a full self-intersection is the contiguous range.
  EXPECT_EQ(byte_set(p.falls), (std::set<std::int64_t>{0, 1, 2, 3}));
}

TEST(IntersectNested, DifferentPatternSizesUseLcmPeriod) {
  // P1: element {0,1} of period 4; P2: element {0,1,2} of period 6.
  PatternElement a{{make_falls(0, 1, 4, 1)}, 4, 0};
  PatternElement b{{make_falls(0, 2, 6, 1)}, 6, 0};
  const Intersection x = intersect_nested(a, b);
  EXPECT_EQ(x.period, 12);
  // Tiling of a: {0,1,4,5,8,9}; tiling of b: {0,1,2,6,7,8}; common {0,1,8}.
  EXPECT_EQ(byte_set(x.falls), (std::set<std::int64_t>{0, 1, 8})) << to_string(x.falls);
}

TEST(IntersectNested, DisplacementsAlignAtMax) {
  // Same pattern, but one starts 2 bytes later: phases shift accordingly.
  PatternElement a{{make_falls(0, 1, 4, 1)}, 4, 0};
  PatternElement b{{make_falls(0, 1, 4, 1)}, 4, 2};
  const Intersection x = intersect_nested(a, b);
  EXPECT_EQ(x.origin, 2);
  // In file space: a covers {0,1,4,5,8,9,...}, b covers {2,3,6,7,10,11,...}.
  // Common: none.
  EXPECT_TRUE(x.falls.empty()) << to_string(x.falls);
}

TEST(IntersectNested, PartialDisplacementOverlap) {
  PatternElement a{{make_falls(0, 2, 4, 1)}, 4, 0};  // file {0,1,2, 4,5,6, ...}
  PatternElement b{{make_falls(0, 2, 4, 1)}, 4, 1};  // file {1,2,3, 5,6,7, ...}
  const Intersection x = intersect_nested(a, b);
  EXPECT_EQ(x.origin, 1);
  // Common file bytes: {1,2, 5,6, ...} -> relative to origin 1: {0,1} mod 4.
  EXPECT_EQ(byte_set(x.falls), (std::set<std::int64_t>{0, 1})) << to_string(x.falls);
  EXPECT_EQ(x.period, 4);
}

TEST(IntersectNested, EmptyElementGivesEmptyIntersection) {
  PatternElement a{{}, 4, 0};
  PatternElement b{{make_falls(0, 1, 4, 1)}, 4, 0};
  EXPECT_TRUE(intersect_nested(a, b).empty());
  EXPECT_TRUE(intersect_nested(b, a).empty());
}

TEST(IntersectNested, RejectsElementLargerThanPattern) {
  PatternElement bad{{make_falls(0, 7, 8, 1)}, 4, 0};
  PatternElement ok{{make_falls(0, 1, 4, 1)}, 4, 0};
  EXPECT_THROW(intersect_nested(bad, ok), std::invalid_argument);
}

// The heavy property: nested intersection with random patterns, periods and
// displacements agrees with brute-force intersection of the two tilings.
TEST(IntersectNested, PropertyMatchesTiledOracle) {
  Rng rng(2718);
  for (int it = 0; it < 120; ++it) {
    const int h1 = static_cast<int>(rng.uniform(1, 3));
    const int h2 = static_cast<int>(rng.uniform(1, 3));
    const FallsSet s1 = pfm::testing::random_falls_set(rng, 60, h1, 2);
    const FallsSet s2 = pfm::testing::random_falls_set(rng, 60, h2, 2);
    const std::int64_t t1 = set_extent(s1) + rng.uniform(0, 6);
    const std::int64_t t2 = set_extent(s2) + rng.uniform(0, 6);
    const std::int64_t d1 = rng.uniform(0, 5);
    const std::int64_t d2 = rng.uniform(0, 5);
    PatternElement e1{s1, t1, d1};
    PatternElement e2{s2, t2, d2};
    const Intersection x = intersect_nested(e1, e2);

    // Oracle: tile both elements in file space and intersect, restricted to
    // one common period after the aligned origin.
    const std::int64_t limit = x.origin + x.period;
    const auto tiled1 = tiled_byte_set(s1, t1, d1, limit);
    const auto tiled2 = tiled_byte_set(s2, t2, d2, limit);
    std::set<std::int64_t> expected;
    for (std::int64_t b : tiled1)
      if (b >= x.origin && tiled2.count(b)) expected.insert(b - x.origin);

    EXPECT_EQ(byte_set(x.falls), expected)
        << "s1=" << to_string(s1) << " T1=" << t1 << " d1=" << d1
        << "  s2=" << to_string(s2) << " T2=" << t2 << " d2=" << d2
        << "  got " << to_string(x.falls);
  }
}

// Projection property: PROJ_e maps the intersection onto exactly the ranks
// the element's MAP assigns to the common bytes, for both elements, over
// displacements, nesting heights and pattern sizes whose common period often
// spans several pattern periods of either element.
TEST(Project, PropertyMatchesMapOracle) {
  Rng rng(1618);
  int checked = 0;
  for (int it = 0; it < 600; ++it) {
    const int h1 = static_cast<int>(rng.uniform(1, 3));
    const int h2 = static_cast<int>(rng.uniform(1, 3));
    const FallsSet s1 = pfm::testing::random_falls_set(rng, 50, h1, 3);
    const FallsSet s2 = pfm::testing::random_falls_set(rng, 50, h2, 3);
    const PatternElement e1{s1, set_extent(s1) + rng.uniform(0, 6), rng.uniform(0, 9)};
    const PatternElement e2{s2, set_extent(s2) + rng.uniform(0, 6), rng.uniform(0, 9)};
    const Intersection x = intersect_nested(e1, e2);
    if (x.falls.empty()) continue;
    for (const PatternElement* e : {&e1, &e2}) {
      const ElementRef ref{&e->falls, e->displacement, e->pattern_size};
      const Projection p = project(x, *e);
      EXPECT_NO_THROW(validate_falls_set(p.falls)) << to_string(p.falls);
      std::set<std::int64_t> expected;
      for (std::int64_t b : byte_set(x.falls))
        expected.insert(map_to_element(ref, x.origin + b));
      EXPECT_EQ(byte_set(p.falls), expected)
          << to_string(s1) << " T1=" << e1.pattern_size << " d1=" << e1.displacement
          << " ∩ " << to_string(s2) << " T2=" << e2.pattern_size
          << " d2=" << e2.displacement << " onto element " << (e == &e1 ? 1 : 2)
          << ": got " << to_string(p.falls);
      EXPECT_EQ(projection_size(p), set_size(x.falls));
      ++checked;
    }
  }
  EXPECT_GT(checked, 400);
}

// A member whose block spans several element blocks has no image of the
// element's block shape, so PROJ takes the exact run path for it.
TEST(Project, MemberSpanningElementBlocksTakesRunPath) {
  const PatternElement e{{make_falls(0, 1, 4, 2)}, 8, 0};  // bytes 0,1,4,5
  Intersection x;
  x.falls = {make_nested(0, 5, 6, 1, {make_falls(0, 1, 4, 2)})};
  x.period = 8;
  const Projection p = project(x, e);
  EXPECT_EQ(p.falls, (FallsSet{make_falls(0, 3, 4, 1)})) << to_string(p.falls);
  EXPECT_EQ(p.period, 4);
}

TEST(IntersectAux, WindowLengthMismatchThrows) {
  EXPECT_THROW(
      intersect_aux({make_falls(0, 1, 4, 1)}, 0, 3, {make_falls(0, 1, 4, 1)}, 0, 4),
      std::invalid_argument);
}

}  // namespace
}  // namespace pfm
