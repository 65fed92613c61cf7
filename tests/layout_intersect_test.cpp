// Cross-module stress: intersections and redistributions between patterns
// produced by the HPF layout builders — the structured, deeply nested
// FALLS the paper's algorithms were designed for (multidimensional array
// partitions), checked against brute-force ownership oracles.
#include <gtest/gtest.h>

#include <set>

#include "falls/compress.h"
#include "falls/print.h"
#include "file_model/file.h"
#include "intersect/intersect.h"
#include "intersect/project.h"
#include "layout/array_layout.h"
#include "layout/partitions2d.h"
#include "redist/execute.h"
#include "tests/test_util.h"

namespace pfm {
namespace {

using ::pfm::testing::byte_set;

struct LayoutPair {
  ArrayDesc array;
  std::vector<Dist> d1, d2;
  GridDesc g1, g2;
  const char* name;
};

class LayoutIntersect : public ::testing::TestWithParam<LayoutPair> {};

TEST_P(LayoutIntersect, PairwiseIntersectionsMatchOwnershipOracle) {
  const LayoutPair& c = GetParam();
  const auto e1 = layout_all(c.array, c.d1, c.g1);
  const auto e2 = layout_all(c.array, c.d2, c.g2);
  const std::int64_t bytes = array_bytes(c.array);

  for (std::size_t i = 0; i < e1.size(); ++i) {
    for (std::size_t j = 0; j < e2.size(); ++j) {
      PatternElement a{e1[i], bytes, 0};
      PatternElement b{e2[j], bytes, 0};
      const Intersection x = intersect_nested(a, b);
      std::set<std::int64_t> expected;
      for (std::int64_t off = 0; off < bytes; ++off) {
        if (layout_owner(c.array, c.d1, c.g1, off) == static_cast<std::int64_t>(i) &&
            layout_owner(c.array, c.d2, c.g2, off) == static_cast<std::int64_t>(j))
          expected.insert(off);
      }
      ASSERT_EQ(byte_set(x.falls), expected)
          << c.name << " pair (" << i << "," << j << ")";
      if (!x.falls.empty()) {
        const Projection pa = project(x, a);
        ASSERT_EQ(set_size(pa.falls), set_size(x.falls));
      }
    }
  }
}

TEST_P(LayoutIntersect, FullRedistributionIsByteExact) {
  const LayoutPair& c = GetParam();
  auto e1 = layout_all(c.array, c.d1, c.g1);
  auto e2 = layout_all(c.array, c.d2, c.g2);
  const std::int64_t bytes = array_bytes(c.array);
  const PartitioningPattern from({e1.begin(), e1.end()}, 0);
  const PartitioningPattern to({e2.begin(), e2.end()}, 0);
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(bytes), 4242);
  const auto src = ParallelFile(from, bytes).split(image);
  const auto expected = ParallelFile(to, bytes).split(image);
  std::vector<Buffer> dst;
  redistribute(from, to, src, dst, bytes);
  for (std::size_t k = 0; k < expected.size(); ++k)
    ASSERT_TRUE(equal_bytes(dst[k], expected[k])) << c.name << " element " << k;
}

/// FALLS node counts of V∩S, PROJ_V and PROJ_S for every element of the
/// evaluation's views (row blocks x2, column and square blocks x4,
/// block-cyclic(N/16) on a 2x2 grid) against every subfile of the r, c and
/// b layouts x4, on an N x N byte matrix.
std::vector<std::int64_t> view_set_node_counts(std::int64_t n) {
  const ArrayDesc a{{n, n}, 1};
  const std::vector<Dist> cyclic = {Dist::block_cyclic(n / 16), Dist::block_cyclic(n / 16)};
  std::vector<FallsSet> views = partition2d_all(Partition2D::kRowBlocks, n, n, 2);
  for (const Partition2D p : {Partition2D::kColumnBlocks, Partition2D::kSquareBlocks})
    for (FallsSet& v : partition2d_all(p, n, n, 4)) views.push_back(std::move(v));
  for (FallsSet& v : layout_all(a, cyclic, GridDesc{{2, 2}})) views.push_back(std::move(v));
  std::vector<std::int64_t> out;
  for (const FallsSet& view : views) {
    for (const Partition2D p : {Partition2D::kRowBlocks, Partition2D::kColumnBlocks,
                                Partition2D::kSquareBlocks}) {
      for (const FallsSet& sub : partition2d_all(p, n, n, 4)) {
        const PatternElement v{view, n * n, 0};
        const PatternElement s{sub, n * n, 0};
        const Intersection x = intersect_nested(v, s);
        out.push_back(node_count(x.falls));
        if (x.empty()) continue;
        out.push_back(node_count(project(x, v).falls));
        out.push_back(node_count(project(x, s).falls));
      }
    }
  }
  return out;
}

// Paper section 8.2 finds the view-setting time t_i roughly independent of
// the matrix size; that holds when INTERSECT and PROJ work per FALLS member
// rather than per matrix row, so no result may grow with N.
TEST(LayoutIntersectScaling, NodeCountsDoNotGrowWithMatrixSize) {
  EXPECT_EQ(view_set_node_counts(256), view_set_node_counts(4096));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, LayoutIntersect,
    ::testing::Values(
        LayoutPair{{{8, 8}, 1},
                   {Dist::block_dist(), Dist::none()},
                   {Dist::none(), Dist::block_dist()},
                   {{2, 1}},
                   {{1, 2}},
                   "rows2_vs_cols2"},
        LayoutPair{{{8, 8}, 1},
                   {Dist::cyclic(), Dist::none()},
                   {Dist::block_dist(), Dist::block_dist()},
                   {{2, 1}},
                   {{2, 2}},
                   "cyclicrows_vs_squares"},
        LayoutPair{{{12, 6}, 1},
                   {Dist::block_cyclic(2), Dist::none()},
                   {Dist::none(), Dist::block_cyclic(3)},
                   {{3, 1}},
                   {{1, 2}},
                   "bc2rows_vs_bc3cols"},
        LayoutPair{{{6, 6}, 2},
                   {Dist::block_dist(), Dist::cyclic()},
                   {Dist::cyclic(), Dist::block_dist()},
                   {{2, 3}},
                   {{3, 2}},
                   "mixed_grids_elem2"},
        LayoutPair{{{4, 4, 4}, 1},
                   {Dist::block_dist(), Dist::none(), Dist::none()},
                   {Dist::none(), Dist::none(), Dist::block_dist()},
                   {{2, 1, 1}},
                   {{1, 1, 2}},
                   "slabs3d_vs_pencils3d"},
        LayoutPair{{{4, 4, 4}, 1},
                   {Dist::cyclic(), Dist::block_dist(), Dist::none()},
                   {Dist::block_cyclic(2), Dist::none(), Dist::cyclic()},
                   {{2, 2, 1}},
                   {{2, 1, 2}},
                   "deep3d_mixed"}),
    [](const ::testing::TestParamInfo<LayoutPair>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace pfm
