// Cross-module stress: intersections and redistributions between patterns
// produced by the HPF layout builders — the structured, deeply nested
// FALLS the paper's algorithms were designed for (multidimensional array
// partitions), checked against brute-force ownership oracles.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "falls/compress.h"
#include "falls/print.h"
#include "falls/serialize.h"
#include "file_model/file.h"
#include "intersect/intersect.h"
#include "intersect/project.h"
#include "layout/array_layout.h"
#include "layout/partitions2d.h"
#include "redist/execute.h"
#include "redist/gather_scatter.h"
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

/// Layout pairs of the HPF builders: 2-D and 3-D arrays, BLOCK, CYCLIC
/// and BLOCK-CYCLIC axes, grids that differ in shape.
const LayoutPair kLayoutPairs[] = {
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
               "deep3d_mixed"}};

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

/// The elements of a 2-D block-cyclic partition of a 1024 x 1024 byte
/// matrix, as perfbench builds its views and layouts: BLOCK on an axis whose
/// blocks cover it, CYCLIC(block) otherwise, no distribution on an axis of
/// one.
std::vector<FallsSet> grid(std::int64_t rows, std::int64_t cols,
                           std::int64_t block_rows, std::int64_t block_cols) {
  const auto dist = [](std::int64_t procs, std::int64_t block) {
    if (procs == 1) return Dist::none();
    if (block * procs == 1024) return Dist::block_dist();
    return Dist::block_cyclic(block);
  };
  const std::vector<Dist> d = {dist(rows, block_rows), dist(cols, block_cols)};
  return layout_all(ArrayDesc{{1024, 1024}, 1}, d, GridDesc{{rows, cols}});
}

/// Appends the serialized V∩S (period, origin, FALLS) and the two
/// projections, in encode_projection's wire form, of every element pair.
void append_golden(std::ostream& os, const std::string& label,
                   const PartitioningPattern& p1, const PartitioningPattern& p2) {
  for (std::size_t i = 0; i < p1.element_count(); ++i) {
    for (std::size_t j = 0; j < p2.element_count(); ++j) {
      const PatternElement a = p1.pattern_element(i);
      const PatternElement b = p2.pattern_element(j);
      const Intersection x = intersect_nested(a, b);
      const std::string key = label + " " + std::to_string(i) + " " + std::to_string(j);
      os << key << " x " << x.period << ' ' << x.origin << ' ' << serialize(x.falls)
         << '\n';
      if (x.empty()) continue;
      const Projection pa = project(x, a);
      const Projection pb = project(x, b);
      os << key << " p1 " << encode_projection(pa.falls, pa.period) << '\n';
      os << key << " p2 " << encode_projection(pb.falls, pb.period) << '\n';
    }
  }
}

/// The view algebra's output for every view perfbench sets (the whole
/// file, the row-block I/O view and view_churn's three shapes) against both
/// of its physical layouts (p1 is PROJ_V, p2 the PROJ_S meta requests
/// carry), for every LayoutIntersect pair, and for two of those pairs at
/// unequal displacements.
std::string golden_text() {
  std::ostringstream os;
  using Named = std::pair<const char*, std::vector<FallsSet>>;
  const Named views[] = {{"whole", {{make_falls(0, (1 << 20) - 1, 1 << 20, 1)}}},
                         {"rows2", grid(2, 1, 512, 1024)},
                         {"cols4", grid(1, 4, 1024, 256)},
                         {"squares4", grid(2, 2, 512, 512)},
                         {"cyclic2x2b64", grid(2, 2, 64, 64)}};
  const Named layouts[] = {{"squares4", grid(2, 2, 512, 512)},
                           {"rows4", grid(4, 1, 256, 1024)}};
  for (const auto& [layout, subfiles] : layouts)
    for (const auto& [view, elements] : views)
      append_golden(os, std::string("perfbench ") + view + " " + layout,
                    PartitioningPattern(elements, 0), PartitioningPattern(subfiles, 0));
  for (const LayoutPair& c : kLayoutPairs)
    append_golden(os, std::string("pair ") + c.name,
                  PartitioningPattern(layout_all(c.array, c.d1, c.g1), 0),
                  PartitioningPattern(layout_all(c.array, c.d2, c.g2), 0));
  for (const LayoutPair& c : {kLayoutPairs[0], kLayoutPairs[2]})
    for (const auto& [d1, d2] : {std::pair{0, 5}, {7, 0}, {3, 3}})
      append_golden(os,
                    std::string("displaced ") + c.name + " " + std::to_string(d1) +
                        " " + std::to_string(d2),
                    PartitioningPattern(layout_all(c.array, c.d1, c.g1), d1),
                    PartitioningPattern(layout_all(c.array, c.d2, c.g2), d2));
  return os.str();
}

// tests/data/set_view_golden.txt holds golden_text() as the algebra wrote
// it before it borrowed its inputs. PROJ_S metas are server cache keys and
// manifests hold serialize output, so a change to this text, however
// equivalent the bytes it denotes, is a change of format. On a mismatch
// the new text is written to set_view_golden.actual.txt in the working
// directory.
TEST(SetViewGolden, AlgebraOutputIsByteIdentical) {
  const std::string got = golden_text();
  std::ifstream in(std::string(PFM_TEST_DATA_DIR) + "/set_view_golden.txt");
  std::stringstream want;
  want << in.rdbuf();
  if (in && got == want.str()) return;
  std::ofstream("set_view_golden.actual.txt") << got;
  ASSERT_TRUE(in) << "missing " << PFM_TEST_DATA_DIR << "/set_view_golden.txt";
  std::istringstream w(want.str());
  std::istringstream g(got);
  std::string wl;
  std::string gl;
  for (int line = 1;; ++line) {
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    if (!more_w && !more_g) break;
    ASSERT_EQ(more_w ? wl : "<end>", more_g ? gl : "<end>") << "line " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, LayoutIntersect, ::testing::ValuesIn(kLayoutPairs),
    [](const ::testing::TestParamInfo<LayoutPair>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace pfm
