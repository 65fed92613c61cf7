// Tests for the redistribution planner/executor, the naive per-byte
// baseline, and the matching-degree metric (paper sections 3, 7, 9).
#include <gtest/gtest.h>

#include <utility>

#include "clusterfile/mover.h"
#include "falls/print.h"
#include "file_model/file.h"
#include "layout/array_layout.h"
#include "layout/partitions2d.h"
#include "redist/execute.h"
#include "redist/matching.h"
#include "redist/naive.h"
#include "tests/test_util.h"

namespace pfm {
namespace {

PartitioningPattern pattern2d(Partition2D p, std::int64_t n, std::int64_t parts) {
  auto elems = partition2d_all(p, n, n, parts);
  return make_pattern({elems.begin(), elems.end()});
}

/// End-to-end check: split a flat image by `from`, redistribute, and verify
/// the result equals splitting the same image by `to`.
void check_redist(const PartitioningPattern& from, const PartitioningPattern& to,
                  std::int64_t file_size, std::uint64_t seed) {
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(file_size), seed);
  ParallelFile src_file(from, file_size);
  ParallelFile dst_file(to, file_size);
  const auto src = src_file.split(image);
  const auto expected = dst_file.split(image);

  std::vector<Buffer> dst;
  const RedistStats stats = redistribute(from, to, src, dst, file_size);
  ASSERT_EQ(dst.size(), expected.size());
  for (std::size_t j = 0; j < dst.size(); ++j)
    EXPECT_TRUE(equal_bytes(dst[j], expected[j])) << "element " << j;
  EXPECT_GE(stats.bytes_moved, 0);
}

TEST(Redist, RowToColumnBlocks) {
  check_redist(pattern2d(Partition2D::kRowBlocks, 16, 4),
               pattern2d(Partition2D::kColumnBlocks, 16, 4), 256, 1);
}

TEST(Redist, RowToColumnStatsCountMessagesAndRuns) {
  // Every row block shares one 4x4 tile with every column block: 16
  // transfers of 16 bytes. A tile is 4 runs of 4 bytes in its row block
  // (one per matrix row) and one 16-byte run in its column block.
  const PartitioningPattern from = pattern2d(Partition2D::kRowBlocks, 16, 4);
  const PartitioningPattern to = pattern2d(Partition2D::kColumnBlocks, 16, 4);
  const Buffer image = make_pattern_buffer(256, 9);
  std::vector<Buffer> dst;
  const RedistStats stats =
      redistribute(from, to, ParallelFile(from, 256).split(image), dst, 256);
  EXPECT_EQ(stats.bytes_moved, 256);
  EXPECT_EQ(stats.messages, 16);
  EXPECT_EQ(stats.copy_runs, 16 * (4 + 1));
}

TEST(Redist, ColumnToSquareBlocks) {
  check_redist(pattern2d(Partition2D::kColumnBlocks, 16, 4),
               pattern2d(Partition2D::kSquareBlocks, 16, 4), 256, 2);
}

TEST(Redist, IdentityRedistributionIsLocal) {
  const PartitioningPattern p = pattern2d(Partition2D::kRowBlocks, 16, 4);
  const RedistPlan plan = build_plan(p, p);
  // Perfect match: every element exchanges only with itself, one run each.
  EXPECT_EQ(plan.transfers.size(), 4u);
  for (const Transfer& t : plan.transfers) {
    EXPECT_EQ(t.src_elem, t.dst_elem);
    EXPECT_EQ(t.runs_per_period, 1);
  }
  check_redist(p, p, 256, 3);
}

TEST(Redist, DifferentElementCounts) {
  // 4 row blocks -> 2 row blocks of a 16x16 matrix.
  check_redist(pattern2d(Partition2D::kRowBlocks, 16, 4),
               pattern2d(Partition2D::kRowBlocks, 16, 2), 256, 4);
  check_redist(pattern2d(Partition2D::kColumnBlocks, 16, 2),
               pattern2d(Partition2D::kSquareBlocks, 16, 4), 256, 5);
}

TEST(Redist, BlockToCyclicOneDimensional) {
  const ArrayDesc a{{64}, 1};
  const Dist block[1] = {Dist::block_dist()};
  const Dist cyc[1] = {Dist::block_cyclic(4)};
  auto be = layout_all(a, block, GridDesc{{4}});
  auto ce = layout_all(a, cyc, GridDesc{{4}});
  check_redist(make_pattern({be.begin(), be.end()}),
               make_pattern({ce.begin(), ce.end()}), 64, 6);
}

TEST(Redist, PartialTailPeriod) {
  // File not a multiple of the pattern period: the tail must still move.
  const PartitioningPattern from =
      make_pattern({{make_falls(0, 1, 4, 1)}, {make_falls(2, 3, 4, 1)}});
  const PartitioningPattern to =
      make_pattern({{make_falls(0, 0, 2, 2)}, {make_falls(1, 1, 2, 2)}});
  for (std::int64_t size : {0, 1, 3, 4, 5, 7, 9, 11}) {
    check_redist(from, to, size, 7 + static_cast<std::uint64_t>(size));
  }
}

// plan_rebalance prices a subfile copy at PartitioningPattern::element_bytes.
// Old and new placements partition the file with one pattern, so that must
// equal the diagonal INTERSECT/PROJ transfer of build_plan(physical,
// physical) over the file prefix: whole common periods, plus the common
// set's bytes inside a partial last period.
TEST(Redist, DiagonalPlanLiveBytesMatchRebalanceMinima) {
  const std::int64_t n = 16;
  const std::vector<Dist> cyclic = {Dist::block_cyclic(3), Dist::block_cyclic(2)};
  const std::vector<std::vector<FallsSet>> layouts = {
      partition2d_all(Partition2D::kRowBlocks, n, n, 4),
      partition2d_all(Partition2D::kColumnBlocks, n, n, 4),
      partition2d_all(Partition2D::kSquareBlocks, n, n, 4),
      layout_all(ArrayDesc{{n, n}, 1}, cyclic, GridDesc{{2, 2}})};
  for (const std::vector<FallsSet>& elems : layouts) {
    for (const std::int64_t disp : {0, 5}) {
      const PartitioningPattern phys(elems, disp);
      const RedistPlan plan = build_plan(phys, phys);
      ASSERT_EQ(plan.transfers.size(), phys.element_count());
      // Every subfile moves from node 10 to node 11.
      const std::vector<std::vector<int>> current(phys.element_count(), {10});
      const std::vector<std::vector<int>> target(phys.element_count(), {11});
      for (const std::int64_t size :
           {disp, disp + 1, disp + 37, disp + n * n, disp + n * n + 100,
            disp + 3 * n * n - 1}) {
        const RebalancePlan rp = plan_rebalance(current, target, phys, size);
        ASSERT_EQ(rp.entries.size(), phys.element_count());
        std::int64_t total = 0;
        for (const Transfer& t : plan.transfers) {
          ASSERT_EQ(t.src_elem, t.dst_elem);
          const std::int64_t span = size - plan.origin;
          std::int64_t bytes = span / plan.period * t.bytes_per_period;
          if (span % plan.period > 0)
            bytes += IndexSet(t.common, plan.period)
                         .count_in(0, span % plan.period - 1);
          EXPECT_EQ(bytes, phys.element_bytes(t.src_elem, size))
              << "subfile " << t.src_elem << ", size " << size;
          EXPECT_EQ(bytes, rp.entries[t.src_elem].min_bytes)
              << "subfile " << t.src_elem << ", size " << size;
          total += bytes;
        }
        EXPECT_EQ(total, size - disp);
        EXPECT_EQ(rp.min_bytes_total, size - disp);
      }
    }
  }
}

TEST(Redist, DisplacementMismatchRejected) {
  const PartitioningPattern a =
      make_pattern({{make_falls(0, 3, 4, 1)}}, 0);
  const PartitioningPattern b =
      make_pattern({{make_falls(0, 3, 4, 1)}}, 2);
  std::vector<Buffer> src{Buffer(8)}, dst;
  EXPECT_THROW(redistribute(a, b, src, dst, 8), std::invalid_argument);
}

TEST(Redist, PropertyRandomChunkTilings) {
  Rng rng(606);
  for (int it = 0; it < 20; ++it) {
    const std::int64_t T1 = rng.uniform(2, 24);
    const std::int64_t T2 = rng.uniform(2, 24);
    auto chunks = [&](std::int64_t T) {
      std::vector<FallsSet> elems;
      std::int64_t cursor = 0;
      while (cursor < T) {
        const std::int64_t len = std::min<std::int64_t>(rng.uniform(1, 6), T - cursor);
        elems.push_back({make_falls(cursor, cursor + len - 1, len, 1)});
        cursor += len;
      }
      return elems;
    };
    const PartitioningPattern from = make_pattern(chunks(T1));
    const PartitioningPattern to = make_pattern(chunks(T2));
    const std::int64_t file_size = rng.uniform(0, 4 * std::max(T1, T2));
    check_redist(from, to, file_size, static_cast<std::uint64_t>(it) + 100);
  }
}

// A source element whose members interleave: {(0,0,6,2), (3,3,4,3)} holds
// bytes 0,3,6,7,11 of a 12-byte period. The plan sees it recompressed into
// file order; both directions must match the naive per-byte baseline.
TEST(Redist, InterleavedElementMatchesNaiveBaseline) {
  const PartitioningPattern mixed = make_pattern({{make_falls(0, 0, 6, 2), make_falls(3, 3, 4, 3)},
                                                  {make_falls(1, 2, 3, 2)},
                                                  {make_falls(8, 10, 3, 1)}});
  const PartitioningPattern halves =
      make_pattern({{make_falls(0, 3, 8, 1)}, {make_falls(4, 7, 8, 1)}});
  const std::int64_t file_size = 100;
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(file_size), 21);
  for (const auto& [from, to] : {std::pair{&mixed, &halves}, std::pair{&halves, &mixed}}) {
    const auto src = ParallelFile(*from, file_size).split(image);
    std::vector<Buffer> fast, slow;
    redistribute(*from, *to, src, fast, file_size);
    naive_redistribute(*from, *to, src, slow, file_size);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t j = 0; j < fast.size(); ++j)
      EXPECT_TRUE(equal_bytes(fast[j], slow[j])) << "element " << j;
    check_redist(*from, *to, file_size, 21);
  }
}

TEST(NaiveBaseline, ProducesIdenticalResults) {
  const PartitioningPattern from = pattern2d(Partition2D::kRowBlocks, 8, 4);
  const PartitioningPattern to = pattern2d(Partition2D::kColumnBlocks, 8, 4);
  const Buffer image = make_pattern_buffer(64, 11);
  ParallelFile f(from, 64);
  const auto src = f.split(image);

  std::vector<Buffer> fast, slow;
  redistribute(from, to, src, fast, 64);
  const RedistStats stats = naive_redistribute(from, to, src, slow, 64);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t j = 0; j < fast.size(); ++j)
    EXPECT_TRUE(equal_bytes(fast[j], slow[j]));
  EXPECT_EQ(stats.messages, 64);  // one "message" per byte
}

TEST(Matching, PerfectMatchScoresHighest) {
  const PartitioningPattern r = pattern2d(Partition2D::kRowBlocks, 16, 4);
  const PartitioningPattern c = pattern2d(Partition2D::kColumnBlocks, 16, 4);
  const PartitioningPattern b = pattern2d(Partition2D::kSquareBlocks, 16, 4);

  const MatchingDegree rr = matching_degree(r, r);
  const MatchingDegree br = matching_degree(b, r);
  const MatchingDegree cr = matching_degree(c, r);

  EXPECT_DOUBLE_EQ(rr.locality, 1.0);
  EXPECT_EQ(rr.messages, 4);
  // The paper's ordering (Table 1): row/row matches best, square blocks in
  // between, column blocks worst.
  EXPECT_GT(rr.score(), br.score());
  EXPECT_GT(br.score(), cr.score());
  // Fragmentation ordering: c/r produces the most, r/r the fewest runs.
  EXPECT_LT(rr.runs_per_period, br.runs_per_period);
  EXPECT_LT(br.runs_per_period, cr.runs_per_period);
}

TEST(Matching, MeanRunBytesReflectGranularity) {
  const PartitioningPattern r = pattern2d(Partition2D::kRowBlocks, 16, 4);
  const PartitioningPattern c = pattern2d(Partition2D::kColumnBlocks, 16, 4);
  const MatchingDegree rr = matching_degree(r, r);
  const MatchingDegree cr = matching_degree(c, r);
  // Perfect match: one 64-byte run per element. Column/row: 4-byte fragments.
  EXPECT_DOUBLE_EQ(rr.mean_run_bytes, 64.0);
  EXPECT_DOUBLE_EQ(cr.mean_run_bytes, 4.0);
}

}  // namespace
}  // namespace pfm
