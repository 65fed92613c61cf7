// Tests for the scatter/gather procedures (paper section 8).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "falls/print.h"
#include "redist/gather_scatter.h"
#include "tests/test_util.h"
#include "util/buffer.h"

namespace pfm {
namespace {

using ::pfm::testing::byte_set;

TEST(IndexSet, BasicProperties) {
  const IndexSet idx({make_falls(0, 1, 4, 2)}, 8);
  EXPECT_EQ(idx.size(), 4);
  EXPECT_EQ(idx.period(), 8);
  EXPECT_EQ(idx.materialize_in(0, idx.period() - 1).runs.size(), 2u);
  EXPECT_THROW(IndexSet({make_falls(0, 9, 10, 1)}, 8), std::invalid_argument);
  EXPECT_THROW(IndexSet({}, 0), std::invalid_argument);
}

TEST(IndexSet, CountInTiledRanges) {
  // Pattern {0,1,4,5} period 8, tiled: members 0,1,4,5, 8,9,12,13, ...
  const IndexSet idx({make_falls(0, 1, 4, 2)}, 8);
  EXPECT_EQ(idx.count_in(0, 7), 4);
  EXPECT_EQ(idx.count_in(0, 15), 8);
  EXPECT_EQ(idx.count_in(2, 3), 0);
  EXPECT_EQ(idx.count_in(1, 4), 2);
  EXPECT_EQ(idx.count_in(5, 9), 3);
  EXPECT_EQ(idx.count_in(6, 5), 0);  // inverted
  EXPECT_EQ(idx.count_in(-5, 0), 1);  // clipped at zero
}

TEST(IndexSet, ForEachRunInClipsAndTiles) {
  const IndexSet idx({make_falls(0, 1, 4, 2)}, 8);
  std::vector<LineSegment> got;
  idx.for_each_run_in(1, 12, [&](std::int64_t l, std::int64_t r) {
    got.push_back({l, r});
  });
  EXPECT_EQ(got, (std::vector<LineSegment>{{1, 1}, {4, 5}, {8, 9}, {12, 12}}));
}

TEST(IndexSet, ContiguousDetection) {
  const IndexSet dense({make_falls(0, 7, 8, 1)}, 8);
  EXPECT_TRUE(dense.materialize_in(0, 7).contiguous);
  EXPECT_TRUE(dense.materialize_in(0, 23).contiguous);  // tiles seamlessly
  const IndexSet sparse({make_falls(0, 1, 4, 2)}, 8);
  EXPECT_TRUE(sparse.materialize_in(0, 1).contiguous);
  EXPECT_FALSE(sparse.materialize_in(0, 5).contiguous);
  // An empty selection is contiguous.
  EXPECT_TRUE(sparse.materialize_in(2, 3).contiguous);
}

TEST(GatherScatter, PaperFigure5Gather) {
  // Figure 5: gather between v=0 and w=4 using PROJ_V = {(0,0,4,2)} from an
  // 8-byte view buffer picks view bytes 0 and 4.
  const IndexSet idx({make_falls(0, 0, 4, 2)}, 8);
  const Buffer src = make_pattern_buffer(8, 1);
  Buffer dest(2);
  EXPECT_EQ(gather(dest, std::span<const std::byte>(src).first(5), 0, 4, idx), 2);
  EXPECT_EQ(dest[0], src[0]);
  EXPECT_EQ(dest[1], src[4]);
}

TEST(GatherScatter, ScatterIsInverseOfGather) {
  Rng rng(888);
  for (int it = 0; it < 60; ++it) {
    const FallsSet s = pfm::testing::random_falls_set(rng, 64, 2);
    const std::int64_t period = set_extent(s) + rng.uniform(0, 8);
    const IndexSet idx(s, period);
    const std::int64_t v = rng.uniform(0, period);
    const std::int64_t w = v + rng.uniform(0, 2 * period);
    const std::int64_t n = idx.count_in(v, w);

    const Buffer original = make_pattern_buffer(static_cast<std::size_t>(w - v + 1), 3);
    Buffer packed(static_cast<std::size_t>(n));
    ASSERT_EQ(gather(packed, original, v, w, idx), n);

    Buffer restored(static_cast<std::size_t>(w - v + 1));
    ASSERT_EQ(scatter(restored, packed, v, w, idx), n);

    // Restored must agree with the original on member positions and stay
    // zero elsewhere.
    std::int64_t pos = v;
    for (std::size_t i = 0; i < restored.size(); ++i, ++pos) {
      const bool member = idx.count_in(pos, pos) == 1;
      if (member) {
        EXPECT_EQ(restored[i], original[i]) << "pos " << pos;
      } else {
        EXPECT_EQ(restored[i], std::byte{0}) << "pos " << pos;
      }
    }
  }
}

TEST(GatherScatter, GatherOrderIsIncreasingPosition) {
  const IndexSet idx({make_falls(1, 2, 6, 1), make_falls(4, 4, 6, 1)}, 6);
  Buffer src(12);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i);
  Buffer dest(6);
  ASSERT_EQ(gather(dest, src, 0, 11, idx), 6);
  // Members: 1,2,4, 7,8,10 -> gathered in that order.
  const std::vector<int> expected{1, 2, 4, 7, 8, 10};
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(std::to_integer<int>(dest[i]), expected[i]);
}

TEST(GatherScatter, ValidatesBufferSizes) {
  const IndexSet idx({make_falls(0, 1, 4, 2)}, 8);
  Buffer small(1);
  const Buffer src = make_pattern_buffer(8, 1);
  EXPECT_THROW(gather(small, src, 0, 7, idx), std::out_of_range);
  EXPECT_THROW(gather(small, std::span<const std::byte>(src).first(2), 0, 7, idx),
               std::invalid_argument);
  Buffer dest(8);
  EXPECT_THROW(scatter(dest, small, 0, 7, idx), std::out_of_range);
  EXPECT_THROW(gather(dest, src, 3, 2, idx), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The interval-limited walk against a flat per-period run table (the oracle).

/// Every leaf block of `set`, offset by `base`, by plain recursion over
/// every block of every level.
void flat_blocks(const FallsSet& set, std::int64_t base,
                 std::vector<LineSegment>& out) {
  for (const Falls& f : set)
    for (std::int64_t k = 0; k < f.n; ++k) {
      const std::int64_t b = base + f.l + k * f.s;
      if (f.leaf())
        out.push_back({b, b + f.block_len() - 1});
      else
        flat_blocks(f.inner, b, out);
    }
}

/// The oracle's run table: one period's leaf blocks, sorted and joined into
/// maximal runs.
std::vector<LineSegment> flat_runs(const FallsSet& set) {
  std::vector<LineSegment> blocks;
  flat_blocks(set, 0, blocks);
  std::sort(blocks.begin(), blocks.end(),
            [](const LineSegment& a, const LineSegment& b) { return a.l < b.l; });
  std::vector<LineSegment> runs;
  for (const LineSegment& seg : blocks) {
    if (!runs.empty() && seg.l <= runs.back().r + 1)
      runs.back().r = std::max(runs.back().r, seg.r);
    else
      runs.push_back(seg);
  }
  return runs;
}

/// The run table tiled per period and clipped to [v, w].
std::vector<LineSegment> flat_runs_in(const std::vector<LineSegment>& table,
                                      std::int64_t period, std::int64_t v,
                                      std::int64_t w) {
  std::vector<LineSegment> out;
  v = std::max<std::int64_t>(v, 0);
  if (v > w) return out;
  for (std::int64_t p = v / period; p <= w / period; ++p) {
    const std::int64_t base = p * period;
    for (const LineSegment& run : table) {
      const std::int64_t lo = std::max(run.l, v - base);
      const std::int64_t hi = std::min(run.r, w - base);
      if (lo <= hi) out.push_back({base + lo, base + hi});
    }
  }
  return out;
}

FallsSet random_walk_set(Rng& rng, std::int64_t max_extent, int height);
FallsSet interleaved_pair(Rng& rng, std::int64_t l, std::int64_t room,
                          int height);

/// A family of n blocks of `len` bytes, `s` apart, from l; with height > 1
/// its blocks may carry a random inner set, often an interleaved pair.
Falls random_family(Rng& rng, std::int64_t l, std::int64_t len, std::int64_t s,
                    std::int64_t n, int height) {
  Falls f{l, l + len - 1, s, n, {}};
  if (height > 1 && len >= 2 && rng.uniform(0, 2) > 0) {
    if (rng.uniform(0, 1) == 0) f.inner = interleaved_pair(rng, 0, len, height - 1);
    if (f.inner.empty()) f.inner = random_walk_set(rng, len, height - 1);
  }
  return f;
}

/// Two families sharing a stride, each in its own slot of every stride, so
/// their spans interleave; empty when [l, l + room) cannot hold two strides.
FallsSet interleaved_pair(Rng& rng, std::int64_t l, std::int64_t room,
                          int height) {
  const std::int64_t a = rng.uniform(1, 6);
  const std::int64_t gap = rng.uniform(0, 2);
  const std::int64_t b = rng.uniform(1, 4);
  const std::int64_t s = a + gap + b + rng.uniform(0, 2);
  if (room < 2 * s) return {};
  const std::int64_t nmax = (room - s) / s + 1;
  return {random_family(rng, l, a, s, rng.uniform(2, nmax), height),
          random_family(rng, l + a + gap, b, s, rng.uniform(1, nmax), height)};
}

/// A random valid set inside [0, max_extent) of height <= `height`. Its
/// members (at every level) are dense leaf families (s == block_len),
/// strided families, or interleaved pairs; members may abut or leave gaps.
FallsSet random_walk_set(Rng& rng, std::int64_t max_extent, int height) {
  FallsSet out;
  std::int64_t cursor = 0;
  while (cursor < max_extent && out.size() < 4) {
    const std::int64_t l = cursor + rng.uniform(0, std::min<std::int64_t>(
                                                       2, max_extent - cursor - 1));
    const std::int64_t room = max_extent - l;
    const std::int64_t shape = rng.uniform(0, 2);
    FallsSet pair = shape == 2 ? interleaved_pair(rng, l, room, height) : FallsSet{};
    if (!pair.empty()) {
      for (Falls& f : pair) out.push_back(std::move(f));
    } else {
      // Blocks that may nest are longer, so inner sets have room to
      // interleave too.
      const std::int64_t a =
          rng.uniform(1, std::min<std::int64_t>(room, height > 1 ? 32 : 6));
      std::int64_t s = shape == 0 ? a : a + rng.uniform(0, 4);
      const std::int64_t n = rng.uniform(1, (room - a) / s + 1);
      if (n == 1) s = rng.uniform(1, 2 * a);  // one block takes any stride
      out.push_back(shape == 0 ? Falls{l, l + a - 1, s, n, {}}
                               : random_family(rng, l, a, s, n, height));
    }
    for (const Falls& f : out) cursor = std::max(cursor, falls_extent(f));
    cursor += rng.uniform(0, 2);
  }
  return out;
}

RunList runs_as_list(const std::vector<LineSegment>& runs, std::int64_t v) {
  RunList rl;
  for (const LineSegment& run : runs) {
    if (!rl.runs.empty() &&
        run.l != v + rl.runs.back().rel_lo + rl.runs.back().len)
      rl.contiguous = false;
    rl.runs.push_back({run.l - v, run.size(), rl.bytes});
    rl.bytes += run.size();
  }
  return rl;
}

TEST(IndexSet, WalkMatchesFlatRunTable) {
  Rng rng(20261018);
  constexpr std::int64_t kTop = std::numeric_limits<std::int64_t>::max() - 1;
  int top_interleaved = 0;    // members of the set itself interleave
  int inner_interleaved = 0;  // only the members of some inner set do
  for (int it = 0; it < 600; ++it) {
    const FallsSet set =
        random_walk_set(rng, rng.uniform(1, 128), static_cast<int>(rng.uniform(1, 3)));
    ASSERT_NO_THROW(validate_falls_set(set)) << to_string(set);
    if (!in_file_order(set)) {
      bool top = false;
      for (std::size_t i = 1; i < set.size(); ++i)
        top = top || set[i].l < falls_extent(set[i - 1]);
      ++(top ? top_interleaved : inner_interleaved);
    }
    const std::vector<LineSegment> table = flat_runs(set);
    ASSERT_EQ(set_runs(set), table) << to_string(set);
    const std::int64_t extent = set_extent(set);
    const std::int64_t period = extent + rng.uniform(0, 3 * extent);
    const IndexSet idx(set, period);
    for (int k = 0; k < 8; ++k) {
      std::int64_t v = 0;
      std::int64_t w = 0;
      switch (k % 4) {
        case 0:  // empty
          v = rng.uniform(-period, 3 * period);
          w = v - rng.uniform(1, period);
          break;
        case 1:  // starts below 0
          v = -rng.uniform(1, 3 * period);
          w = rng.uniform(-1, 3 * period);
          break;
        case 2:  // crosses several period boundaries
          v = rng.uniform(0, 3 * period);
          w = v + rng.uniform(period, 4 * period);
          break;
        default:  // ends within one period of INT64_MAX - 1
          w = kTop - rng.uniform(0, period - 1);
          v = w - rng.uniform(0, 3 * period);
          break;
      }
      SCOPED_TRACE(::testing::Message() << to_string(set) << " period " << period
                                        << " [" << v << ", " << w << "]");
      const std::vector<LineSegment> want = flat_runs_in(table, period, v, w);
      std::vector<LineSegment> got;
      idx.for_each_run_in(v, w, [&](std::int64_t l, std::int64_t r) {
        got.push_back({l, r});
      });
      ASSERT_EQ(got, want);
      const RunList expect = runs_as_list(want, v);
      const RunList rl = idx.materialize_in(v, w);
      EXPECT_EQ(rl.runs, expect.runs);
      EXPECT_EQ(rl.bytes, expect.bytes);
      EXPECT_EQ(rl.contiguous, expect.contiguous);
      EXPECT_EQ(idx.count_in(v, w), expect.bytes);
    }
  }
  // The generator reaches the sorted path from both kinds of set.
  EXPECT_GT(top_interleaved, 40);
  EXPECT_GT(inner_interleaved, 20);
}

TEST(IndexSet, HostileProjectionCostsItsNodes) {
  // 29 bytes of meta describing 10^8 single-byte runs per period: a table
  // of the period's runs takes seconds and gigabytes. The 2^61-run variant
  // could never be tabled at all, so finishing is the O(nodes) check.
  for (const char* meta :
       {"200000000 {(0,0,2,100000000)}",
        "4611686018427387904 {(0,0,2,2305843009213693952)}"}) {
    SCOPED_TRACE(meta);
    const IndexSet idx = decode_projection(meta);
    const std::int64_t half = idx.period() / 2;
    EXPECT_EQ(idx.size(), half);
    EXPECT_EQ(idx.count_in(0, idx.period() - 1), half);
    for (const std::int64_t v : {std::int64_t{0}, half, idx.period() - 8}) {
      EXPECT_EQ(idx.count_in(v, v + 15), 8);
      const RunList rl = idx.materialize_in(v, v + 15);
      EXPECT_EQ(rl.bytes, 8);
      ASSERT_EQ(rl.runs.size(), 8u);
      EXPECT_FALSE(rl.contiguous);
      for (std::size_t i = 0; i < rl.runs.size(); ++i)
        EXPECT_EQ(rl.runs[i], (MaterializedRun{2 * static_cast<std::int64_t>(i), 1,
                                               static_cast<std::int64_t>(i)}));
    }
  }
}

}  // namespace
}  // namespace pfm
