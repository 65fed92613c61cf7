// Access-plan layer property tests (DESIGN.md, "The access-plan layer"):
// a client with the plan cache enabled and one with it disabled must be
// observationally identical — byte-identical subfiles after randomized
// writes, byte-identical buffers from repeated and period-shifted reads —
// while the enabled client actually replays plans (hits > 0). Eviction,
// plans outliving set_view and plans outliving a placement change are
// exercised explicitly.
#include <gtest/gtest.h>

#include <algorithm>

#include "clusterfile/fs.h"
#include "layout/partitions2d.h"
#include "tests/test_util.h"

namespace pfm {
namespace {

struct Case {
  Partition2D phys;
  Partition2D logical;
  std::int64_t n;
  int seed;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string s;
  s += partition2d_char(info.param.phys);
  s += "_";
  s += partition2d_char(info.param.logical);
  s += "_n" + std::to_string(info.param.n) + "_s" + std::to_string(info.param.seed);
  return s;
}

std::vector<Case> all_cases() {
  std::vector<Case> out;
  const Partition2D kinds[] = {Partition2D::kRowBlocks, Partition2D::kColumnBlocks,
                               Partition2D::kSquareBlocks};
  int seed = 0;
  for (const Partition2D phys : kinds)
    for (const Partition2D logical : kinds)
      for (const std::int64_t n : {16, 32}) out.push_back({phys, logical, n, ++seed});
  return out;
}

class AccessPlanProperty : public ::testing::TestWithParam<Case> {};

/// Both clients run the identical op sequence; `fs_plain`'s client has the
/// cache disabled, so every divergence between the two subfile sets is a
/// cached-plan bug. The evolving reference image catches the case where
/// both are wrong the same way.
TEST_P(AccessPlanProperty, CachedAndUncachedWritesAreByteIdentical) {
  const Case& c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.seed));
  auto phys_elems = partition2d_all(c.phys, c.n, c.n, 4);
  const PartitioningPattern pattern({phys_elems.begin(), phys_elems.end()}, 0);
  Clusterfile fs_cached(ClusterConfig{}, pattern);
  Clusterfile fs_plain(ClusterConfig{}, pattern);
  const auto views = partition2d_all(c.logical, c.n, c.n, 4);
  const std::int64_t view_bytes = c.n * c.n / 4;  // view bytes per period
  const std::int64_t periods = 3;                 // file spans three periods
  const std::int64_t file_bytes = c.n * c.n * periods;

  Buffer image(static_cast<std::size_t>(file_bytes));
  std::int64_t total_hits = 0;

  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 4; ++k) {
      auto& cached = fs_cached.client(k);
      auto& plain = fs_plain.client(k);
      plain.set_plan_cache_capacity(0);
      const std::int64_t vid_c =
          cached.set_view(views[static_cast<std::size_t>(k)], c.n * c.n);
      const std::int64_t vid_p =
          plain.set_view(views[static_cast<std::size_t>(k)], c.n * c.n);

      // One random interval, issued at the base position, repeated
      // verbatim (exact cache hit), and shifted by whole replay periods
      // (congruent hit with a shifted subfile interval).
      const std::int64_t v = rng.uniform(0, view_bytes - 1);
      const std::int64_t w = rng.uniform(v, view_bytes - 1);
      const std::int64_t ops[][2] = {{v, w},
                                     {v, w},
                                     {v + view_bytes, w + view_bytes},
                                     {v + 2 * view_bytes, w + 2 * view_bytes}};
      int op_seed = 0;
      for (const auto& op : ops) {
        Buffer data(static_cast<std::size_t>(op[1] - op[0] + 1));
        fill_pattern(data, static_cast<std::uint64_t>(round * 101 + k * 13 +
                                                      c.seed + ++op_seed));
        const auto t = cached.write(vid_c, op[0], op[1], data);
        total_hits += t.plan_hits;
        const auto tp = plain.write(vid_p, op[0], op[1], data);
        EXPECT_EQ(tp.plan_hits, 0) << "disabled cache must never hit";
        EXPECT_EQ(t.bytes, tp.bytes);

        const ElementRef ref{&views[static_cast<std::size_t>(k)], 0, c.n * c.n};
        for (std::int64_t x = op[0]; x <= op[1]; ++x)
          image[static_cast<std::size_t>(map_to_file(ref, x))] =
              data[static_cast<std::size_t>(x - op[0])];
      }
    }
  }
  EXPECT_GT(total_hits, 0) << "the repeated/shifted ops must replay plans";

  for (std::size_t i = 0; i < 4; ++i) {
    const IndexSet idx(phys_elems[i], c.n * c.n);
    Buffer expected(
        static_cast<std::size_t>(idx.count_in(0, file_bytes - 1)));
    gather(expected, image, 0, file_bytes - 1, idx);
    for (Clusterfile* fs : {&fs_cached, &fs_plain}) {
      Buffer got(expected.size());
      const std::int64_t have = std::min<std::int64_t>(
          fs->subfile_storage(i).size(), static_cast<std::int64_t>(got.size()));
      if (have > 0)
        fs->subfile_storage(i).read(0, std::span<std::byte>(got).first(
                                          static_cast<std::size_t>(have)));
      EXPECT_TRUE(equal_bytes(got, expected))
          << "subfile " << i << (fs == &fs_cached ? " (cached)" : " (plain)");
    }
  }
}

TEST_P(AccessPlanProperty, CachedAndUncachedReadsAreByteIdentical) {
  const Case& c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.seed) + 977);
  auto phys_elems = partition2d_all(c.phys, c.n, c.n, 4);
  const PartitioningPattern pattern({phys_elems.begin(), phys_elems.end()}, 0);
  Clusterfile fs(ClusterConfig{}, pattern);
  const auto views = partition2d_all(c.logical, c.n, c.n, 4);
  const std::int64_t view_bytes = c.n * c.n / 4;
  const std::int64_t periods = 2;
  const std::int64_t span = view_bytes * periods;

  // Populate two full view periods with known bytes through client 0's
  // view, then read through a cached and an uncached client of the same
  // cluster (distinct compute nodes share the subfiles).
  auto& writer = fs.client(0);
  const std::int64_t wvid = writer.set_view(views[0], c.n * c.n);
  Buffer content = make_pattern_buffer(static_cast<std::size_t>(span), 42);
  writer.write(wvid, 0, span - 1, content);

  auto& cached = fs.client(1);
  auto& plain = fs.client(2);
  plain.set_plan_cache_capacity(0);
  const std::int64_t vid_c = cached.set_view(views[0], c.n * c.n);
  const std::int64_t vid_p = plain.set_view(views[0], c.n * c.n);

  std::int64_t total_hits = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t v = rng.uniform(0, view_bytes - 1);
    const std::int64_t w = rng.uniform(v, view_bytes - 1);
    for (const std::int64_t shift : {std::int64_t{0}, view_bytes}) {
      Buffer from_cached(static_cast<std::size_t>(w - v + 1));
      Buffer from_plain(from_cached.size());
      // Twice through the cached client: the second is a guaranteed replay.
      const auto t1 = cached.read(vid_c, v + shift, w + shift, from_cached);
      const auto t2 = cached.read(vid_c, v + shift, w + shift, from_cached);
      total_hits += t1.plan_hits + t2.plan_hits;
      plain.read(vid_p, v + shift, w + shift, from_plain);

      const auto expected = std::span<const std::byte>(content).subspan(
          static_cast<std::size_t>(v + shift),
          static_cast<std::size_t>(w - v + 1));
      EXPECT_TRUE(equal_bytes(from_cached, expected)) << "cached read";
      EXPECT_TRUE(equal_bytes(from_plain, expected)) << "uncached read";
    }
  }
  EXPECT_GT(total_hits, 0);
}

TEST(AccessPlanCache, EvictionKeepsResultsExact) {
  const std::int64_t n = 32;
  auto phys_elems = partition2d_all(Partition2D::kColumnBlocks, n, n, 4);
  const PartitioningPattern pattern({phys_elems.begin(), phys_elems.end()}, 0);
  Clusterfile fs(ClusterConfig{}, pattern);
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  const std::int64_t view_bytes = n * n / 4;

  auto& writer = fs.client(0);
  const std::int64_t wvid = writer.set_view(views[0], n * n);
  Buffer content = make_pattern_buffer(static_cast<std::size_t>(view_bytes), 7);
  writer.write(wvid, 0, view_bytes - 1, content);

  auto& client = fs.client(1);
  client.set_plan_cache_capacity(2);
  const std::int64_t vid = client.set_view(views[0], n * n);
  // Three distinct shapes cycled through a capacity-2 cache: every access
  // after the first cycle re-misses, every result must stay exact.
  const std::int64_t shapes[][2] = {{0, 15}, {3, 40}, {17, view_bytes - 1}};
  for (int round = 0; round < 4; ++round) {
    for (const auto& s : shapes) {
      Buffer got(static_cast<std::size_t>(s[1] - s[0] + 1));
      client.read(vid, s[0], s[1], got);
      EXPECT_TRUE(equal_bytes(
          got, std::span<const std::byte>(content).subspan(
                   static_cast<std::size_t>(s[0]), got.size())));
    }
  }
  EXPECT_GT(client.plan_cache_evictions(), 0);
  EXPECT_LE(client.plan_cache_size(), 2u);
  EXPECT_GT(client.plan_cache_misses(), 3);  // re-misses after eviction
}

// Views never change once set and a plan holds no placement, so nothing
// invalidates a plan: one cached for view A still replays after
// set_view(B), and each view keeps its own plans side by side.
TEST(AccessPlanCache, PlansSurviveSetView) {
  const std::int64_t n = 16;
  auto phys_elems = partition2d_all(Partition2D::kSquareBlocks, n, n, 4);
  const PartitioningPattern pattern({phys_elems.begin(), phys_elems.end()}, 0);
  Clusterfile fs(ClusterConfig{}, pattern);
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  const std::int64_t view_bytes = n * n / 4;

  auto& client = fs.client(0);
  const std::int64_t vid = client.set_view(views[0], n * n);
  const Buffer data = make_pattern_buffer(static_cast<std::size_t>(view_bytes), 9);
  EXPECT_EQ(client.write(vid, 0, view_bytes - 1, data).plan_misses, 1);

  const std::int64_t vid2 = client.set_view(views[1], n * n);
  EXPECT_EQ(client.plan_cache_size(), 1u);
  EXPECT_EQ(client.write(vid, 0, view_bytes - 1, data).plan_hits, 1);
  const Buffer data2 =
      make_pattern_buffer(static_cast<std::size_t>(view_bytes), 11);
  EXPECT_EQ(client.write(vid2, 0, view_bytes - 1, data2).plan_misses, 1);
  EXPECT_EQ(client.plan_cache_size(), 2u);

  Buffer back(data.size());
  EXPECT_EQ(client.read(vid, 0, view_bytes - 1, back).plan_hits, 1);
  EXPECT_EQ(back, data);
  EXPECT_EQ(client.read(vid2, 0, view_bytes - 1, back).plan_hits, 1);
  EXPECT_EQ(back, data2);
}

// The nodes serving a plan's targets come from the client's snapshot of
// the placement directory, taken at each access, never from the plan. A
// plan cached before decommission_node moved its subfile's copies (primary
// included) still replays, and the access goes straight to the new holder.
TEST(AccessPlanCache, PlanCachedBeforeAMoveReachesTheNewHolder) {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.ring_placement = true;
  const std::int64_t n = 16;
  auto phys_elems = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  Clusterfile fs(cfg, PartitioningPattern({phys_elems.begin(), phys_elems.end()}, 0));
  // A row-block view congruent with the physical partition: bytes [0, 63]
  // of view 0 are subfile 0.
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  auto& client = fs.client(0);
  const std::int64_t vid = client.set_view(views[0], n * n);
  const Buffer data = make_pattern_buffer(64, 17);
  const auto w = client.write(vid, 0, 63, data);
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(w.plan_misses, 1);

  const int old_primary = fs.replica_nodes(0)[0];
  fs.decommission_node(static_cast<std::size_t>(old_primary - fs.compute_nodes()));
  const std::vector<int> holders = fs.replica_nodes(0);
  ASSERT_EQ(std::count(holders.begin(), holders.end(), old_primary), 0);

  Buffer back(64);
  const auto r = client.read(vid, 0, 63, back);
  EXPECT_EQ(r.plan_hits, 1);
  ASSERT_EQ(r.per_subfile.size(), 1u);
  EXPECT_EQ(r.per_subfile[0].status, AccessStatus::kOk);
  EXPECT_EQ(r.per_subfile[0].io_node, holders[0]);
  EXPECT_EQ(r.per_subfile[0].failovers, 0);
  EXPECT_EQ(r.rel.timeouts, 0);
  EXPECT_EQ(client.reliability().timeouts, 0);
  EXPECT_EQ(client.reliability().failovers, 0);
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, AccessPlanProperty,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace pfm
