// Integration tests: the full Clusterfile write/read path of paper section 8
// across the simulated cluster — views, projections, the contiguous fast
// path, and multi-client parallel writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "clusterfile/fs.h"
#include "falls/print.h"
#include "layout/partitions2d.h"
#include "tests/test_util.h"

namespace pfm {
namespace {

PartitioningPattern pattern2d(Partition2D p, std::int64_t n, std::int64_t parts) {
  auto elems = partition2d_all(p, n, n, parts);
  return make_pattern({elems.begin(), elems.end()});
}

/// Writes an N x N matrix through row-block views from `clients` compute
/// nodes and verifies every subfile holds exactly the bytes the physical
/// partition assigns to it.
void run_write_matrix(Partition2D phys, Partition2D logical, std::int64_t n,
                      const std::filesystem::path& dir) {
  ClusterConfig cfg;
  cfg.storage_dir = dir;
  Clusterfile fs(cfg, pattern2d(phys, n, 4));

  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 42);
  const auto views = partition2d_all(logical, n, n, 4);

  // Each compute node owns one view element and writes its whole view range.
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    const std::int64_t vid = client.set_view(views[static_cast<std::size_t>(c)], n * n);
    EXPECT_GE(client.last_view_set_us(), 0.0);

    // The view's data: gather the element's bytes from the flat image.
    const IndexSet idx(views[static_cast<std::size_t>(c)], n * n);
    const std::int64_t vsize = idx.count_in(0, n * n - 1);
    Buffer data(static_cast<std::size_t>(vsize));
    gather(data, image, 0, n * n - 1, idx);

    const auto t = client.write(vid, 0, vsize - 1, data);
    EXPECT_EQ(t.bytes, vsize);
    EXPECT_GT(t.messages, 0);
  }

  // Verify subfile contents against a reference split of the image.
  const auto phys_elems = partition2d_all(phys, n, n, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    const IndexSet idx(phys_elems[i], n * n);
    const std::int64_t ssize = idx.count_in(0, n * n - 1);
    Buffer expected(static_cast<std::size_t>(ssize));
    gather(expected, image, 0, n * n - 1, idx);
    Buffer got(static_cast<std::size_t>(ssize));
    fs.subfile_storage(i).read(0, got);
    EXPECT_TRUE(equal_bytes(got, expected))
        << to_string(phys) << "/" << to_string(logical) << " subfile " << i;
  }
}

TEST(Clusterfile, WriteMatchingDistributionsMemory) {
  run_write_matrix(Partition2D::kRowBlocks, Partition2D::kRowBlocks, 16, {});
}

TEST(Clusterfile, WriteColumnPhysicalRowLogicalMemory) {
  run_write_matrix(Partition2D::kColumnBlocks, Partition2D::kRowBlocks, 16, {});
}

TEST(Clusterfile, WriteSquarePhysicalRowLogicalMemory) {
  run_write_matrix(Partition2D::kSquareBlocks, Partition2D::kRowBlocks, 16, {});
}

TEST(Clusterfile, WriteThroughFileBackend) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_cf_test";
  std::filesystem::remove_all(dir);
  run_write_matrix(Partition2D::kSquareBlocks, Partition2D::kRowBlocks, 16, dir);
  std::filesystem::remove_all(dir);
}

TEST(Clusterfile, ReadBackThroughViews) {
  const std::int64_t n = 16;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kColumnBlocks, n, 4));
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 7);
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);

  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    const std::int64_t vid = client.set_view(views[static_cast<std::size_t>(c)], n * n);
    const IndexSet idx(views[static_cast<std::size_t>(c)], n * n);
    const std::int64_t vsize = idx.count_in(0, n * n - 1);
    Buffer data(static_cast<std::size_t>(vsize));
    gather(data, image, 0, n * n - 1, idx);
    client.write(vid, 0, vsize - 1, data);
  }

  // Read everything back through fresh views on other compute nodes.
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client((c + 1) % 4);
    const std::int64_t vid = client.set_view(views[static_cast<std::size_t>(c)], n * n);
    const IndexSet idx(views[static_cast<std::size_t>(c)], n * n);
    const std::int64_t vsize = idx.count_in(0, n * n - 1);
    Buffer expected(static_cast<std::size_t>(vsize));
    gather(expected, image, 0, n * n - 1, idx);
    Buffer got(static_cast<std::size_t>(vsize));
    const auto t = client.read(vid, 0, vsize - 1, got);
    EXPECT_EQ(t.bytes, vsize);
    EXPECT_TRUE(equal_bytes(got, expected)) << "view " << c;
  }
}

TEST(Clusterfile, PartialIntervalWrites) {
  // Write a view in several unaligned pieces; the subfiles must still end up
  // exact.
  const std::int64_t n = 8;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kSquareBlocks, n, 4));
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 13);
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);

  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    const std::int64_t vid = client.set_view(views[static_cast<std::size_t>(c)], n * n);
    const IndexSet idx(views[static_cast<std::size_t>(c)], n * n);
    const std::int64_t vsize = idx.count_in(0, n * n - 1);
    Buffer data(static_cast<std::size_t>(vsize));
    gather(data, image, 0, n * n - 1, idx);
    // Three pieces: [0,4], [5,9], [10, vsize-1].
    std::int64_t cuts[] = {0, 5, 10, vsize};
    for (int k = 0; k < 3; ++k) {
      const std::int64_t v = cuts[k];
      const std::int64_t w = cuts[k + 1] - 1;
      if (v > w) continue;
      client.write(vid, v, w,
                   std::span<const std::byte>(data).subspan(
                       static_cast<std::size_t>(v), static_cast<std::size_t>(w - v + 1)));
    }
  }

  const auto phys_elems = partition2d_all(Partition2D::kSquareBlocks, n, n, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    const IndexSet idx(phys_elems[i], n * n);
    Buffer expected(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
    gather(expected, image, 0, n * n - 1, idx);
    Buffer got(expected.size());
    fs.subfile_storage(i).read(0, got);
    EXPECT_TRUE(equal_bytes(got, expected)) << "subfile " << i;
  }
}

TEST(Clusterfile, MatchingViewUsesContiguousFastPathTimings) {
  // Perfect match: t_g must be zero (no gather) and one message per write.
  const std::int64_t n = 16;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, n, 4));
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  auto& client = fs.client(0);
  const std::int64_t vid = client.set_view(views[0], n * n);
  const Buffer data = make_pattern_buffer(static_cast<std::size_t>(n * n / 4), 21);
  const auto t = client.write(vid, 0, n * n / 4 - 1, data);
  EXPECT_EQ(t.messages, 1);
  EXPECT_DOUBLE_EQ(t.t_g_us, 0.0);
}

TEST(Clusterfile, ViewSetTimeIsRecorded) {
  const std::int64_t n = 16;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kColumnBlocks, n, 4));
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  auto& client = fs.client(0);
  client.set_view(views[0], n * n);
  EXPECT_GT(client.last_view_set_us(), 0.0);
  EXPECT_GE(client.last_view_total_us(), client.last_view_set_us());
}

// One long-lived cluster through 10^4 set_view + read pairs that cycle over
// far more distinct subfile projections than a server's cache holds:
// set_view sends nothing, every read returns the file's bytes, and no
// server keeps more than its fixed number of parsed projections.
TEST(Clusterfile, ViewChurnLeavesServerStateBounded) {
  const std::int64_t n = 16;
  const std::int64_t size = n * n;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kSquareBlocks, n, 4));
  auto& client = fs.client(0);
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(size), 77);
  client.write(client.set_view({make_falls(0, size - 1, size, 1)}, size), 0,
               size - 1, image);

  Buffer back(static_cast<std::size_t>(size));
  for (std::int64_t i = 0; i < 10000; ++i) {
    // A run of 1..13 bytes whose start walks the whole matrix: 3328
    // distinct views, hundreds of distinct projections per subfile.
    const std::int64_t lo = (i * 37) % size;
    const std::int64_t len = std::min<std::int64_t>(1 + i % 13, size - lo);
    const std::int64_t sent = fs.network().messages_sent();
    const std::int64_t vid =
        client.set_view({make_falls(lo, lo + len - 1, size, 1)}, size);
    ASSERT_EQ(fs.network().messages_sent(), sent) << "set_view sent messages";
    ASSERT_TRUE(client.read(vid, 0, len - 1, back).ok());
    ASSERT_TRUE(std::equal(back.begin(), back.begin() + len, image.begin() + lo))
        << "view " << i;
  }
  std::size_t full = 0;
  for (std::size_t s = 0; s < fs.subfile_count(); ++s) {
    const std::size_t cached = fs.server_for(s).projection_cache_size();
    EXPECT_LE(cached, IoServer::kProjectionCacheCapacity) << "subfile " << s;
    if (cached == IoServer::kProjectionCacheCapacity) ++full;
  }
  EXPECT_GT(full, 0u);  // the churn overflowed the caches
  EXPECT_TRUE(fs.client_reliability().all_zero());
  EXPECT_TRUE(fs.server_reliability().all_zero());
}

TEST(Clusterfile, ServerScatterAccounting) {
  const std::int64_t n = 8;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kColumnBlocks, n, 4));
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  auto& client = fs.client(0);
  const std::int64_t vid = client.set_view(views[0], n * n);
  const Buffer data = make_pattern_buffer(static_cast<std::size_t>(n * n / 4), 5);
  client.write(vid, 0, n * n / 4 - 1, data);
  std::int64_t writes = 0;
  for (std::size_t i = 0; i < 4; ++i) writes += fs.server_for(i).writes_served();
  EXPECT_EQ(writes, 4);  // row view intersects all four column subfiles
  EXPECT_GT(fs.mean_server_scatter_us(), 0.0);
  fs.reset_server_phases();
  EXPECT_DOUBLE_EQ(fs.mean_server_scatter_us(), 0.0);
}

TEST(Clusterfile, ViewContiguityDoesNotImplySubfileContiguity) {
  // Regression guard: the figure 4/5 patterns. The view range [0,4] is
  // contiguous in view space for subfile 1's projection, but the subfile-
  // side projection {0,2,3,...} is NOT contiguous — the server must scatter
  // based on PROJ_S, not the client's fast-path flag.
  const FallsSet sub0{make_nested(0, 3, 8, 4, {make_falls(0, 0, 2, 2)})};
  const FallsSet sub1{
      make_nested(0, 7, 8, 4, {make_falls(1, 1, 2, 2), make_falls(4, 7, 4, 1)})};
  ClusterConfig cfg;
  cfg.compute_nodes = 1;
  cfg.io_nodes = 2;
  Clusterfile fs(cfg, PartitioningPattern({sub0, sub1}, 0));
  auto& client = fs.client(0);
  const FallsSet view{make_nested(0, 7, 16, 2, {make_falls(0, 1, 4, 2)})};
  const std::int64_t vid = client.set_view(view, 32);
  Buffer data(5);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(0x10 + i);
  client.write(vid, 0, 4, data);

  // View bytes 0..4 are file bytes 0,1,4,5,16. Subfile 0 stores file {0,16}
  // at offsets {0,4}; subfile 1 stores file {1,4,5} at offsets {0,2,3}.
  ASSERT_EQ(fs.subfile_storage(0).size(), 5);
  Buffer s0(5);
  fs.subfile_storage(0).read(0, s0);
  EXPECT_EQ(s0[0], data[0]);
  EXPECT_EQ(s0[4], data[4]);
  ASSERT_EQ(fs.subfile_storage(1).size(), 4);
  Buffer s1(4);
  fs.subfile_storage(1).read(0, s1);
  EXPECT_EQ(s1[0], data[1]);
  EXPECT_EQ(s1[2], data[2]);
  EXPECT_EQ(s1[3], data[3]);
}

// A view whose members interleave: families (0,0,6,4) and (3,3,4,6) of a
// 24-byte view pattern, disjoint by parity. PREPROCESS recompresses it into
// file order for INTERSECT and PROJ; written over a 4-subfile file and read
// back, view and file must match a shadow image byte for byte.
TEST(Clusterfile, InterleavedViewRoundTrips) {
  const std::int64_t n = 16;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kSquareBlocks, n, 4));
  auto& client = fs.client(0);
  Buffer shadow = make_pattern_buffer(static_cast<std::size_t>(n * n), 3);
  const std::int64_t whole = client.set_view({make_falls(0, n * n - 1, n * n, 1)}, n * n);
  client.write(whole, 0, n * n - 1, shadow);

  const FallsSet view{make_falls(0, 0, 6, 4), make_falls(3, 3, 4, 6)};
  ASSERT_FALSE(in_file_order(view));
  const std::int64_t vid = client.set_view(view, 24);
  const IndexSet idx(view, 24);
  const std::int64_t vsize = idx.count_in(0, n * n - 1);
  const Buffer data = make_pattern_buffer(static_cast<std::size_t>(vsize), 4);
  client.write(vid, 0, vsize - 1, data);
  scatter(shadow, data, 0, n * n - 1, idx);

  Buffer got(static_cast<std::size_t>(vsize));
  fs.client(1).read(fs.client(1).set_view(view, 24), 0, vsize - 1, got);
  EXPECT_TRUE(equal_bytes(got, data));
  Buffer file(static_cast<std::size_t>(n * n));
  client.read(whole, 0, n * n - 1, file);
  EXPECT_TRUE(equal_bytes(file, shadow));
}

TEST(Clusterfile, RelayoutPreservesFileContents) {
  // On-the-fly physical redistribution (paper section 3): write the file
  // under a column-block layout, relayout to row blocks, and verify both
  // the new subfile contents and that reads through fresh views still see
  // the same file.
  const std::int64_t n = 16;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kColumnBlocks, n, 4));
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 77);
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);

  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    const std::int64_t vid = client.set_view(views[static_cast<std::size_t>(c)], n * n);
    const IndexSet idx(views[static_cast<std::size_t>(c)], n * n);
    Buffer data(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
    gather(data, image, 0, n * n - 1, idx);
    client.write(vid, 0, static_cast<std::int64_t>(data.size()) - 1, data);
  }

  const RedistStats stats =
      fs.relayout(pattern2d(Partition2D::kRowBlocks, n, 4), n * n);
  EXPECT_EQ(stats.bytes_moved, n * n);

  // New subfile i must hold rows [4i, 4i+4) contiguously.
  const auto row_elems = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    const IndexSet idx(row_elems[i], n * n);
    Buffer expected(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
    gather(expected, image, 0, n * n - 1, idx);
    Buffer got(expected.size());
    fs.subfile_storage(i).read(0, got);
    EXPECT_TRUE(equal_bytes(got, expected)) << "subfile " << i;
  }

  // Reads through fresh views on the relayouted file still see the image —
  // and the matching row view now hits the contiguous fast path.
  auto& client = fs.client(0);
  const std::int64_t vid = client.set_view(views[0], n * n);
  const IndexSet idx(views[0], n * n);
  Buffer expected(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
  gather(expected, image, 0, n * n - 1, idx);
  Buffer got(expected.size());
  const auto t = client.read(vid, 0, static_cast<std::int64_t>(got.size()) - 1, got);
  EXPECT_TRUE(equal_bytes(got, expected));
  EXPECT_EQ(t.messages, 1);  // one subfile serves the whole matching view
}

TEST(Clusterfile, RelayoutValidation) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 8, 4));
  EXPECT_THROW(fs.relayout(pattern2d(Partition2D::kRowBlocks, 8, 2), 64),
               std::invalid_argument);
  auto elems = partition2d_all(Partition2D::kRowBlocks, 8, 8, 4);
  EXPECT_THROW(
      fs.relayout(PartitioningPattern({elems.begin(), elems.end()}, 2), 64),
      std::invalid_argument);
  // A single copy on a crashed node leaves nothing live to rebuild from.
  fs.crash_server(1);
  EXPECT_THROW(fs.relayout(pattern2d(Partition2D::kColumnBlocks, 8, 4), 64),
               std::runtime_error);
}

TEST(Clusterfile, NegativeIntegrityBlockIsRejected) {
  ClusterConfig cfg;
  cfg.integrity_block = -1;
  EXPECT_THROW(Clusterfile(cfg, pattern2d(Partition2D::kRowBlocks, 8, 4)),
               std::invalid_argument);
}

TEST(Clusterfile, MultipleSubfilesPerIoNode) {
  // Four subfiles on two I/O nodes: the servers demultiplex by subfile id
  // and the write path stays byte-exact.
  const std::int64_t n = 16;
  ClusterConfig cfg;
  cfg.io_nodes = 2;
  Clusterfile fs(cfg, pattern2d(Partition2D::kColumnBlocks, n, 4));
  EXPECT_EQ(fs.subfile_count(), 4u);
  // Subfiles 0,2 live on node 4; subfiles 1,3 on node 5.
  EXPECT_EQ(&fs.server_for(0), &fs.server_for(2));
  EXPECT_EQ(&fs.server_for(1), &fs.server_for(3));
  EXPECT_NE(&fs.server_for(0), &fs.server_for(1));

  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 31);
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    const std::int64_t vid = client.set_view(views[static_cast<std::size_t>(c)], n * n);
    const IndexSet idx(views[static_cast<std::size_t>(c)], n * n);
    Buffer data(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
    gather(data, image, 0, n * n - 1, idx);
    client.write(vid, 0, static_cast<std::int64_t>(data.size()) - 1, data);
  }
  const auto phys_elems = partition2d_all(Partition2D::kColumnBlocks, n, n, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    const IndexSet idx(phys_elems[i], n * n);
    Buffer expected(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
    gather(expected, image, 0, n * n - 1, idx);
    Buffer got(expected.size());
    fs.subfile_storage(i).read(0, got);
    EXPECT_TRUE(equal_bytes(got, expected)) << "subfile " << i;
  }
}

TEST(Clusterfile, SingleIoNodeServesEverything) {
  const std::int64_t n = 8;
  ClusterConfig cfg;
  cfg.compute_nodes = 1;
  cfg.io_nodes = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kSquareBlocks, n, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 32);
  for (int v = 0; v < 4; ++v) {
    const std::int64_t vid = client.set_view(views[static_cast<std::size_t>(v)], n * n);
    const IndexSet idx(views[static_cast<std::size_t>(v)], n * n);
    Buffer data(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
    gather(data, image, 0, n * n - 1, idx);
    client.write(vid, 0, static_cast<std::int64_t>(data.size()) - 1, data);
  }
  const auto phys_elems = partition2d_all(Partition2D::kSquareBlocks, n, n, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    const IndexSet idx(phys_elems[i], n * n);
    Buffer expected(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
    gather(expected, image, 0, n * n - 1, idx);
    Buffer got(expected.size());
    fs.subfile_storage(i).read(0, got);
    EXPECT_TRUE(equal_bytes(got, expected)) << "subfile " << i;
  }
}

// Rebalance planning sizes the file from its subfiles while a client keeps
// growing them. With one copy per subfile no integrity layer locks the
// storage, so the size must come from what each server records under its
// own lock, never from the storage its loop thread is resizing (a TSan
// build reports the race otherwise).
TEST(Clusterfile, SizeEstimateDoesNotRaceGrowingWrites) {
  const std::int64_t n = 256;
  ClusterConfig cfg;
  cfg.ring_placement = true;
  cfg.max_io_nodes = cfg.io_nodes + 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kColumnBlocks, n, 16));
  const auto whole = partition2d_all(Partition2D::kRowBlocks, n, n, 1);
  auto& client = fs.client(0);
  const std::int64_t vid = client.set_view(whole[0], n * n);

  // Each write appends one matrix row, so every write grows every subfile.
  std::atomic<bool> stop{false};
  std::atomic<int> written{0};
  std::atomic<int> failed{0};
  std::thread writer([&] {
    const Buffer row = make_pattern_buffer(static_cast<std::size_t>(n), 9);
    for (std::int64_t off = 0; off < n * n && !stop.load(); off += n) {
      if (!client.write(vid, off, off + n - 1, row).ok()) failed.fetch_add(1);
      written.fetch_add(1);
    }
  });
  while (written.load() < 4) std::this_thread::yield();
  fs.add_io_node();
  fs.await_rebalance();
  stop.store(true);
  writer.join();

  EXPECT_EQ(failed.load(), 0);
  const RebalanceCounters rc = fs.rebalance_counters();
  EXPECT_GE(rc.migrations_completed, 1);
  EXPECT_EQ(rc.migrations_failed, 0);
}

}  // namespace
}  // namespace pfm
