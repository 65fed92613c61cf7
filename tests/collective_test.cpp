// Tests for two-phase collective I/O over Clusterfile.
#include <gtest/gtest.h>

#include "collective/two_phase.h"
#include "layout/partitions2d.h"
#include "tests/test_util.h"

namespace pfm {
namespace {

PartitioningPattern pattern2d(Partition2D p, std::int64_t n, std::int64_t parts) {
  auto elems = partition2d_all(p, n, n, parts);
  return make_pattern({elems.begin(), elems.end()});
}

/// Per-view buffers of an image under a logical partition.
std::vector<Buffer> split_views(const PartitioningPattern& logical,
                                const Buffer& image) {
  std::vector<Buffer> out(logical.element_count());
  for (std::size_t k = 0; k < out.size(); ++k) {
    const IndexSet idx(logical.element(k), logical.size());
    const std::int64_t limit = static_cast<std::int64_t>(image.size());
    out[k].resize(static_cast<std::size_t>(idx.count_in(0, limit - 1)));
    gather(out[k], image, 0, limit - 1, idx);
  }
  return out;
}

void verify_subfiles(Clusterfile& fs, Partition2D phys, std::int64_t n,
                     const Buffer& image) {
  const auto elems = partition2d_all(phys, n, n, 4);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    const IndexSet idx(elems[i], n * n);
    Buffer expected(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
    gather(expected, image, 0, n * n - 1, idx);
    Buffer got(expected.size());
    fs.subfile_storage(i).read(0, got);
    EXPECT_TRUE(equal_bytes(got, expected)) << "subfile " << i;
  }
}

TEST(Collective, WriteProducesExactSubfiles) {
  const std::int64_t n = 16;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kColumnBlocks, n, 4));
  const PartitioningPattern logical = pattern2d(Partition2D::kRowBlocks, n, 4);
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 51);
  const auto views = split_views(logical, image);

  const CollectiveStats s = collective_write(fs, logical, views, n * n);
  verify_subfiles(fs, Partition2D::kColumnBlocks, n, image);
  // Phase 2 is conforming: one contiguous request per subfile.
  EXPECT_EQ(s.requests, 4);
  EXPECT_EQ(s.bytes, n * n);
  EXPECT_EQ(s.exchange.bytes_moved, n * n);
}

TEST(Collective, IndependentWriteMatchesCollective) {
  const std::int64_t n = 16;
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 52);
  const PartitioningPattern logical = pattern2d(Partition2D::kRowBlocks, n, 4);
  const auto views = split_views(logical, image);

  Clusterfile a(ClusterConfig{}, pattern2d(Partition2D::kColumnBlocks, n, 4));
  Clusterfile b(ClusterConfig{}, pattern2d(Partition2D::kColumnBlocks, n, 4));
  const CollectiveStats sc = collective_write(a, logical, views, n * n);
  const CollectiveStats si = independent_write(b, logical, views, n * n);
  verify_subfiles(a, Partition2D::kColumnBlocks, n, image);
  verify_subfiles(b, Partition2D::kColumnBlocks, n, image);
  // Independent I/O on mismatched partitions needs 4x the server requests:
  // each aggregator writes its subfile in one request.
  EXPECT_EQ(sc.requests, 4);
  EXPECT_EQ(si.requests, 16);
}

TEST(Collective, ReadRoundTrip) {
  const std::int64_t n = 16;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kSquareBlocks, n, 4));
  const PartitioningPattern logical = pattern2d(Partition2D::kRowBlocks, n, 4);
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 53);
  const auto views = split_views(logical, image);
  collective_write(fs, logical, views, n * n);

  std::vector<Buffer> back;
  collective_read(fs, logical, back, n * n);
  ASSERT_EQ(back.size(), views.size());
  for (std::size_t k = 0; k < views.size(); ++k)
    EXPECT_TRUE(equal_bytes(back[k], views[k])) << "view " << k;
}

TEST(Collective, PartialFileSizes) {
  // File shorter than one pattern period and odd tails.
  const std::int64_t n = 8;
  for (const std::int64_t file_size : {0L, 1L, 7L, 32L, 63L}) {
    Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kColumnBlocks, n, 4));
    const PartitioningPattern logical = pattern2d(Partition2D::kRowBlocks, n, 4);
    const Buffer image =
        make_pattern_buffer(static_cast<std::size_t>(file_size), 54);
    // Build view buffers for the truncated file.
    std::vector<Buffer> views(logical.element_count());
    for (std::size_t k = 0; k < views.size(); ++k) {
      const IndexSet idx(logical.element(k), logical.size());
      views[k].resize(static_cast<std::size_t>(
          logical.element_bytes(k, file_size)));
      if (!views[k].empty())
        gather(views[k], image, 0, file_size - 1, idx);
    }
    EXPECT_NO_THROW(collective_write(fs, logical, views, file_size))
        << file_size;
    std::vector<Buffer> back;
    collective_read(fs, logical, back, file_size);
    for (std::size_t k = 0; k < views.size(); ++k)
      EXPECT_TRUE(equal_bytes(back[k], views[k]))
          << "size " << file_size << " view " << k;
  }
}

TEST(Collective, ValidatesInputs) {
  const std::int64_t n = 8;
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kColumnBlocks, n, 4));
  const PartitioningPattern logical = pattern2d(Partition2D::kRowBlocks, n, 4);
  std::vector<Buffer> wrong_count(3);
  EXPECT_THROW(collective_write(fs, logical, wrong_count, n * n),
               std::invalid_argument);
  std::vector<Buffer> wrong_size(4, Buffer(5));
  EXPECT_THROW(collective_write(fs, logical, wrong_size, n * n),
               std::invalid_argument);
}

}  // namespace
}  // namespace pfm
