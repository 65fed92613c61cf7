// Heap allocations per ClusterfileClient::set_view (paper section 8's t_i):
// the view algebra borrows its inputs and writes PROJ_S text into one
// string, so a set_view allocates only what the view keeps plus a bounded
// scratch, whatever the matrix size. A counting operator new, local to
// this binary and to the calling thread (set_view runs on it; the server
// loops allocate on their own threads), measures it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "clusterfile/fs.h"
#include "layout/array_layout.h"
#include "layout/partitions2d.h"

namespace {
thread_local std::int64_t t_allocations = 0;
}  // namespace

// Not inlined: GCC's -Wmismatched-new-delete otherwise sees free() reach
// a pointer from operator new in an inlined caller.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pfm {
namespace {

/// Median allocation count of `calls` set_view calls on client 0 of a
/// cluster over `physical`; call i sets views[i % views.size()].
std::int64_t median_allocations(const std::vector<FallsSet>& physical,
                                const std::vector<FallsSet>& views,
                                std::int64_t pattern_size, int calls) {
  Clusterfile fs(ClusterConfig{}, PartitioningPattern(physical, 0));
  ClusterfileClient& client = fs.client(0);
  std::vector<std::int64_t> counts;
  for (int i = 0; i < calls; ++i) {
    FallsSet view = views[static_cast<std::size_t>(i) % views.size()];
    const std::int64_t before = t_allocations;
    client.set_view(std::move(view), pattern_size);
    counts.push_back(t_allocations - before);
  }
  std::nth_element(counts.begin(), counts.begin() + calls / 2, counts.end());
  return counts[static_cast<std::size_t>(calls / 2)];
}

/// Per-element medians of one view partition against one physical one, on
/// an n x n byte matrix with 4 subfiles (row-block views have 2 elements,
/// as in LayoutIntersectScaling, the others 4).
std::vector<std::int64_t> per_element(Partition2D view, Partition2D phys,
                                      std::int64_t n) {
  const std::int64_t parts = view == Partition2D::kRowBlocks ? 2 : 4;
  const std::vector<FallsSet> physical = partition2d_all(phys, n, n, 4);
  std::vector<std::int64_t> out;
  for (const FallsSet& v : partition2d_all(view, n, n, parts))
    out.push_back(median_allocations(physical, {v}, n * n, 9));
  return out;
}

// Before, every pair grew with N: the stream writer's buffer grew with the
// length of the numbers it wrote (r/c element 0: 214 at 256^2, 226 at
// 4096^2).
TEST(SetViewAlloc, CountDoesNotGrowWithMatrixSize) {
  const Partition2D kinds[] = {Partition2D::kRowBlocks, Partition2D::kColumnBlocks,
                               Partition2D::kSquareBlocks};
  for (const Partition2D view : kinds)
    for (const Partition2D phys : kinds) {
      const auto small = per_element(view, phys, 256);
      EXPECT_EQ(small, per_element(view, phys, 4096))
          << partition2d_char(view) << "/" << partition2d_char(phys);
      std::cout << partition2d_char(view) << "/" << partition2d_char(phys)
                << " element 0: " << small[0] << " allocations\n";
    }
}

// view_churn's three shapes (column blocks, square blocks, block-cyclic(64)
// on a 2 x 2 grid) on the 1024 x 1024 square-block file of perfbench, each
// element in turn. Before views borrowed their inputs the medians over 50
// calls were 208 (column), 160 (square) and 507 (block-cyclic): 875. While
// each view target still copied its replica row and each subfile's
// PatternElement was copied out of the pattern, they were 57, 37 and 196.
TEST(SetViewAlloc, ViewChurnShapesAllocateHalfAsMuch) {
  constexpr std::int64_t kEdge = 1024;
  const std::vector<FallsSet> physical =
      partition2d_all(Partition2D::kSquareBlocks, kEdge, kEdge, 4);
  const std::vector<Dist> cyclic = {Dist::block_cyclic(64), Dist::block_cyclic(64)};
  const std::vector<FallsSet> shapes[] = {
      partition2d_all(Partition2D::kColumnBlocks, kEdge, kEdge, 4),
      partition2d_all(Partition2D::kSquareBlocks, kEdge, kEdge, 4),
      layout_all(ArrayDesc{{kEdge, kEdge}, 1}, cyclic, GridDesc{{2, 2}})};
  const std::int64_t bounds[] = {43, 24, 180};
  std::int64_t total = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::int64_t median =
        median_allocations(physical, shapes[k], kEdge * kEdge, 50);
    std::cout << "view_churn shape: " << median << " allocations\n";
    EXPECT_LE(median, bounds[k]) << "shape " << k;
    total += median;
  }
  EXPECT_LE(total, 875 / 2);
}

}  // namespace
}  // namespace pfm
