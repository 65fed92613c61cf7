// Microbenchmarks: the intersection primitives of paper section 7 —
// CUT-FALLS, flat INTERSECT-FALLS, the nested INTERSECT, projections,
// gather/scatter throughput, and a whole client set_view (t_i).
#include <benchmark/benchmark.h>

#include <memory>

#include "clusterfile/fs.h"
#include "intersect/cut.h"
#include "intersect/intersect.h"
#include "intersect/intersect_falls.h"
#include "intersect/project.h"
#include "layout/array_layout.h"
#include "layout/partitions2d.h"
#include "redist/gather_scatter.h"
#include "util/buffer.h"

namespace {

using namespace pfm;

void BM_CutFalls(benchmark::State& state) {
  const Falls f = make_falls(3, 5, 6, state.range(0));
  const std::int64_t ext = falls_extent(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cut_falls(f, ext / 4, 3 * ext / 4));
  }
}
BENCHMARK(BM_CutFalls)->Arg(8)->Arg(4096);

void BM_IntersectFallsAligned(benchmark::State& state) {
  // Strides share a small lcm: the cheap, common case.
  const Falls f1 = make_falls(0, 7, 16, state.range(0));
  const Falls f2 = make_falls(0, 3, 8, 2 * state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersect_falls(f1, f2));
  }
}
BENCHMARK(BM_IntersectFallsAligned)->Arg(16)->Arg(1024);

void BM_IntersectFallsCoprimeStrides(benchmark::State& state) {
  // Coprime strides: the lcm period covers many segment pairs.
  const Falls f1 = make_falls(0, 2, 7, state.range(0));
  const Falls f2 = make_falls(0, 3, 11, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersect_falls(f1, f2));
  }
}
BENCHMARK(BM_IntersectFallsCoprimeStrides)->Arg(16)->Arg(1024);

void BM_NestedIntersectViewSubfile(benchmark::State& state) {
  // One view/subfile intersection of the Table 1 workload (c/r, N x N).
  const std::int64_t n = state.range(0);
  const PatternElement sub{
      partition2d_falls(Partition2D::kColumnBlocks, n, n, 4, 1), n * n, 0};
  const PatternElement view{
      partition2d_falls(Partition2D::kRowBlocks, n, n, 4, 1), n * n, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersect_nested(view, sub));
  }
}
BENCHMARK(BM_NestedIntersectViewSubfile)->Arg(256)->Arg(1024)->Arg(2048);

void BM_ProjectionViewSubfile(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const PatternElement sub{
      partition2d_falls(Partition2D::kColumnBlocks, n, n, 4, 1), n * n, 0};
  const PatternElement view{
      partition2d_falls(Partition2D::kRowBlocks, n, n, 4, 1), n * n, 0};
  const Intersection x = intersect_nested(view, sub);
  for (auto _ : state) {
    benchmark::DoNotOptimize(project(x, view));
  }
}
BENCHMARK(BM_ProjectionViewSubfile)->Arg(256)->Arg(1024);

void BM_GatherFragmented(benchmark::State& state) {
  // Gather throughput at the fragmentation the c/r workload produces
  // (runs of n/4 bytes).
  const std::int64_t n = state.range(0);
  const std::int64_t run = n / 4;
  const IndexSet idx({make_falls(0, run - 1, n, n / 4)}, n * n / 4);
  const Buffer src = make_pattern_buffer(static_cast<std::size_t>(n * n / 4), 1);
  Buffer dest(static_cast<std::size_t>(idx.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gather(dest, src, 0, static_cast<std::int64_t>(src.size()) - 1, idx));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * idx.size());
}
BENCHMARK(BM_GatherFragmented)->Arg(256)->Arg(2048);

void BM_ScatterFragmented(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t run = n / 4;
  const IndexSet idx({make_falls(0, run - 1, n, n / 4)}, n * n / 4);
  const Buffer src = make_pattern_buffer(static_cast<std::size_t>(idx.size()), 1);
  Buffer dest(static_cast<std::size_t>(n * n / 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scatter(dest, src, 0, static_cast<std::int64_t>(dest.size()) - 1, idx));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * idx.size());
}
BENCHMARK(BM_ScatterFragmented)->Arg(256)->Arg(2048);

/// One set_view per iteration on client 0 of a cluster holding a 1024 x 1024
/// byte matrix in 4 square-block subfiles (perfbench's view_churn file),
/// cycling over the elements of `views`. The timed call includes copying the
/// view FALLS it is handed. A client keeps every view it sets, so the
/// cluster is rebuilt, untimed, every 1024 calls.
void BM_SetView(benchmark::State& state, std::vector<FallsSet> views) {
  constexpr std::int64_t kEdge = 1024;
  const auto physical = [] {
    return PartitioningPattern(
        partition2d_all(Partition2D::kSquareBlocks, kEdge, kEdge, 4), 0);
  };
  auto fs = std::make_unique<Clusterfile>(ClusterConfig{}, physical());
  std::size_t calls = 0;
  for (auto _ : state) {
    if (calls > 0 && calls % 1024 == 0) {
      state.PauseTiming();
      fs.reset();
      fs = std::make_unique<Clusterfile>(ClusterConfig{}, physical());
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        fs->client(0).set_view(views[calls++ % views.size()], kEdge * kEdge));
  }
}

std::vector<FallsSet> block_cyclic_views() {
  const std::vector<Dist> d = {Dist::block_cyclic(64), Dist::block_cyclic(64)};
  return layout_all(ArrayDesc{{1024, 1024}, 1}, d, GridDesc{{2, 2}});
}

BENCHMARK_CAPTURE(BM_SetView, rows,
                  partition2d_all(Partition2D::kRowBlocks, 1024, 1024, 2));
BENCHMARK_CAPTURE(BM_SetView, columns,
                  partition2d_all(Partition2D::kColumnBlocks, 1024, 1024, 4));
BENCHMARK_CAPTURE(BM_SetView, squares,
                  partition2d_all(Partition2D::kSquareBlocks, 1024, 1024, 4));
BENCHMARK_CAPTURE(BM_SetView, block_cyclic, block_cyclic_views());

}  // namespace

BENCHMARK_MAIN();
