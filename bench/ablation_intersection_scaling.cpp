// Ablation A3: what drives the intersection cost t_i — matrix size (the
// paper reports it roughly size-independent for fixed partitions), the
// match quality of the two partitions, and the processor count (number of
// partition elements).
#include <cstdio>

#include "falls/compress.h"
#include "file_model/pattern.h"
#include "intersect/project.h"
#include "layout/partitions2d.h"
#include "util/timer.h"

namespace {

/// One full view-set worth of intersections: one view element against every
/// subfile, projections included (what t_i measures).
double view_set_us(const pfm::PartitioningPattern& phys, const pfm::FallsSet& view,
                   std::int64_t pattern_size, std::int64_t* nodes_out) {
  using namespace pfm;
  Timer t;
  std::int64_t nodes = 0;
  const PatternElement v{view, pattern_size, 0};
  for (std::size_t j = 0; j < phys.element_count(); ++j) {
    const Intersection x = intersect_nested(v, phys.pattern_element(j));
    if (x.empty()) continue;
    const Projection pv = project(x, v);
    const Projection ps = project(x, phys.pattern_element(j));
    nodes += node_count(pv.falls) + node_count(ps.falls);
  }
  if (nodes_out != nullptr) *nodes_out = nodes;
  return t.elapsed_us();
}

}  // namespace

int main() {
  using namespace pfm;

  std::printf("Ablation A3: intersection + projection cost (one view set)\n\n");

  std::printf("(a) vs matrix size, 4 subfiles, logical r:\n");
  std::printf("%6s %12s %12s %12s %16s\n", "N", "c/r (us)", "b/r (us)", "r/r (us)",
              "nodes c/b/r");
  for (const std::int64_t n : {256, 512, 1024, 2048, 4096}) {
    double us[3] = {0, 0, 0};
    std::int64_t nodes[3] = {0, 0, 0};
    const Partition2D phys_kinds[] = {Partition2D::kColumnBlocks,
                                      Partition2D::kSquareBlocks,
                                      Partition2D::kRowBlocks};
    const auto view = partition2d_falls(Partition2D::kRowBlocks, n, n, 4, 0);
    for (int k = 0; k < 3; ++k) {
      auto elems = partition2d_all(phys_kinds[k], n, n, 4);
      const PartitioningPattern phys({elems.begin(), elems.end()}, 0);
      us[k] = view_set_us(phys, view, n * n, &nodes[k]);
    }
    std::printf("%6lld %12.0f %12.0f %12.0f %8lld/%lld/%lld\n", static_cast<long long>(n),
                us[0], us[1], us[2], static_cast<long long>(nodes[0]),
                static_cast<long long>(nodes[1]), static_cast<long long>(nodes[2]));
  }

  std::printf("\n(b) vs element count, N=1024, c/r:\n");
  std::printf("%10s %12s %16s\n", "elements", "t_i (us)", "result nodes");
  for (const std::int64_t parts : {2, 4, 8, 16, 32}) {
    auto elems = partition2d_all(Partition2D::kColumnBlocks, 1024, 1024, parts);
    const PartitioningPattern phys({elems.begin(), elems.end()}, 0);
    const auto view = partition2d_falls(Partition2D::kRowBlocks, 1024, 1024, parts, 0);
    std::int64_t nodes = 0;
    const double us = view_set_us(phys, view, 1024 * 1024, &nodes);
    std::printf("%10lld %12.0f %16lld\n", static_cast<long long>(parts), us,
                static_cast<long long>(nodes));
  }

  std::printf("\nExpected shape: cost and result nodes are flat in N for fixed\n"
              "partitions — INTERSECT and PROJ work per FALLS member, not per\n"
              "matrix row (the paper's 'does not vary significantly'); matched\n"
              "r/r is cheapest; more elements mean more pairwise intersections.\n");
  return 0;
}
