// Adaptive physical layout: the end-to-end story the paper sketches in
// section 3 — observe an access pattern, score candidate layouts with the
// matching-degree metric, redistribute the file on the fly, and watch the
// per-request cost drop. Also exercises the metadata manager and two-phase
// collective writes along the way.
#include <cstdio>

#include "clusterfile/fs.h"
#include "clusterfile/metadata.h"
#include "collective/two_phase.h"
#include "layout/partitions2d.h"
#include "redist/matching.h"
#include "workload/trace.h"

int main() {
  using namespace pfm;

  const std::int64_t n = 256;
  auto col_elems = partition2d_all(Partition2D::kColumnBlocks, n, n, 4);
  const PartitioningPattern initial({col_elems.begin(), col_elems.end()}, 0);
  auto row_elems = partition2d_all(Partition2D::kRowBlocks, n, n, 4);
  const PartitioningPattern logical({row_elems.begin(), row_elems.end()}, 0);

  // Record the file in the metadata manager, as Clusterfile's metadata
  // component would.
  MetadataManager meta;
  FileRecord rec;
  rec.name = "matrix.dat";
  rec.size = n * n;
  rec.subfile_falls = {col_elems.begin(), col_elems.end()};
  rec.replica_nodes = {{4}, {5}, {6}, {7}};
  meta.create(rec);
  std::printf("created %s: %lld bytes, %zu subfiles (column blocks)\n\n",
              rec.name.c_str(), static_cast<long long>(rec.size),
              rec.subfile_falls.size());

  Clusterfile fs(ClusterConfig{}, initial);

  // Populate the file collectively from row-block view data.
  const Buffer image = make_pattern_buffer(static_cast<std::size_t>(n * n), 5);
  std::vector<Buffer> views(logical.element_count());
  for (std::size_t k = 0; k < views.size(); ++k) {
    const IndexSet idx(logical.element(k), logical.size());
    views[k].resize(static_cast<std::size_t>(idx.count_in(0, n * n - 1)));
    gather(views[k], image, 0, n * n - 1, idx);
  }
  collective_write(fs, logical, views, n * n);

  // The application then issues a strided row-oriented workload: every
  // fourth matrix row (one full row per request, so a request straddles all
  // four column subfiles but exactly one row subfile).
  const AccessTrace trace = make_strided(0, n, 4 * n, n / 4 / 4);
  const auto run_workload = [&](const char* label) {
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(logical.element(0), logical.size());
    const ReplayStats s = replay_writes(client, vid, trace, views[0]);
    std::printf("%-28s %4lld ops -> %5lld server msgs, %8.0f us total\n",
                label, static_cast<long long>(s.ops),
                static_cast<long long>(s.messages), s.t_w_us + s.t_g_us);
    return s;
  };
  const ReplayStats before = run_workload("workload on column layout:");

  // Score candidate layouts against the observed logical partition.
  std::printf("\nmatching scores against the row-block access pattern:\n");
  const Partition2D candidates[] = {Partition2D::kColumnBlocks,
                                    Partition2D::kSquareBlocks,
                                    Partition2D::kRowBlocks};
  Partition2D best = Partition2D::kColumnBlocks;
  double best_score = -1;
  for (const Partition2D c : candidates) {
    auto elems = partition2d_all(c, n, n, 4);
    const MatchingDegree m =
        matching_degree(PartitioningPattern({elems.begin(), elems.end()}, 0), logical);
    std::printf("  %-14s score %.3f (locality %.2f, %lld runs/period)\n",
                to_string(c).c_str(), m.score(), m.locality,
                static_cast<long long>(m.runs_per_period));
    if (m.score() > best_score) {
      best_score = m.score();
      best = c;
    }
  }
  std::printf("-> relayout to %s\n\n", to_string(best).c_str());

  // On-the-fly disk redistribution (paper section 3), with the metadata
  // record updated alongside.
  auto best_elems = partition2d_all(best, n, n, 4);
  fs.relayout(PartitioningPattern({best_elems.begin(), best_elems.end()}, 0), n * n);
  rec.subfile_falls = {best_elems.begin(), best_elems.end()};
  meta.update(rec);

  const ReplayStats after = run_workload("workload on adapted layout:");
  std::printf("\nserver messages per op: %.1f -> %.1f\n",
              static_cast<double>(before.messages) / static_cast<double>(before.ops),
              static_cast<double>(after.messages) / static_cast<double>(after.ops));
  const bool ok = after.messages < before.messages;
  std::printf("%s\n", ok ? "adaptation reduced request fragmentation, as the "
                           "paper's motivation predicts."
                         : "UNEXPECTED: no improvement");
  return ok ? 0 : 1;
}
