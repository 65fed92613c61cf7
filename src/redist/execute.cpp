#include "redist/execute.h"

#include <stdexcept>

#include "util/check.h"

namespace pfm {

RedistStats execute_redist(const RedistPlan& plan, const PartitioningPattern& from,
                           const PartitioningPattern& to,
                           const std::vector<Buffer>& src, std::vector<Buffer>& dst,
                           std::int64_t file_size) {
  if (from.displacement() != to.displacement())
    throw std::invalid_argument("execute_redist: displacements must match");
  if (file_size < 0)
    throw std::invalid_argument("execute_redist: negative file size");
  // A plan not built from these patterns would scatter bytes to wrong
  // offsets without any visible failure; revalidate it in checked builds.
  if constexpr (kDcheckEnabled) validate_plan(plan, from, to);
  if (src.size() != from.element_count())
    throw std::invalid_argument("execute_redist: source buffer count mismatch");
  for (std::size_t i = 0; i < src.size(); ++i)
    if (static_cast<std::int64_t>(src[i].size()) != from.element_bytes(i, file_size))
      throw std::invalid_argument("execute_redist: source buffer size mismatch");

  dst.assign(to.element_count(), Buffer{});
  for (std::size_t j = 0; j < to.element_count(); ++j)
    dst[j].resize(static_cast<std::size_t>(to.element_bytes(j, file_size)));

  RedistStats stats;
  if (file_size <= plan.origin) return stats;

  // One wire buffer per transfer: the gather/scatter hand-off the paper's
  // nodes perform pairwise.
  for (const Transfer& t : plan.transfers) {
    // Element-space limits corresponding to file bytes [origin, file_size):
    // MAP is monotone, so they are plain byte counts.
    const std::int64_t src_limit = from.element_bytes(t.src_elem, file_size);
    const std::int64_t dst_limit = to.element_bytes(t.dst_elem, file_size);
    if (src_limit == 0 || dst_limit == 0) continue;
    const std::int64_t n = t.src_idx.count_in(0, src_limit - 1);
    if (n == 0) continue;
    Buffer wire(static_cast<std::size_t>(n));
    const std::int64_t gathered =
        gather(wire, src[t.src_elem], 0, src_limit - 1, t.src_idx);
    const std::int64_t scattered =
        scatter(dst[t.dst_elem], wire, 0, dst_limit - 1, t.dst_idx);
    PFM_CHECK(gathered == n && scattered == n,
              "execute_redist: transfer ", t.src_elem, "->", t.dst_elem,
              " gathered ", gathered, " and scattered ", scattered,
              " of ", n, " bytes");
    stats.bytes_moved += n;
    ++stats.messages;
    const auto count_run = [&](std::int64_t, std::int64_t) { ++stats.copy_runs; };
    t.src_idx.for_each_run_in(0, src_limit - 1, count_run);
    t.dst_idx.for_each_run_in(0, dst_limit - 1, count_run);
  }
  return stats;
}

RedistStats redistribute(const PartitioningPattern& from,
                         const PartitioningPattern& to,
                         const std::vector<Buffer>& src, std::vector<Buffer>& dst,
                         std::int64_t file_size) {
  const RedistPlan plan = build_plan(from, to);
  return execute_redist(plan, from, to, src, dst, file_size);
}

}  // namespace pfm
