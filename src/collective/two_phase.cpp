#include "collective/two_phase.h"

#include <stdexcept>

#include "util/timer.h"

namespace pfm {

namespace {

void check_inputs(const Clusterfile& fs, const PartitioningPattern& logical,
                  const std::vector<Buffer>& view_data, std::int64_t file_size) {
  if (view_data.size() != logical.element_count())
    throw std::invalid_argument("collective I/O: view buffer count mismatch");
  for (std::size_t k = 0; k < view_data.size(); ++k)
    if (static_cast<std::int64_t>(view_data[k].size()) !=
        logical.element_bytes(k, file_size))
      throw std::invalid_argument("collective I/O: view buffer size mismatch");
  if (logical.displacement() != fs.physical().displacement())
    throw std::invalid_argument("collective I/O: displacement mismatch");
}

/// One access per element k of `pattern` whose buffer is non-empty: compute
/// node k mod compute_nodes sets a view equal to element k, and
/// `access(client, view id, k)` writes or reads buffer k through it. The
/// requests, bytes and reliability outcome add up in `out`.
template <typename Access>
void access_by_element(Clusterfile& fs, const PartitioningPattern& pattern,
                       const std::vector<Buffer>& bufs, CollectiveStats& out,
                       const Access& access) {
  for (std::size_t k = 0; k < bufs.size(); ++k) {
    if (bufs[k].empty()) continue;
    ClusterfileClient& client =
        fs.client(static_cast<int>(k) % fs.compute_nodes());
    const std::int64_t vid = client.set_view(pattern.element(k), pattern.size());
    const ClusterfileClient::AccessTimings a = access(client, vid, k);
    out.requests += a.messages;
    out.bytes += a.bytes;
    out.rel += a.rel;
  }
}

/// The last view offset of buffer b.
std::int64_t last_offset(const Buffer& b) { return static_cast<std::int64_t>(b.size()) - 1; }

}  // namespace

CollectiveStats collective_write(Clusterfile& fs,
                                 const PartitioningPattern& logical,
                                 const std::vector<Buffer>& view_data,
                                 std::int64_t file_size) {
  check_inputs(fs, logical, view_data, file_size);
  const PartitioningPattern& phys = fs.physical();
  CollectiveStats out;

  // Phase 1: exchange into the conforming (physical) distribution.
  std::vector<Buffer> agg;
  {
    Timer t;
    out.exchange = redistribute(logical, phys, view_data, agg, file_size);
    out.exchange_us = t.elapsed_us();
  }

  // Phase 2: every aggregator writes its piece through a view identical to
  // its subfile — the optimal-overlap case, one contiguous request each.
  {
    Timer t;
    access_by_element(fs, phys, agg, out,
                      [&](ClusterfileClient& c, std::int64_t vid, std::size_t i) {
                        return c.write(vid, 0, last_offset(agg[i]), agg[i]);
                      });
    out.io_us = t.elapsed_us();
  }
  return out;
}

CollectiveStats independent_write(Clusterfile& fs,
                                  const PartitioningPattern& logical,
                                  const std::vector<Buffer>& view_data,
                                  std::int64_t file_size) {
  check_inputs(fs, logical, view_data, file_size);
  CollectiveStats out;
  Timer t;
  access_by_element(fs, logical, view_data, out,
                    [&](ClusterfileClient& c, std::int64_t vid, std::size_t k) {
                      return c.write(vid, 0, last_offset(view_data[k]), view_data[k]);
                    });
  out.io_us = t.elapsed_us();
  return out;
}

CollectiveStats collective_read(Clusterfile& fs,
                                const PartitioningPattern& logical,
                                std::vector<Buffer>& view_data,
                                std::int64_t file_size) {
  const PartitioningPattern& phys = fs.physical();
  CollectiveStats out;

  // Phase 1: aggregators read conforming pieces (contiguous fast path).
  std::vector<Buffer> agg(phys.element_count());
  {
    Timer t;
    for (std::size_t i = 0; i < phys.element_count(); ++i)
      agg[i].resize(static_cast<std::size_t>(phys.element_bytes(i, file_size)));
    access_by_element(fs, phys, agg, out,
                      [&](ClusterfileClient& c, std::int64_t vid, std::size_t i) {
                        return c.read(vid, 0, last_offset(agg[i]), agg[i]);
                      });
    out.io_us = t.elapsed_us();
  }

  // Phase 2: redistribute memory-memory into the logical partition.
  {
    Timer t;
    out.exchange = redistribute(phys, logical, agg, view_data, file_size);
    out.exchange_us = t.elapsed_us();
  }
  return out;
}

}  // namespace pfm
