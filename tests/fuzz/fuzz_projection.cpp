// Fuzz target: the subfile projection decoder an I/O server runs on every
// request meta and every sync reply (redist/gather_scatter.h), and the
// interval walk that serves the request. The corpus holds both shapes a
// sync reply sends: one full-transfer chunk and a merged multi-range delta.
//
// Contract under test: decode_projection on arbitrary text either returns
// an index set or throws std::invalid_argument. On an accepted set,
// count_in and materialize_in over a window of at most 4 KiB taken from the
// input cost the FALLS nodes and the blocks the window touches, never a
// table of a period's runs (run with -rss_limit_mb=512 so an allocation
// per period is a finding), and the runs are ascending, disjoint, inside
// the window and sum to count_in.
//
// Kept in tests/fuzz/regressions/projection/:
//   - "200000000 {(0,0,2,100000000)}": 29 bytes that made the decoder build
//     10^8 runs (3.7 s, 2 GB) before a server could refuse anything.
//   - "262144 {(0,262143,260144,1)}": a single block whose stride is shorter
//     than the block; the walk's first-block index skipped it.
//   - sync_*: byte sets a hostile peer may send in a sync reply — a member
//     whose extent overflows int64, members out of order, and the
//     "off:len;" range list sync replies used before they carried
//     projections.
//   - interleaved_members_1e8: "200000000 {(0,0,2,100000000),
//     (1,1,2,100000000)}", 47 bytes of valid meta whose members interleave;
//     validation sorted its 2*10^8 runs (seconds, gigabytes) before it
//     tested the members' FALLS nodes pairwise.
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "redist/gather_scatter.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  pfm::IndexSet idx;
  try {
    idx = pfm::decode_projection(text);
  } catch (const std::invalid_argument&) {
    return 0;
  }
  // The window: 1 to 4096 bytes at an offset hashed from the input, half
  // the time against the top of the int64 range, where the per-period
  // arithmetic must not wrap.
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  const auto len = static_cast<std::int64_t>(h % 4096) + 1;
  const std::int64_t top = std::numeric_limits<std::int64_t>::max() - 1;
  const auto offset = static_cast<std::int64_t>((h >> 13) % (std::uint64_t{1} << 50));
  const std::int64_t v = (h >> 12) & 1 ? top - len + 1 - offset % 65536 : offset;
  const std::int64_t w = v + len - 1;

  const std::int64_t n = idx.count_in(v, w);
  const pfm::RunList rl = idx.materialize_in(v, w);
  std::int64_t next = 0;  // first relative position the next run may take
  std::int64_t sum = 0;
  for (const pfm::MaterializedRun& run : rl.runs) {
    PFM_CHECK(run.len > 0 && run.rel_lo >= next && run.rel_lo + run.len <= len,
              "fuzz_projection: run (", run.rel_lo, ", ", run.len,
              ") out of order or outside the window for: ", text);
    PFM_CHECK(run.dest_off == sum, "fuzz_projection: run at ", run.rel_lo,
              " has dest_off ", run.dest_off, " after ", sum, " bytes");
    next = run.rel_lo + run.len;
    sum += run.len;
  }
  PFM_CHECK(sum == n && rl.bytes == n, "fuzz_projection: runs hold ", sum,
            " bytes, materialize_in says ", rl.bytes, ", count_in says ", n,
            " for: ", text);
  return 0;
}
