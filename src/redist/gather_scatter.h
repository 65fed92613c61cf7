// Scatter and gather over nested FALLS (paper section 8): copying between
// the non-contiguous byte positions an index set selects and a contiguous
// buffer. The Clusterfile write path gathers view data into a wire buffer at
// the compute node and scatters it into the subfile at the I/O node; the
// same two procedures implement MPI-style pack/unpack (paper section 3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "falls/falls.h"
#include "util/buffer.h"

namespace pfm {

/// One maximal member run of an access interval [v, w], in coordinates an
/// access plan can replay at any congruent position: `rel_lo` is the run
/// start relative to v, `dest_off` the cumulative byte offset of the run in
/// the gathered (wire) buffer.
struct MaterializedRun {
  std::int64_t rel_lo = 0;
  std::int64_t len = 0;
  std::int64_t dest_off = 0;

  bool operator==(const MaterializedRun&) const = default;
};

/// The product of one materialization traversal of an IndexSet over an
/// access interval: every run, the total byte count, and whether the runs
/// form one contiguous region (the paper's fast path — a single memcpy
/// instead of a gather/scatter walk).
struct RunList {
  std::vector<MaterializedRun> runs;
  std::int64_t bytes = 0;
  bool contiguous = true;  ///< vacuously true when empty
};

/// A periodic index set: the FALLS pattern tiled with `period` (>= extent of
/// the set). It keeps only its FALLS: a set costs O(FALLS nodes), and a run
/// query walks the tree over the queried interval (walk_runs).
class IndexSet {
 public:
  IndexSet() = default;
  IndexSet(FallsSet falls, std::int64_t period);

  const FallsSet& falls() const { return falls_; }
  std::int64_t period() const { return period_; }
  /// Bytes per period.
  std::int64_t size() const { return size_; }

  /// Number of member bytes in [v, w] of the tiled space (w < INT64_MAX).
  std::int64_t count_in(std::int64_t v, std::int64_t w) const;

  /// Invokes fn(l, r) for every maximal member run intersected with [v, w],
  /// in increasing order (runs adjacent across a period boundary are
  /// reported separately).
  template <typename Fn>
  void for_each_run_in(std::int64_t v, std::int64_t w, Fn&& fn) const {
    v = std::max<std::int64_t>(v, 0);
    if (v > w || size_ == 0) return;
    const std::int64_t last = w / period_;
    for (std::int64_t p = v / period_;; ++p) {
      // The window relative to this period's origin, so the walk's
      // arithmetic stays inside one period even next to INT64_MAX.
      const std::int64_t base = p * period_;
      walk_runs(falls_, in_order_, std::max<std::int64_t>(v - base, 0),
                std::min(w - base, period_ - 1),
                [&](std::int64_t a, std::int64_t b) { fn(base + a, base + b); });
      if (p == last) break;
    }
  }

  /// One materialization traversal over [v, w]: the run list with
  /// positions relative to v, the member byte count, and the contiguity
  /// flag.
  RunList materialize_in(std::int64_t v, std::int64_t w) const;

 private:
  FallsSet falls_;
  std::int64_t period_ = 1;
  std::int64_t size_ = 0;
  bool in_order_ = true;  ///< in_file_order(falls_)
};

/// Wire form of a subfile projection, "<period> <falls>": the period in
/// decimal, one space, then the FALLS in the tuple notation of
/// falls/serialize.h. Every Clusterfile kWrite and kRead carries its
/// target's PROJ_S^{V∩S} this way (Message::meta).
std::string encode_projection(const FallsSet& falls, std::int64_t period);

/// Parses encode_projection's output into the index set it describes.
/// Throws std::invalid_argument on anything else: no separator, a period
/// that is not a positive integer, FALLS that fail to parse or exceed the
/// period, or an empty set (a projection always selects some bytes).
IndexSet decode_projection(std::string_view text);

/// GATHER (paper section 8): copies the bytes of `src` at the member
/// positions of `idx` within [v, w] — `src` backs positions [v, w], i.e.
/// src[0] is position v — into the contiguous `dest`. Returns the number of
/// bytes copied. dest must have room for idx.count_in(v, w) bytes.
std::int64_t gather(std::span<std::byte> dest, std::span<const std::byte> src,
                    std::int64_t v, std::int64_t w, const IndexSet& idx);

/// SCATTER: the reverse copy, from contiguous `src` to the member positions
/// of `idx` within [v, w] of `dest` (dest[0] is position v). Returns bytes
/// copied.
std::int64_t scatter(std::span<std::byte> dest, std::span<const std::byte> src,
                     std::int64_t v, std::int64_t w, const IndexSet& idx);

/// GATHER replayed from a materialized run list: the rl.bytes bytes of
/// `src` (src[0] is the access interval's lower extremity — rel_lo 0) the
/// runs select, as one new buffer. Each byte is copied once, with no
/// zero-fill first; the contiguous case is one copy of one span.
Buffer gather_runs(std::span<const std::byte> src, const RunList& rl);

/// SCATTER replayed from a materialized run list: the reverse copy, from
/// contiguous `src` into `dest` at the runs' relative positions.
void scatter_runs(std::span<std::byte> dest, std::span<const std::byte> src,
                  const RunList& rl);

}  // namespace pfm
