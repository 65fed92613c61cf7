// Nested FALLS: the data representation at the core of the parallel file
// model (paper section 4).
//
// A line segment (l, r) describes the contiguous bytes [l, r] of a file.
// A FALLS (l, r, s, n) describes n equally sized, equally spaced segments:
// the k-th segment is [l + k*s, r + k*s]. A *nested* FALLS additionally
// carries a set of inner FALLS, expressed relative to the left index of the
// outer block, which select a subset of every outer block. A set of nested
// FALLS denotes the union of its members' byte sets; it is the description
// of one partition element (a subfile or a view).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace pfm {

/// Contiguous byte range [l, r], both inclusive (paper's line segment).
struct LineSegment {
  std::int64_t l = 0;
  std::int64_t r = 0;

  std::int64_t size() const { return r - l + 1; }
  bool operator==(const LineSegment&) const = default;
};

struct Falls;

/// A set of nested FALLS; denotes the union of the members' byte sets.
/// Members are kept sorted by left index and non-overlapping (see
/// validate_falls_set).
using FallsSet = std::vector<Falls>;

/// One (possibly nested) FALLS. With an empty `inner`, every block [l+k*s,
/// r+k*s] belongs wholly to the set; otherwise only the bytes selected by
/// `inner` (relative to the block's left index) do.
struct Falls {
  std::int64_t l = 0;  ///< left index of the first block
  std::int64_t r = 0;  ///< right index of the first block (inclusive)
  std::int64_t s = 1;  ///< stride between consecutive blocks
  std::int64_t n = 1;  ///< number of blocks
  FallsSet inner;      ///< inner FALLS, relative to each block's left index

  bool leaf() const { return inner.empty(); }
  /// Length of one block in bytes (r - l + 1).
  std::int64_t block_len() const { return r - l + 1; }
  bool operator==(const Falls&) const = default;
};

/// Convenience constructors.
Falls make_falls(std::int64_t l, std::int64_t r, std::int64_t s, std::int64_t n);
Falls make_nested(std::int64_t l, std::int64_t r, std::int64_t s, std::int64_t n,
                  FallsSet inner);
/// A line segment (l, r) as the FALLS (l, r, r - l + 1, 1).
Falls from_segment(const LineSegment& seg);

/// Number of bytes denoted by f / by all members of set (paper's SIZE).
std::int64_t falls_size(const Falls& f);
std::int64_t set_size(const FallsSet& set);

/// One past the last byte index touched by f / set (0 for an empty set).
/// For f: l + (n-1)*s + block_len().
std::int64_t falls_extent(const Falls& f);
std::int64_t set_extent(const FallsSet& set);

/// Height of the nesting tree: 1 for a leaf FALLS. For a set: the maximum
/// over members, 0 for an empty set.
int falls_height(const Falls& f);
int set_height(const FallsSet& set);

/// Structural validity of a nested FALLS:
///  - l >= 0, l <= r, n >= 1, s >= 1
///  - blocks must not overlap: s >= block_len when n > 1
///  - inner FALLS must lie within [0, block_len) and be valid themselves,
///    sorted by l with non-overlapping spans.
/// Throws std::invalid_argument with a description when invalid.
void validate_falls(const Falls& f);

/// Validity of a set: every member valid, members sorted by l, member spans
/// non-overlapping in the first period (the paper keeps partition elements
/// disjoint; overlap checks use spans, i.e. [l, extent) ranges).
void validate_falls_set(const FallsSet& set);

/// True when at every level each member starts at or past the previous
/// member's extent, so walking the tree visits its bytes in increasing
/// order. Intersection and projection results may interleave members.
bool in_file_order(const FallsSet& set);

namespace detail {

/// One FALLS of for_each_run: f's blocks lie f.l + k*s bytes after `base`,
/// and the window [lo, hi] is relative to `base`. Only the blocks k0..k1
/// that intersect the window are visited (paper section 8's interval
/// limits).
template <typename Fn>
void walk_falls(const Falls& f, std::int64_t base, std::int64_t lo,
                std::int64_t hi, Fn& fn) {
  if (hi < f.l) return;
  const std::int64_t len = f.block_len();
  // First block ending at or after lo, last block starting at or before hi
  // (a single block may have any stride, even one shorter than itself).
  const std::int64_t past = lo - f.l - len + 1;
  const std::int64_t k0 = past <= 0 ? 0 : past / f.s + (past % f.s != 0);
  const std::int64_t k1 = std::min(f.n - 1, (hi - f.l) / f.s);
  for (std::int64_t k = k0; k <= k1; ++k) {
    const std::int64_t b = f.l + k * f.s;
    if (f.leaf()) {
      const bool abut = f.s == len;  // then blocks k..k1 are one block
      fn(base + std::max(b, lo),
         base + std::min((abut ? f.l + k1 * f.s : b) + len - 1, hi));
      if (abut) return;
    } else {
      for (const Falls& g : f.inner) walk_falls(g, base + b, lo - b, hi - b, fn);
    }
  }
}

}  // namespace detail

/// The interval-limited walk of paper section 8's GATHER/SCATTER: invokes
/// fn(a, b) for every leaf block of `set` that intersects [lo, hi] (by
/// default, every block), clipped to it, in tree order: member by member,
/// block by block. A leaf family whose blocks abut (s == block_len) is one
/// block. Blocks are not joined, and come in increasing order only when
/// in_file_order(set). Costs O(nodes + blocks intersecting the window).
template <typename Fn>
void for_each_run(const FallsSet& set, Fn&& fn, std::int64_t lo = 0,
                  std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  for (const Falls& f : set) detail::walk_falls(f, 0, lo, hi, fn);
}

/// for_each_run joined into maximal runs: invokes fn(a, b) for every
/// maximal run of `set` inside [lo, hi], clipped to it, in increasing order.
/// `in_order` must be in_file_order(set); when false, the window's blocks
/// are sorted before they are joined.
template <typename Fn>
void walk_runs(const FallsSet& set, bool in_order, std::int64_t lo,
               std::int64_t hi, Fn&& fn) {
  std::int64_t a = 0;
  std::int64_t b = -1;  // the open run [a, b]; none while b < a
  const auto join = [&](std::int64_t l, std::int64_t r) {
    if (l > b + 1) {
      if (a <= b) fn(a, b);
      a = l;
    }
    b = std::max(b, r);
  };
  if (in_order) {
    for_each_run(set, join, lo, hi);
  } else {
    std::vector<std::pair<std::int64_t, std::int64_t>> blocks;
    for_each_run(
        set, [&](std::int64_t l, std::int64_t r) { blocks.emplace_back(l, r); },
        lo, hi);
    std::sort(blocks.begin(), blocks.end());
    for (const auto& [l, r] : blocks) join(l, r);
  }
  if (a <= b) fn(a, b);
}

/// Enumerates every byte index of the set in increasing order (test oracle;
/// only sensible for small extents).
std::vector<std::int64_t> set_bytes(const FallsSet& set);
std::vector<std::int64_t> falls_bytes(const Falls& f);

/// All maximal runs as line segments, in increasing order (walk_runs over
/// the whole set).
std::vector<LineSegment> set_runs(const FallsSet& set);

/// Shifts every byte of the set by delta (delta may be negative as long as
/// no resulting index is negative).
FallsSet shift_set(const FallsSet& set, std::int64_t delta);
Falls shift_falls(const Falls& f, std::int64_t delta);

/// Wraps a set into a single-block outer FALLS spanning [0, span), used by
/// the intersection algorithm to equalize tree heights and to extend a
/// partitioning pattern over several periods (count outer repetitions).
Falls wrap_outer(FallsSet inner, std::int64_t span, std::int64_t count = 1);

/// Increases the height of every branch to exactly `height` by inserting
/// trivial inner FALLS (0, block_len-1, block_len, 1) at the leaves.
FallsSet equalize_height(const FallsSet& set, int height);

}  // namespace pfm
