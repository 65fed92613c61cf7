// Compression of run lists into compact FALLS sets.
//
// A run list compresses back into FALLS so that the regularity of array
// partitions is preserved: a list of one BLOCK distribution's runs becomes a
// handful of FALLS instead of thousands of line segments. PROJ (paper
// section 7) uses it only as its exact fallback, for intersections its
// structural walk cannot map; that walk, not run compression, keeps
// view-setting cost (t_i in Table 1) size-independent. wrap_repetitions is
// also the last rule of the walk's canonical form.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "falls/falls.h"

namespace pfm {

/// Greedy single-level compression: groups maximal arithmetic progressions
/// of equal-length runs into flat FALLS. Input runs must be sorted by l,
/// disjoint and non-adjacent (i.e. maximal). O(runs).
FallsSet compress_runs(std::span<const LineSegment> runs);

/// When the member list is k >= 2 repetitions of its prefix shifted by a
/// constant period, wraps the prefix into one outer FALLS; otherwise returns
/// the list unchanged. Members are compared structurally, inner sets included.
FallsSet wrap_repetitions(FallsSet members);

/// Two-level compression: compress_runs, then wrap_repetitions. Applied
/// repeatedly this recovers nested structure of multidimensional partitions.
FallsSet compress_runs_nested(std::span<const LineSegment> runs);

/// Re-compresses an arbitrary FALLS set by enumerating its runs. The result
/// denotes the same byte set with a canonical (often smaller) structure.
FallsSet recompress(const FallsSet& set);

/// Number of FALLS nodes in the set (tree nodes, all levels) — a measure of
/// representation compactness used by the compression ablation.
std::int64_t node_count(const FallsSet& set);

}  // namespace pfm
