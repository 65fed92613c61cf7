// Nested FALLS intersection (paper section 7, algorithms INTERSECT and
// INTERSECT-AUX).
//
// Given two partition elements S1, S2 belonging to partitioning patterns P1,
// P2 (sizes T1, T2, displacements d1, d2), INTERSECT computes a nested FALLS
// set denoting, in file-linear space relative to the common aligned origin,
// the bytes that belong to both elements within one common period
// lcm(T1, T2). PREPROCESS first extends both patterns over the common period
// and aligns them at max(d1, d2) by rotating the pattern with the smaller
// displacement.
#pragma once

#include <cstdint>

#include "falls/falls.h"

namespace pfm {

/// One partition element in its pattern context (inputs to INTERSECT).
struct PatternElement {
  FallsSet falls;                 ///< the element's nested FALLS set
  std::int64_t pattern_size = 0;  ///< SIZE of the enclosing pattern
  std::int64_t displacement = 0;  ///< file displacement of the pattern
};

/// Result of the nested intersection.
struct Intersection {
  /// Byte indices common to both elements within one common period,
  /// relative to the aligned origin max(d1, d2).
  FallsSet falls;
  /// The common period lcm(T1, T2).
  std::int64_t period = 0;
  /// The aligned origin max(d1, d2): falls indices are file offsets minus
  /// this value.
  std::int64_t origin = 0;

  bool empty() const { return falls.empty(); }
};

/// PREPROCESS for one element: its set rotated to start at `origin` and
/// extended over `common_period` (a multiple of its pattern size), in the
/// index space INTERSECT and PROJ work in, and in file order at every level
/// (in_file_order). Borrows: returns e.falls itself when it is in file order
/// and the rotation is by 0 over one repetition, else the new set, kept in
/// `keep`.
const FallsSet& preprocess(const PatternElement& e, std::int64_t origin,
                           std::int64_t common_period, FallsSet& keep);

/// INTERSECT with PREPROCESS. Throws std::invalid_argument on invalid
/// inputs (pattern sizes < 1, element extent exceeding its pattern size).
Intersection intersect_nested(const PatternElement& e1, const PatternElement& e2);

/// INTERSECT-AUX on two already-aligned sets over a common span: the raw
/// recursive kernel, exposed for unit tests. Limits [a1, b1] and [a2, b2]
/// are the cut windows of the current recursion level (paper line 10);
/// their lengths must match. The result is relative to a1 (== relative to
/// a2 in the aligned space).
FallsSet intersect_aux(const FallsSet& s1, std::int64_t a1, std::int64_t b1,
                       const FallsSet& s2, std::int64_t a2, std::int64_t b2);

}  // namespace pfm
