// Flat FALLS intersection (Ramaswamy & Banerjee, used by paper section 7).
//
// INTERSECT-FALLS(f1, f2) computes a FALLS set denoting exactly the byte
// indices common to f1 and f2. The algorithm exploits periodicity: the
// intersection pattern repeats with period T = lcm(s1, s2), so only segment
// pairs within one period need to be examined; each intersecting pair yields
// one FALLS with stride T whose repetition count is clipped by the shorter
// of the two families' remaining extents.
#pragma once

#include "falls/falls.h"

namespace pfm {

/// Byte-exact intersection of two flat FALLS (inner sets are ignored; use
/// intersect_nested for trees). Result members are sorted by l.
FallsSet intersect_falls(const Falls& f1, const Falls& f2);

/// intersect_falls(f1, f2) appended to `out`.
void append_intersection(FallsSet& out, const Falls& f1, const Falls& f2);

/// Intersection of two flat FALLS sets (pairwise union).
FallsSet intersect_falls_sets(const FallsSet& a, const FallsSet& b);

}  // namespace pfm
