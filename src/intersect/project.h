// Intersection projection (paper section 7): re-expressing an intersection,
// computed in file-linear space, in the linear space of one of the two
// intersected partition elements. The projections are exactly the gather /
// scatter index sets the Clusterfile write path precomputes at view-set time
// (PROJ_V^{V∩S} at the compute node, PROJ_S^{V∩S} at the I/O node).
#pragma once

#include <cstdint>

#include "falls/falls.h"
#include "intersect/intersect.h"
#include "mapping/map.h"

namespace pfm {

/// A projection: byte indices within the element's linear space, periodic
/// with `period` element bytes (the element's share of one common pattern
/// period).
struct Projection {
  FallsSet falls;
  std::int64_t period = 0;

  bool empty() const { return falls.empty(); }
};

/// Projects intersection X onto element e (which must be one of the two
/// elements X was computed from; every byte of X must belong to e). Each
/// member of X maps through e's own FALLS tree, in time proportional to
/// members x depth, into a compact canonical form. Throws ContractViolation
/// for an intersection that does not fit e's block structure, which
/// INTERSECT of e never produces.
Projection project(const Intersection& x, const PatternElement& e);

/// Number of bytes one period of the projection covers in element space
/// (== set_size(x.falls); exposed for sanity checks).
std::int64_t projection_size(const Projection& p);

}  // namespace pfm
