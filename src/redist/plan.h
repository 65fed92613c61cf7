// Redistribution planning (paper section 7): converting a file between two
// partitioning patterns by intersecting every pair of partition elements
// and projecting each nonempty intersection onto both elements' linear
// spaces. The projections are the per-pair gather/scatter index sets; the
// paper's key point is that data then moves as whole segments, never as
// single bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "file_model/pattern.h"
#include "intersect/intersect.h"
#include "redist/gather_scatter.h"

namespace pfm {

/// One source-element -> destination-element data movement.
struct Transfer {
  std::size_t src_elem = 0;
  std::size_t dst_elem = 0;
  /// Common bytes in file space (aligned at the plan's origin, one common
  /// period).
  FallsSet common;
  /// Gather indices in the source element's linear space (periodic).
  IndexSet src_idx;
  /// Scatter indices in the destination element's linear space (periodic).
  IndexSet dst_idx;
  /// Bytes this pair exchanges per common period.
  std::int64_t bytes_per_period = 0;
  /// Contiguous runs per common period (network/copy fragmentation proxy).
  std::int64_t runs_per_period = 0;
};

struct RedistPlan {
  std::int64_t period = 0;  ///< lcm of the two pattern sizes
  std::int64_t origin = 0;  ///< max of the two displacements
  std::vector<Transfer> transfers;

  /// Total bytes exchanged per period (== period when patterns share the
  /// displacement, since every byte has a source and a destination).
  std::int64_t bytes_per_period() const;
};

/// Builds the full pairwise plan. Cost: one nested intersection and two
/// projections per element pair with overlapping data. In checked builds
/// (PFM_DCHECK_ENABLED) the result is passed through validate_plan.
RedistPlan build_plan(const PartitioningPattern& from, const PartitioningPattern& to);

/// Structural invariants of a plan against the two patterns it was built
/// from (paper section 7: the projections of every intersection are
/// equal-sized index sets inside their elements' linear spaces):
///  - period == lcm of the pattern sizes, origin == max displacement;
///  - element indices in range, transfers unique per (src, dst) pair;
///  - per transfer: gather and scatter index sets are structurally valid,
///    fit inside one projection period, and their sizes both equal
///    bytes_per_period (gather total == scatter total);
///  - per source element, the gather index sets of its transfers are
///    pairwise disjoint (each source byte has one destination); likewise
///    per destination element for the scatter sets;
///  - when the patterns share a displacement, the transfers together move
///    exactly `period` bytes (every file byte has a source and a
///    destination).
/// Throws ContractViolation (util/check.h) describing the first violation.
void validate_plan(const RedistPlan& plan, const PartitioningPattern& from,
                   const PartitioningPattern& to);

}  // namespace pfm
