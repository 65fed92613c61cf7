// The parallel file model (paper section 5): a file is a linear sequence of
// bytes described by a displacement and a partitioning pattern. The pattern
// is the union of m sets of nested FALLS, each defining one partition
// element (a subfile when the partition is physical, a view element when it
// is logical); it must tile a contiguous region [0, SIZE(P)) without
// overlap, and is applied repeatedly through the file's linear space
// starting at the displacement.
#pragma once

#include <cstdint>
#include <vector>

#include "falls/falls.h"
#include "intersect/intersect.h"
#include "mapping/map.h"

namespace pfm {

class PartitioningPattern {
 public:
  /// Builds and validates a pattern. Throws std::invalid_argument unless the
  /// element sets tile [0, sum of sizes) exactly (contiguous, non-
  /// overlapping — the paper's structural requirements).
  PartitioningPattern(std::vector<FallsSet> elements, std::int64_t displacement);

  std::int64_t displacement() const { return displacement_; }
  /// SIZE(P): the pattern period (sum of all element sizes).
  std::int64_t size() const { return size_; }
  std::size_t element_count() const { return elements_.size(); }
  const FallsSet& element(std::size_t i) const { return elements_.at(i).falls; }
  /// Copies of every element's FALLS (for metadata records).
  std::vector<FallsSet> elements() const;

  /// The element's context for the mapping functions of mapping/map.h.
  ElementRef element_ref(std::size_t i) const;
  /// The element's context for the intersection algorithm, built once by
  /// the constructor.
  const PatternElement& pattern_element(std::size_t i) const {
    return elements_.at(i);
  }

  /// Which element the file byte at `file_off` belongs to (file_off must be
  /// >= displacement). Every byte belongs to exactly one element.
  std::size_t element_of(std::int64_t file_off) const;

  /// MAP / MAP^-1 convenience wrappers for element i.
  std::int64_t map_to_element(std::size_t i, std::int64_t file_off,
                              Round round = Round::kExact) const;
  std::int64_t map_to_file(std::size_t i, std::int64_t elem_off) const;

  /// Bytes element i holds of a file of `file_size` bytes (counting the
  /// partial final period).
  std::int64_t element_bytes(std::size_t i, std::int64_t file_size) const;

 private:
  std::vector<PatternElement> elements_;
  std::int64_t displacement_ = 0;
  std::int64_t size_ = 0;
};

/// Convenience: pattern from per-element FALLS sets produced by the layout
/// builders (partition2d_all / layout_all), displacement 0 by default.
PartitioningPattern make_pattern(std::vector<FallsSet> elements,
                                 std::int64_t displacement = 0);

}  // namespace pfm
