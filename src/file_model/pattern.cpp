#include "file_model/pattern.h"

#include <stdexcept>

#include "falls/set_ops.h"
#include "util/check.h"

namespace pfm {

PartitioningPattern::PartitioningPattern(std::vector<FallsSet> elements,
                                         std::int64_t displacement)
    : displacement_(displacement) {
  if (displacement_ < 0)
    throw std::invalid_argument("PartitioningPattern: negative displacement");
  if (elements.empty())
    throw std::invalid_argument("PartitioningPattern: no elements");
  // Tiling check: every element is valid and lies inside [0, size_), and
  // no byte is in two elements, so together they cover [0, size_) once.
  size_ = 0;
  for (const FallsSet& e : elements) {
    validate_falls_set(e);
    size_ += set_size(e);
  }
  if (size_ == 0) throw std::invalid_argument("PartitioningPattern: size 0");
  for (const FallsSet& e : elements)
    if (last_byte(e).value_or(0) >= size_)
      throw std::invalid_argument("PartitioningPattern: element past the pattern size");
  validate_disjoint(elements);
  elements_.reserve(elements.size());
  for (FallsSet& e : elements)
    elements_.push_back(PatternElement{std::move(e), size_, displacement_});
}

std::vector<FallsSet> PartitioningPattern::elements() const {
  std::vector<FallsSet> out;
  out.reserve(elements_.size());
  for (const PatternElement& e : elements_) out.push_back(e.falls);
  return out;
}

ElementRef PartitioningPattern::element_ref(std::size_t i) const {
  return ElementRef{&elements_.at(i).falls, displacement_, size_};
}

std::size_t PartitioningPattern::element_of(std::int64_t file_off) const {
  if (file_off < displacement_)
    throw std::domain_error("element_of: offset before displacement");
  const std::int64_t phase = (file_off - displacement_) % size_;
  for (std::size_t i = 0; i < elements_.size(); ++i)
    if (set_contains(elements_[i].falls, phase)) return i;
  // The constructor proved the elements tile [0, size_) exactly.
  PFM_UNREACHABLE("element_of: no element owns phase ", phase);
}

std::int64_t PartitioningPattern::map_to_element(std::size_t i,
                                                 std::int64_t file_off,
                                                 Round round) const {
  return ::pfm::map_to_element(element_ref(i), file_off, round);
}

std::int64_t PartitioningPattern::map_to_file(std::size_t i,
                                              std::int64_t elem_off) const {
  return ::pfm::map_to_file(element_ref(i), elem_off);
}

std::int64_t PartitioningPattern::element_bytes(std::size_t i,
                                                std::int64_t file_size) const {
  if (file_size <= displacement_) return 0;
  const std::int64_t span = file_size - displacement_;
  const std::int64_t periods = span / size_;
  const std::int64_t tail = span % size_;
  const FallsSet& e = element(i);
  std::int64_t bytes = periods * set_size(e);
  if (tail > 0) bytes += set_rank(e, tail);
  return bytes;
}

PartitioningPattern make_pattern(std::vector<FallsSet> elements,
                                 std::int64_t displacement) {
  return PartitioningPattern(std::move(elements), displacement);
}

}  // namespace pfm
