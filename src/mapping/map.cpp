#include "mapping/map.h"

#include <algorithm>
#include <ranges>
#include <stdexcept>

#include "falls/set_ops.h"
#include "util/arith.h"
#include "util/check.h"

namespace pfm {

namespace {

std::optional<std::int64_t> set_next_member(const FallsSet& set, std::int64_t x);
std::optional<std::int64_t> set_prev_member(const FallsSet& set, std::int64_t x);

std::int64_t falls_first_byte(const Falls& f) {
  return f.leaf() ? f.l : f.l + *set_next_member(f.inner, 0);
}

/// Smallest member byte of f that is >= x, within f's extent.
std::optional<std::int64_t> falls_next_member(const Falls& f, std::int64_t x) {
  if (x <= f.l) return falls_first_byte(f);
  const std::int64_t rel = x - f.l;
  std::int64_t k = rel / f.s;
  if (k >= f.n) return std::nullopt;
  const std::int64_t within = rel - k * f.s;
  if (f.leaf()) {
    if (within < f.block_len()) return x;
  } else {
    const auto nb = set_next_member(f.inner, within);
    if (nb.has_value()) return f.l + k * f.s + *nb;
  }
  // x falls past this block's member bytes: use the next block, if any.
  ++k;
  if (k >= f.n) return std::nullopt;
  return f.l + k * f.s + (f.leaf() ? 0 : *set_next_member(f.inner, 0));
}

/// Largest member byte of f that is <= x.
std::optional<std::int64_t> falls_prev_member(const Falls& f, std::int64_t x) {
  if (x < f.l) return std::nullopt;
  const std::int64_t rel = x - f.l;
  std::int64_t k = std::min(rel / f.s, f.n - 1);
  const std::int64_t within = rel - k * f.s;
  if (f.leaf()) {
    if (within < f.block_len()) return x;
    return f.l + k * f.s + f.block_len() - 1;  // end of this block
  }
  const auto pb = set_prev_member(f.inner, within);
  if (pb.has_value()) return f.l + k * f.s + *pb;
  // x precedes every member byte of this block: use the previous block.
  --k;
  if (k < 0) return std::nullopt;
  return f.l + k * f.s + *set_prev_member(f.inner, f.block_len() - 1);
}

std::optional<std::int64_t> set_next_member(const FallsSet& set, std::int64_t x) {
  std::optional<std::int64_t> best;
  for (const Falls& f : set) {
    const auto c = falls_next_member(f, x);
    if (c.has_value() && (!best || *c < *best)) best = c;
  }
  return best;
}

std::optional<std::int64_t> set_prev_member(const FallsSet& set, std::int64_t x) {
  std::optional<std::int64_t> best;
  for (const Falls& f : set) {
    const auto c = falls_prev_member(f, x);
    if (c.has_value() && (!best || *c > *best)) best = c;
  }
  return best;
}

std::int64_t falls_aux_inverse(const Falls& f, std::int64_t k) {
  const std::int64_t per_block = f.leaf() ? f.block_len() : set_size(f.inner);
  const std::int64_t rep = k / per_block;
  const std::int64_t off = k % per_block;
  if (rep >= f.n) throw std::out_of_range("map_aux_inverse: rank beyond FALLS size");
  if (f.leaf()) return f.l + rep * f.s + off;
  return f.l + rep * f.s + map_aux_inverse(f.inner, off);
}

}  // namespace

std::int64_t ElementRef::element_period() const {
  return set_size(*falls);
}

std::int64_t map_aux(const FallsSet& set, std::int64_t x, Round round) {
  switch (round) {
    case Round::kExact:
      if (!set_contains(set, x))
        throw std::domain_error("map_aux: offset not in partition element");
      return set_rank(set, x);
    case Round::kNext: {
      const auto nb = set_next_member(set, x);
      if (!nb.has_value())
        throw std::domain_error("map_aux: no next member byte in period");
      return set_rank(set, *nb);
    }
    case Round::kPrev: {
      const auto pb = set_prev_member(set, x);
      if (!pb.has_value())
        throw std::domain_error("map_aux: no previous member byte in period");
      return set_rank(set, *pb);
    }
  }
  throw std::logic_error("map_aux: bad Round");
}

std::int64_t map_aux_inverse(const FallsSet& set, std::int64_t k) {
  if (k < 0) throw std::out_of_range("map_aux_inverse: negative rank");
  // Where members interleave, ranks do not follow member order: the k-th
  // byte is the least x with more than k member bytes at or below it.
  for (std::size_t i = 1; i < set.size(); ++i)
    if (set[i].l < falls_extent(set[i - 1]) && k < set_size(set))
      return *std::ranges::partition_point(
          std::views::iota(std::int64_t{0}, set_extent(set)),
          [&](std::int64_t x) { return set_rank(set, x + 1) <= k; });
  for (const Falls& f : set) {
    const std::int64_t sz = falls_size(f);
    if (k < sz) return falls_aux_inverse(f, k);
    k -= sz;
  }
  throw std::out_of_range("map_aux_inverse: rank beyond set size");
}

std::optional<std::int64_t> round_to_member(const ElementRef& e,
                                            std::int64_t file_off, Round round) {
  const FallsSet& set = *e.falls;
  const std::int64_t T = e.pattern_size;
  if (set.empty()) return std::nullopt;
  std::int64_t rel = file_off - e.displacement;
  if (rel < 0) {
    if (round == Round::kPrev) return std::nullopt;
    rel = 0;
  }
  std::int64_t period = div_floor(rel, T);
  const std::int64_t phase = mod_floor(rel, T);
  if (round == Round::kExact) {
    return set_contains(set, phase) ? std::optional(file_off) : std::nullopt;
  }
  if (round == Round::kNext) {
    const auto nb = set_next_member(set, phase);
    if (nb.has_value()) return e.displacement + period * T + *nb;
    // No member at or after phase in this period: first member of the next.
    return e.displacement + (period + 1) * T + *set_next_member(set, 0);
  }
  // Round::kPrev
  const auto pb = set_prev_member(set, phase);
  if (pb.has_value()) return e.displacement + period * T + *pb;
  if (period == 0) return std::nullopt;
  return e.displacement + (period - 1) * T + *set_prev_member(set, T - 1);
}

std::int64_t map_to_element(const ElementRef& e, std::int64_t file_off, Round round) {
  if (e.falls == nullptr || e.pattern_size <= 0)
    throw std::invalid_argument("map_to_element: bad ElementRef");
  std::int64_t x = file_off;
  if (round != Round::kExact) {
    const auto m = round_to_member(e, file_off, round);
    if (!m.has_value())
      throw std::domain_error("map_to_element: no member byte in that direction");
    x = *m;
  }
  const std::int64_t rel = x - e.displacement;
  if (rel < 0)
    throw std::domain_error("map_to_element: offset before file displacement");
  const std::int64_t T = e.pattern_size;
  const std::int64_t period = rel / T;
  const std::int64_t phase = rel % T;
  const std::int64_t rank = map_aux(*e.falls, phase);
  // MAP-AUX^-1 ∘ MAP-AUX must be the identity on member bytes (paper
  // section 6) — checked here at the aux level so the two directions do not
  // recurse into each other's checks.
  PFM_DCHECK(map_aux_inverse(*e.falls, rank) == phase,
             "MAP not invertible at file offset ", x);
  return period * e.element_period() + rank;
}

std::int64_t map_to_file(const ElementRef& e, std::int64_t elem_off) {
  if (e.falls == nullptr || e.pattern_size <= 0)
    throw std::invalid_argument("map_to_file: bad ElementRef");
  if (elem_off < 0) throw std::domain_error("map_to_file: negative element offset");
  const std::int64_t sz = e.element_period();
  if (sz == 0) throw std::domain_error("map_to_file: empty partition element");
  const std::int64_t period = elem_off / sz;
  const std::int64_t within = elem_off % sz;
  const std::int64_t phase = map_aux_inverse(*e.falls, within);
  PFM_DCHECK(set_contains(*e.falls, phase),
             "MAP^-1 produced a non-member byte for element offset ", elem_off);
  return e.displacement + period * e.pattern_size + phase;
}

}  // namespace pfm
