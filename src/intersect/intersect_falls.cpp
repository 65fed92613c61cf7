#include "intersect/intersect_falls.h"

#include <algorithm>

#include "util/arith.h"

namespace pfm {

namespace {

/// Emits the FALLS for the intersecting segment pair (i1, i2) and all of its
/// repetitions at +k*T, k >= 0 (clipped by both families' extents).
void emit_pair(FallsSet& out, const Falls& f1, const Falls& f2, std::int64_t i1,
               std::int64_t i2, std::int64_t T, std::int64_t per1,
               std::int64_t per2) {
  const std::int64_t a1 = f1.l + i1 * f1.s;
  const std::int64_t b1 = a1 + f1.block_len() - 1;
  const std::int64_t a2 = f2.l + i2 * f2.s;
  const std::int64_t b2 = a2 + f2.block_len() - 1;
  const std::int64_t lo = std::max(a1, a2);
  const std::int64_t hi = std::min(b1, b2);
  if (lo > hi) return;
  const std::int64_t reps1 = (f1.n - 1 - i1) / per1;
  const std::int64_t reps2 = (f2.n - 1 - i2) / per2;
  const std::int64_t count = std::min(reps1, reps2) + 1;
  out.push_back(make_falls(lo, hi, T, count));
}

}  // namespace

FallsSet intersect_falls(const Falls& f1, const Falls& f2) {
  FallsSet out;
  append_intersection(out, f1, f2);
  return out;
}

void append_intersection(FallsSet& out, const Falls& f1, const Falls& f2) {
  const std::size_t first = out.size();
  const std::int64_t T = lcm64(f1.s, f2.s);
  const std::int64_t per1 = T / f1.s;  // segments of f1 per period
  const std::int64_t per2 = T / f2.s;

  // Pairs (i1, i2) and (i1 + k*per1, i2 + k*per2) describe the same
  // congruence class, whose members repeat with period T. We enumerate the
  // *first* member of every class — the one where stepping back one period
  // would make an index negative, i.e. i1 < per1 or i2 < per2 — and extend
  // it with a repetition count clipped by both families' extents.
  const std::int64_t i1_max = std::min(f1.n, per1);
  for (std::int64_t i1 = 0; i1 < i1_max; ++i1) {
    const std::int64_t a1 = f1.l + i1 * f1.s;
    const auto [i2_lo, i2_hi] = blocks_over(f2, a1, a1 + f1.block_len() - 1);
    for (std::int64_t i2 = i2_lo; i2 <= i2_hi; ++i2)
      emit_pair(out, f1, f2, i1, i2, T, per1, per2);
  }
  const std::int64_t i2_max = std::min(f2.n, per2);
  for (std::int64_t i2 = 0; i2 < i2_max; ++i2) {
    const std::int64_t a2 = f2.l + i2 * f2.s;
    auto [i1_lo, i1_hi] = blocks_over(f1, a2, a2 + f2.block_len() - 1);
    // Classes with i1 < per1 were already covered by the first loop.
    i1_lo = std::max(i1_lo, per1);
    for (std::int64_t i1 = i1_lo; i1 <= i1_hi; ++i1)
      emit_pair(out, f1, f2, i1, i2, T, per1, per2);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const Falls& x, const Falls& y) { return x.l < y.l; });
}

FallsSet intersect_falls_sets(const FallsSet& a, const FallsSet& b) {
  FallsSet out;
  for (const Falls& f1 : a)
    for (const Falls& f2 : b) append_intersection(out, f1, f2);
  std::sort(out.begin(), out.end(),
            [](const Falls& x, const Falls& y) { return x.l < y.l; });
  return out;
}

}  // namespace pfm
