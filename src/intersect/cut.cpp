#include "intersect/cut.h"

#include <algorithm>
#include <stdexcept>

#include "util/arith.h"

namespace pfm {

namespace {

/// CUT-FALLS of the blocks of f, each holding `inner` in place of f.inner:
/// calls emit(piece, whole) for each piece, relative to a, in order. A piece
/// of whole blocks (whole == true) comes without an inner set; it is
/// `inner`. A clipped block's piece carries the cut of `inner`.
template <typename Emit>
void cut_blocks(const Falls& f, const FallsSet& inner, std::int64_t a,
                std::int64_t b, Emit&& emit) {
  if (a > b) throw std::invalid_argument("cut_falls: a > b");
  // Blocks overlapping [a, b]: l + k*s <= b  and  l + k*s + blen - 1 >= a.
  const std::int64_t blen = f.block_len();
  std::int64_t k_lo = div_ceil(a - f.l - (blen - 1), f.s);
  std::int64_t k_hi = div_floor(b - f.l, f.s);
  k_lo = std::max<std::int64_t>(k_lo, 0);
  k_hi = std::min<std::int64_t>(k_hi, f.n - 1);
  if (k_lo > k_hi) return;

  // Block k clipped to [a, b], when it is only partly inside.
  const auto partial = [&](std::int64_t k) {
    const std::int64_t base = f.l + k * f.s;
    const std::int64_t lo = std::max(a, base);
    const std::int64_t hi = std::min(b, base + blen - 1);
    if (lo > hi) return;
    Falls piece{lo - a, hi - a, hi - lo + 1, 1, {}};
    if (!inner.empty()) {
      piece.inner = cut_set(inner, lo - base, hi - base);
      if (piece.inner.empty()) return;  // no member bytes survive the cut
    }
    emit(std::move(piece), false);
  };

  // Complete blocks are those lying fully inside [a, b].
  std::int64_t kc_lo = k_lo;
  std::int64_t kc_hi = k_hi;
  if (f.l + kc_lo * f.s < a) ++kc_lo;
  if (f.l + kc_hi * f.s + blen - 1 > b) --kc_hi;

  if (kc_lo > kc_hi) {
    // No complete block: at most two partial ones (possibly the same block).
    partial(k_lo);
    if (k_hi != k_lo) partial(k_hi);
    return;
  }
  if (k_lo < kc_lo) partial(k_lo);
  const std::int64_t mid = f.l + kc_lo * f.s - a;
  emit(Falls{mid, mid + blen - 1, f.s, kc_hi - kc_lo + 1, {}}, true);
  if (k_hi > kc_hi) partial(k_hi);
}

/// The cut, shifted by `shift`, appended to `out` as FALLS that own their
/// inner sets.
void append_owned(FallsSet& out, const Falls& f, const FallsSet& inner,
                  std::int64_t a, std::int64_t b, std::int64_t shift) {
  cut_blocks(f, inner, a, b, [&](Falls&& piece, bool whole) {
    if (whole) piece.inner = inner;
    piece.l += shift;
    piece.r += shift;
    out.push_back(std::move(piece));
  });
}

}  // namespace

FallsSet cut_falls(const Falls& f, std::int64_t a, std::int64_t b) {
  FallsSet out;
  append_owned(out, f, f.inner, a, b, 0);
  return out;
}

FallsSet cut_set(const FallsSet& set, std::int64_t a, std::int64_t b) {
  FallsSet out;
  for (const Falls& f : set) append_owned(out, f, f.inner, a, b, 0);
  std::sort(out.begin(), out.end(),
            [](const Falls& x, const Falls& y) { return x.l < y.l; });
  return out;
}

Cut cut_borrowed(const Falls& f, std::int64_t a, std::int64_t b) {
  Cut out;
  cut_blocks(f, f.inner, a, b, [&](Falls&& piece, bool whole) {
    out.pieces[out.size++] = CutPiece{std::move(piece), whole ? &f.inner : nullptr};
  });
  return out;
}

void append_cut(FallsSet& out, const CutPiece& g, std::int64_t a, std::int64_t b,
                std::int64_t shift) {
  append_owned(out, g.f, g.inner(), a, b, shift);
}

FallsSet rebase_period(const FallsSet& set, std::int64_t shift, std::int64_t T) {
  if (T <= 0) throw std::invalid_argument("rebase_period: T <= 0");
  if (shift < 0 || shift >= T)
    throw std::invalid_argument("rebase_period: shift out of [0, T)");
  if (set_extent(set) > T)
    throw std::invalid_argument("rebase_period: set extent exceeds period");
  if (shift == 0) return set;
  // Bytes at [shift, T) move to the front; bytes at [0, shift) wrap to the
  // back, offset by T - shift.
  FallsSet out = cut_set(set, shift, T - 1);
  FallsSet wrapped = cut_set(set, 0, shift - 1);
  for (Falls& f : wrapped) out.push_back(shift_falls(f, T - shift));
  return out;
}

}  // namespace pfm
