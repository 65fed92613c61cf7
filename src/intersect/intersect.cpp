#include "intersect/intersect.h"

#include <algorithm>
#include <stdexcept>

#include "intersect/cut.h"
#include "intersect/intersect_falls.h"
#include "util/arith.h"
#include "util/check.h"

namespace pfm {

namespace {

/// True when f is one block whose bytes are all members: a leaf, or a
/// leaf padded by equalize_height with trivial inner FALLS. O(depth).
bool dense_block(const Falls& f) {
  if (f.n != 1) return false;
  if (f.leaf()) return true;
  return f.inner.size() == 1 && f.inner[0].l == 0 &&
         f.inner[0].r == f.r - f.l && dense_block(f.inner[0]);
}

}  // namespace

FallsSet intersect_aux(const FallsSet& s1, std::int64_t a1, std::int64_t b1,
                       const FallsSet& s2, std::int64_t a2, std::int64_t b2) {
  if (b1 - a1 != b2 - a2)
    throw std::invalid_argument("intersect_aux: window lengths differ");
  FallsSet out;
  for (const Falls& f1 : s1) {
    const FallsSet cuts1 = cut_falls(f1, a1, b1);
    for (const Falls& f2 : s2) {
      const FallsSet cuts2 = cut_falls(f2, a2, b2);
      for (const Falls& g1 : cuts1) {
        for (const Falls& g2 : cuts2) {
          // Dense-block shortcut: intersecting with one block whose bytes
          // are all members is CUT-FALLS of the other side at that block
          // (paper section 7 uses CUT for exactly this), inner sets kept.
          // The cut yields at most three FALLS where the segment-pair
          // enumeration of INTERSECT-FALLS yields one member per block of
          // the other side inside the common stride: one per matrix row
          // for a row-block view against a square-block subfile.
          const Falls* block = dense_block(g1) ? &g1 : dense_block(g2) ? &g2 : nullptr;
          if (block != nullptr) {
            const Falls& other = block == &g1 ? g2 : g1;
            for (const Falls& piece : cut_falls(other, block->l, block->r))
              out.push_back(shift_falls(piece, block->l));
            continue;
          }
          for (const Falls& h : intersect_falls(g1, g2)) {
            if (g1.leaf() && g2.leaf()) {
              out.push_back(h);
              continue;
            }
            // h's blocks occupy a fixed window inside one block of g1 and
            // one block of g2; recurse on the inner sets over those windows.
            const std::int64_t len = h.r - h.l;
            const std::int64_t u1 = mod_floor(h.l - g1.l, g1.s);
            const std::int64_t u2 = mod_floor(h.l - g2.l, g2.s);
            FallsSet inner =
                intersect_aux(g1.inner, u1, u1 + len, g2.inner, u2, u2 + len);
            if (inner.empty()) continue;
            out.push_back(make_nested(h.l, h.r, h.s, h.n, std::move(inner)));
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Falls& x, const Falls& y) { return x.l < y.l; });
  return out;
}

FallsSet preprocess(const PatternElement& e, std::int64_t origin,
                    std::int64_t common_period) {
  const std::int64_t shift = mod_floor(origin - e.displacement, e.pattern_size);
  FallsSet aligned = rebase_period(e.falls, shift, e.pattern_size);
  const std::int64_t reps = common_period / e.pattern_size;
  if (reps == 1) return aligned;
  return FallsSet{wrap_outer(std::move(aligned), e.pattern_size, reps)};
}

Intersection intersect_nested(const PatternElement& e1, const PatternElement& e2) {
  if (e1.pattern_size < 1 || e2.pattern_size < 1)
    throw std::invalid_argument("intersect_nested: pattern size < 1");
  // Full recursive validation of both inputs: every algebraic step below
  // (cutting, rebasing, height equalization) assumes sorted non-overlapping
  // members with inner sets confined to their blocks.
  if constexpr (kDcheckEnabled) {
    validate_falls_set(e1.falls);
    validate_falls_set(e2.falls);
  }
  if (set_extent(e1.falls) > e1.pattern_size ||
      set_extent(e2.falls) > e2.pattern_size)
    throw std::invalid_argument("intersect_nested: element exceeds its pattern");

  Intersection out;
  out.period = lcm64(e1.pattern_size, e2.pattern_size);
  out.origin = std::max(e1.displacement, e2.displacement);
  if (e1.falls.empty() || e2.falls.empty()) return out;

  FallsSet s1 = preprocess(e1, out.origin, out.period);
  FallsSet s2 = preprocess(e2, out.origin, out.period);

  // Equalize nesting heights (paper: "the height of the shorter tree can be
  // transformed by adding outer FALLS"; we equivalently refine the leaves).
  const int h = std::max(set_height(s1), set_height(s2));
  s1 = equalize_height(s1, h);
  s2 = equalize_height(s2, h);

  out.falls = intersect_aux(s1, 0, out.period - 1, s2, 0, out.period - 1);
  if constexpr (kDcheckEnabled) {
    validate_falls_set(out.falls);
    PFM_DCHECK(set_extent(out.falls) <= out.period,
               "intersection escapes the common period");
  }
  return out;
}

}  // namespace pfm
