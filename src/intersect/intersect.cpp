#include "intersect/intersect.h"

#include <algorithm>
#include <stdexcept>

#include "falls/compress.h"
#include "intersect/cut.h"
#include "intersect/intersect_falls.h"
#include "util/arith.h"
#include "util/check.h"

namespace pfm {

namespace {

/// True when a FALLS of n blocks of `len` bytes holding `inner` is one block
/// whose bytes are all members: a leaf, or a leaf padded by equalize_height
/// with trivial inner FALLS. O(depth).
bool dense_block(std::int64_t n, std::int64_t len, const FallsSet& inner) {
  if (n != 1) return false;
  if (inner.empty()) return true;
  const Falls& g = inner[0];
  return inner.size() == 1 && g.l == 0 && g.r == len - 1 &&
         dense_block(g.n, g.block_len(), g.inner);
}

bool dense_block(const CutPiece& g) {
  return dense_block(g.f.n, g.f.block_len(), g.inner());
}

/// True when every branch of `set` is exactly `height` FALLS deep, so that
/// equalize_height(set, height) would return it unchanged.
bool uniform_height(const FallsSet& set, int height) {
  for (const Falls& f : set)
    if (f.leaf() ? height != 1 : !uniform_height(f.inner, height - 1)) return false;
  return true;
}

/// equalize_height(set, height), copied into `keep` only when some branch
/// is short.
const FallsSet& equalized(const FallsSet& set, int height, FallsSet& keep) {
  if (uniform_height(set, height)) return set;
  keep = equalize_height(set, height);
  return keep;
}

}  // namespace

FallsSet intersect_aux(const FallsSet& s1, std::int64_t a1, std::int64_t b1,
                       const FallsSet& s2, std::int64_t a2, std::int64_t b2) {
  if (b1 - a1 != b2 - a2)
    throw std::invalid_argument("intersect_aux: window lengths differ");
  FallsSet out;
  if (s1.empty()) return out;
  // Each side is cut once per window; pieces of whole blocks borrow their
  // inner sets from s1 and s2.
  std::vector<Cut> cuts2;
  cuts2.reserve(s2.size());
  for (const Falls& f2 : s2) cuts2.push_back(cut_borrowed(f2, a2, b2));
  for (const Falls& f1 : s1) {
    const Cut cuts1 = cut_borrowed(f1, a1, b1);
    for (const Cut& c2 : cuts2) {
      for (const CutPiece& g1 : cuts1) {
        for (const CutPiece& g2 : c2) {
          // Dense-block shortcut: intersecting with one block whose bytes
          // are all members is CUT-FALLS of the other side at that block
          // (paper section 7 uses CUT for exactly this), inner sets kept.
          // The cut yields at most three FALLS where the segment-pair
          // enumeration of INTERSECT-FALLS yields one member per block of
          // the other side inside the common stride: one per matrix row
          // for a row-block view against a square-block subfile.
          const CutPiece* block = dense_block(g1) ? &g1 : dense_block(g2) ? &g2 : nullptr;
          if (block != nullptr) {
            append_cut(out, block == &g1 ? g2 : g1, block->f.l, block->f.r, block->f.l);
            continue;
          }
          const std::size_t first = out.size();
          append_intersection(out, g1.f, g2.f);
          if (g1.leaf() && g2.leaf()) continue;
          // Each new h's blocks occupy a fixed window inside one block of g1
          // and one block of g2; recurse on the inner sets over those
          // windows, keeping the h whose windows share bytes.
          std::size_t kept = first;
          for (std::size_t i = first; i < out.size(); ++i) {
            const Falls& h = out[i];
            const std::int64_t len = h.r - h.l;
            const std::int64_t u1 = mod_floor(h.l - g1.f.l, g1.f.s);
            const std::int64_t u2 = mod_floor(h.l - g2.f.l, g2.f.s);
            FallsSet inner =
                intersect_aux(g1.inner(), u1, u1 + len, g2.inner(), u2, u2 + len);
            if (inner.empty()) continue;
            out[kept++] = make_nested(h.l, h.r, h.s, h.n, std::move(inner));
          }
          out.erase(out.begin() + static_cast<std::ptrdiff_t>(kept), out.end());
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Falls& x, const Falls& y) { return x.l < y.l; });
  return out;
}

const FallsSet& preprocess(const PatternElement& e, std::int64_t origin,
                           std::int64_t common_period, FallsSet& keep) {
  const std::int64_t shift = mod_floor(origin - e.displacement, e.pattern_size);
  const std::int64_t reps = common_period / e.pattern_size;
  // PROJ ranks an element's members in member order. No layout builds an
  // element whose members interleave; one that arrives anyway is
  // recompressed over its pattern period, the only run enumeration here.
  const FallsSet& set = in_file_order(e.falls) ? e.falls : (keep = recompress(e.falls));
  if (shift == 0 && reps == 1) {
    if (set_extent(set) > e.pattern_size)
      throw std::invalid_argument("preprocess: element exceeds its pattern");
    return set;
  }
  keep = rebase_period(set, shift, e.pattern_size);
  if (reps > 1) keep = FallsSet{wrap_outer(std::move(keep), e.pattern_size, reps)};
  return keep;
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

  // Each step borrows its input when it would not change it: an element
  // needs no rotation or extension when it sits at the origin and its
  // pattern is the common period, and no padding when it is already tall.
  FallsSet keep1;
  FallsSet keep2;
  const FallsSet& s1 = preprocess(e1, out.origin, out.period, keep1);
  const FallsSet& s2 = preprocess(e2, out.origin, out.period, keep2);

  // Equalize nesting heights (paper: "the height of the shorter tree can be
  // transformed by adding outer FALLS"; we equivalently refine the leaves).
  const int h = std::max(set_height(s1), set_height(s2));
  out.falls = intersect_aux(equalized(s1, h, keep1), 0, out.period - 1,
                            equalized(s2, h, keep2), 0, out.period - 1);
  if constexpr (kDcheckEnabled) {
    validate_falls_set(out.falls);
    PFM_DCHECK(set_extent(out.falls) <= out.period,
               "intersection escapes the common period");
  }
  return out;
}

}  // namespace pfm
