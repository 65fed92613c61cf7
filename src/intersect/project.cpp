#include "intersect/project.h"

#include <algorithm>
#include <vector>

#include "falls/compress.h"
#include "falls/set_ops.h"
#include "util/check.h"

namespace pfm {

namespace {

/// The structural PROJ: appends to `out` the image, under rank in `elem`,
/// of every member of `xs`, whose indices are relative to position `off` of
/// `elem`'s index space; every image index is lowered by `base`. Each
/// member f maps through the element member g whose span holds f's first
/// block: f's blocks must fit inside g's blocks at one fixed offset u (a
/// stride that is a multiple of g's, or any stride inside one dense block
/// of g), so the image is one FALLS of g's members per block, and f's inner
/// set maps by the same walk against g's inner set. Returns false when a
/// member does not fit that shape, or a level of `elem` interleaves its
/// members (ranks are then not a running sum); the caller then falls back
/// to the run path. Cost: O(members of xs x depth x members per level).
bool walk(const FallsSet& xs, std::int64_t off, const FallsSet& elem,
          std::int64_t base, FallsSet& out) {
  for (std::size_t i = 1; i < elem.size(); ++i)
    if (elem[i].l < falls_extent(elem[i - 1])) return false;
  out.reserve(out.size() + xs.size());
  std::size_t gi = 0;
  std::int64_t before = 0;  // members of elem below elem[gi].l
  std::int64_t per = -1;    // members per block of elem[gi], once needed
  for (const Falls& f : xs) {
    const std::int64_t pos = off + f.l;
    while (gi < elem.size() && falls_extent(elem[gi]) <= pos) {
      before += falls_size(elem[gi++]);
      per = -1;
    }
    if (gi == elem.size() || pos < elem[gi].l) return false;
    const Falls& g = elem[gi];
    const std::int64_t k0 = g.n == 1 ? 0 : (pos - g.l) / g.s;
    const std::int64_t u = pos - g.l - k0 * g.s;
    const std::int64_t flen = f.block_len();
    if (k0 >= g.n || u + flen > g.block_len()) return false;
    if (per < 0) per = g.leaf() ? g.block_len() : set_size(g.inner);
    const bool dense = per == g.block_len();  // rank inside a block = offset
    std::int64_t step = flen;                 // image stride
    if (f.n > 1) {
      if (dense && u + falls_extent(f) - f.l <= g.block_len()) {
        step = f.s;  // all of f inside one dense block: a plain shift
      } else {
        if (f.s % g.s != 0) return false;
        const std::int64_t m = f.s / g.s;
        if (k0 + (f.n - 1) * m >= g.n) return false;
        step = m * per;
      }
    }
    const std::int64_t ru = dense ? u : set_rank(g.inner, u);
    const std::int64_t blen = dense ? flen : set_rank(g.inner, u + flen) - ru;
    if (f.leaf() && blen != flen) return false;  // f is not inside the element
    Falls img;
    img.l = before + k0 * per + ru - base;
    img.r = img.l + blen - 1;
    img.s = f.n > 1 ? step : blen;
    img.n = f.n;
    if (!f.leaf()) {
      if (dense)
        img.inner = f.inner;
      else if (!walk(f.inner, u, g.inner, ru, img.inner))
        return false;
    }
    out.push_back(std::move(img));
  }
  return true;
}

/// Same block length and inner set: the members differ only in position.
bool same_shape(const Falls& a, const Falls& b) {
  return a.block_len() == b.block_len() && a.inner == b.inner;
}

/// The canonical rules on one member (not a single nested block) whose
/// inner set is already canonical.
void simplify(Falls& f) {
  if (f.inner.size() == 1) {
    Falls g = std::move(f.inner.front());
    if (g.n == 1) {
      // A block holding one member (a dense segment, say) is that member.
      f = Falls{f.l + g.l, f.l + g.r, f.s, f.n, std::move(g.inner)};
    } else if (f.s == g.n * g.s) {
      // An inner family that tiles the outer stride is flattened.
      f = Falls{f.l + g.l, f.l + g.r, g.s, g.n * f.n, std::move(g.inner)};
    } else {
      f.inner.front() = std::move(g);
    }
  }
  if (f.leaf()) {
    // Abutting leaf blocks are one block.
    if (f.s == f.block_len()) {
      f.r = f.l + f.n * f.s - 1;
      f.n = 1;
    }
  } else {
    // A nested block spans exactly its inner set.
    const std::int64_t lo = f.inner.front().l;
    const std::int64_t hi = set_extent(f.inner);
    for (Falls& g : f.inner) {
      g.l -= lo;
      g.r -= lo;
    }
    f.l += lo;
    f.r = f.l + hi - lo - 1;
  }
  if (f.n == 1) f.s = f.block_len();
}

/// Joins leaf families whose blocks abut (same count and stride), so that
/// progressions form over maximal runs, in place. `set` is sorted by l.
void join_abutting(FallsSet& set) {
  std::size_t out = 0;  // set[0, out) is the joined prefix
  for (Falls& q : set) {
    if (out > 0) {
      Falls& p = set[out - 1];
      if (p.leaf() && q.leaf() && p.n == q.n && q.l == p.r + 1 &&
          (p.n == 1 || (q.s == p.s && q.r - p.l < p.s))) {
        p.r = q.r;
        simplify(p);
        continue;
      }
    }
    if (&q != &set[out]) set[out] = std::move(q);
    ++out;
  }
  set.erase(set.begin() + static_cast<std::ptrdiff_t>(out), set.end());
}

/// The number of members from set[i] on that are one family repeated at a
/// constant offset d inside its stride (same shape, stride and count, d
/// apart, all inside one stride); 1 when set[i + 1] does not continue it.
std::size_t parallel_run(const FallsSet& set, std::size_t i, std::int64_t& d) {
  const Falls& f = set[i];
  if (f.n < 2 || i + 1 == set.size()) return 1;
  d = set[i + 1].l - f.l;
  if (d < f.block_len()) return 1;
  std::size_t k = 1;
  while (i + k < set.size()) {
    const Falls& g = set[i + k];
    const auto kk = static_cast<std::int64_t>(k);
    if (g.l != f.l + kk * d || g.s != f.s || g.n != f.n || !same_shape(f, g) ||
        kk * d + f.block_len() > f.s)
      break;
    ++k;
  }
  return k;
}

/// Joins families into progressions, in place: parallel families
/// (parallel_run) into one family with an inner family, and a member that
/// continues its predecessor's progression into it. `set` is sorted by l.
void join_progressions(FallsSet& set) {
  std::size_t out = 0;  // set[0, out) is the joined prefix; out <= i
  for (std::size_t i = 0; i < set.size();) {
    std::int64_t d = 0;
    const std::size_t k = parallel_run(set, i, d);
    Falls q = std::move(set[i]);
    i += k;
    if (k > 1) {
      const auto kk = static_cast<std::int64_t>(k);
      Falls g{0, q.block_len() - 1, d, kk, std::move(q.inner)};
      simplify(g);
      q.r = q.l + (kk - 1) * d + q.block_len() - 1;
      q.inner.clear();
      q.inner.push_back(std::move(g));
      simplify(q);
    }
    if (out > 0 && same_shape(set[out - 1], q)) {
      Falls& p = set[out - 1];
      const std::int64_t gap = q.l - p.l;
      if (p.n == 1 && (q.n == 1 || q.s == gap) && gap >= p.block_len()) {
        p.s = gap;
        p.n += q.n;
        simplify(p);
        continue;
      }
      if (p.n > 1 && q.l == p.l + p.n * p.s && (q.n == 1 || q.s == p.s)) {
        p.n += q.n;
        simplify(p);
        continue;
      }
    }
    set[out++] = std::move(q);
  }
  set.erase(set.begin() + static_cast<std::ptrdiff_t>(out), set.end());
}

/// Rewrites a walked projection, bottom-up, into the compact form run
/// compression gives the same bytes (DESIGN.md, "Set-view algebra"): a
/// single nested block is replaced by its members, every other member is
/// simplified, families are joined, leaf families that still interleave are
/// recompressed from their runs, and a member list that repeats a prefix at
/// a constant period is wrapped.
void canonicalize(FallsSet& set) {
  if (set.size() == 1 && (set[0].n > 1 || set[0].leaf())) {
    canonicalize(set[0].inner);
    simplify(set[0]);
    return;
  }
  if (set.empty()) return;
  bool nested_block = false;  // some member is one block holding a set
  for (Falls& f : set) {
    canonicalize(f.inner);
    nested_block = nested_block || (f.n == 1 && !f.leaf());
  }
  if (nested_block) {
    FallsSet flat;
    flat.reserve(set.size());
    for (Falls& f : set) {
      if (f.n == 1 && !f.leaf()) {
        for (Falls& g : f.inner) {
          g.l += f.l;
          g.r += f.l;
          flat.push_back(std::move(g));
        }
        continue;
      }
      simplify(f);
      flat.push_back(std::move(f));
    }
    set = std::move(flat);
  } else {
    for (Falls& f : set) simplify(f);
  }
  const auto by_l = [](const Falls& x, const Falls& y) { return x.l < y.l; };
  if (!std::is_sorted(set.begin(), set.end(), by_l))
    std::sort(set.begin(), set.end(), by_l);
  join_abutting(set);
  join_progressions(set);
  // Leaf families whose spans still interleave (progressions INTERSECT-FALLS
  // split by stride, joined by none of the rules above) denote one run
  // list: compress it as the run path does. None of the r, c, b and
  // (block-)cyclic 2-D layouts reach this; irregular sets do.
  bool leaves = true;
  bool interleave = false;
  for (std::size_t i = 0; i < set.size(); ++i) {
    leaves = leaves && set[i].leaf();
    if (i > 0 && set[i].l < falls_extent(set[i - 1])) interleave = true;
  }
  if (leaves && interleave) set = compress_runs(set_runs(set));
  set = wrap_repetitions(std::move(set));
}

/// True when every level of the tree has strictly increasing left indices.
bool strictly_sorted(const FallsSet& set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (i > 0 && set[i].l <= set[i - 1].l) return false;
    if (!strictly_sorted(set[i].inner)) return false;
  }
  return true;
}

/// Post-conditions common to both projection paths (paper section 7): the
/// projection is a valid index set of exactly the intersection's size — the
/// property that makes the gather and scatter sides of a transfer agree.
/// Only when the element sits at the intersection origin is the projection
/// confined to the element's share of one common period; an element at a
/// smaller displacement sees origin-shifted indices that may legitimately
/// reach past it (redistribution plans never hit that case — build_plan
/// requires equal displacements).
void dcheck_projection(const Projection& p, const Intersection& x,
                       const PatternElement& e) {
  if constexpr (kDcheckEnabled) {
    validate_falls_set(p.falls);
    PFM_DCHECK(set_size(p.falls) == set_size(x.falls),
               "projection has ", set_size(p.falls), " bytes, intersection has ",
               set_size(x.falls));
    if (e.displacement == x.origin)
      PFM_DCHECK(set_extent(p.falls) <= p.period,
                 "projection escapes its period ", p.period);
  }
}

}  // namespace

Projection project(const Intersection& x, const PatternElement& e) {
  Projection out;
  out.period = set_size(e.falls) * (x.period / e.pattern_size);
  if (x.falls.empty()) return out;

  // Structural path: the element, aligned like PREPROCESS aligns it, gives
  // rank in [origin, origin + period); c0 adds its members in
  // [displacement, origin). Distinct images can still share a left index
  // (a block may start on a non-member byte); fall back then.
  if (x.origin >= e.displacement) {
    const std::int64_t shift = x.origin - e.displacement;
    const std::int64_t c0 = shift / e.pattern_size * set_size(e.falls) +
                            set_rank(e.falls, shift % e.pattern_size);
    FallsSet keep;
    FallsSet walked;
    if (walk(x.falls, 0, preprocess(e, x.origin, x.period, keep), -c0, walked)) {
      canonicalize(walked);
      if (strictly_sorted(walked)) {
        out.falls = std::move(walked);
        dcheck_projection(out, x, e);
        return out;
      }
    }
  }

  // Exact fallback: a maximal contiguous run of the intersection lies wholly
  // inside the element's byte set, and MAP is order-preserving on that set,
  // so each run maps to one contiguous run of element offsets.
  const ElementRef ref{&e.falls, e.displacement, e.pattern_size};
  std::vector<LineSegment> mapped;
  for (const LineSegment& run : set_runs(x.falls)) {
    const std::int64_t lo = map_to_element(ref, x.origin + run.l);
    // MAP is monotonic over file offsets, so `mapped` stays sorted. Two file
    // runs separated only by non-member bytes of e become adjacent in
    // element space; merge them so the runs passed to compression are maximal.
    if (!mapped.empty() && lo <= mapped.back().r + 1) {
      mapped.back().r = lo + (run.r - run.l);
    } else {
      mapped.push_back({lo, lo + (run.r - run.l)});
    }
  }
  out.falls = compress_runs_nested(mapped);
  dcheck_projection(out, x, e);
  return out;
}

std::int64_t projection_size(const Projection& p) { return set_size(p.falls); }

}  // namespace pfm
