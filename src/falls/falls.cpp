#include "falls/falls.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/arith.h"
#include "util/check.h"

namespace pfm {

Falls make_falls(std::int64_t l, std::int64_t r, std::int64_t s, std::int64_t n) {
  Falls f{l, r, s, n, {}};
  if constexpr (kDcheckEnabled) validate_falls(f);
  return f;
}

Falls make_nested(std::int64_t l, std::int64_t r, std::int64_t s, std::int64_t n,
                  FallsSet inner) {
  Falls f{l, r, s, n, std::move(inner)};
  if constexpr (kDcheckEnabled) validate_falls(f);
  return f;
}

Falls from_segment(const LineSegment& seg) {
  Falls f{seg.l, seg.r, seg.r - seg.l + 1, 1, {}};
  if constexpr (kDcheckEnabled) validate_falls(f);
  return f;
}

std::int64_t falls_size(const Falls& f) {
  const std::int64_t per_block = f.leaf() ? f.block_len() : set_size(f.inner);
  return per_block * f.n;
}

std::int64_t set_size(const FallsSet& set) {
  std::int64_t total = 0;
  for (const Falls& f : set) total += falls_size(f);
  return total;
}

std::int64_t falls_extent(const Falls& f) {
  return f.l + (f.n - 1) * f.s + f.block_len();
}

std::int64_t set_extent(const FallsSet& set) {
  std::int64_t e = 0;
  for (const Falls& f : set) e = std::max(e, falls_extent(f));
  return e;
}

int falls_height(const Falls& f) {
  return 1 + set_height(f.inner);
}

int set_height(const FallsSet& set) {
  int h = 0;
  for (const Falls& f : set) h = std::max(h, falls_height(f));
  return h;
}

namespace {

[[noreturn]] void fail(const Falls& f, const char* what) {
  std::ostringstream os;
  os << "invalid FALLS (" << f.l << "," << f.r << "," << f.s << "," << f.n
     << "): " << what;
  throw std::invalid_argument(os.str());
}

/// The work one validation may spend on disjointness, in units of a few ns:
/// a pair of members, a block pair or a period step of INTERSECT-FALLS. A
/// set past it is refused rather than checked in time that grows with its
/// runs. The tiling check of the 1024-way cyclic(1) column pattern of a
/// 1024² array spends 6·10^6 of the 2^24 units (about 0.1 s).
constexpr std::int64_t kBudget = std::int64_t{1} << 24;

void spend(std::int64_t& budget) {
  if (--budget < 0)
    throw std::invalid_argument("FALLS set too costly to check for overlap");
}

/// The first byte found in both xs, shifted by dx, and ys, shifted by dy,
/// or -1. Each pair of members whose spans overlap is decided by paper
/// section 7's INTERSECT-FALLS, stopped at the first pair of blocks with a
/// common byte; such a pair recurses into the blocks' inner sets (a leaf's
/// is the overlap itself), as intersect_aux does. Inner sets lie inside
/// their blocks, so the recursion needs no window.
std::int64_t meet(std::span<const Falls> xs, std::int64_t dx,
                  std::span<const Falls> ys, std::int64_t dy, std::int64_t& budget) {
  for (const Falls& f : xs) {
    for (const Falls& g : ys) {
      spend(budget);
      const std::int64_t fl = dx + f.l;
      const std::int64_t gl = dy + g.l;
      const std::int64_t flen = f.block_len();
      const std::int64_t glen = g.block_len();
      if (fl >= dy + falls_extent(g) || gl >= dx + falls_extent(f)) continue;
      // Block starts differ by a multiple of q = gcd(f.s, g.s), so blocks
      // meet only if one lies in [gl - fl - flen + 1, gl - fl + glen - 1]
      // (the lattice test of Adutskevich et al.).
      const std::int64_t q = gcd64(f.s, g.s);
      if (div_floor(gl - fl + glen - 1, q) * q < gl - fl - flen + 1) continue;
      const auto pair = [&](std::int64_t i, std::int64_t j) -> std::int64_t {
        spend(budget);
        const std::int64_t a = fl + i * f.s;
        const std::int64_t b = gl + j * g.s;
        const std::int64_t lo = std::max(a, b);
        const std::int64_t hi = std::min(a + flen, b + glen) - 1;
        if (lo > hi) return -1;
        if (f.leaf() && g.leaf()) return lo;
        const Falls whole{0, hi - lo, hi - lo + 1, 1, {}};
        return meet(f.leaf() ? std::span(&whole, 1) : f.inner, f.leaf() ? lo : a,
                    g.leaf() ? std::span(&whole, 1) : g.inner, g.leaf() ? lo : b, budget);
      };
      // Pairs (i, j) and (i + per_f, j + per_g) lie lcm(f.s, g.s) apart and
      // overlap alike: only the first of each class, i < per_f or
      // j < per_g, is looked at.
      const std::int64_t per_f = g.s / q;
      const std::int64_t per_g = f.s / q;
      for (std::int64_t i = 0; i < std::min(f.n, per_f); ++i) {
        spend(budget);
        const std::int64_t x = fl + i * f.s - dy;  // block i of f, in g's frame
        const auto [j0, j1] = blocks_over(g, x, x + flen - 1);
        for (std::int64_t j = j0; j <= j1; ++j)
          if (const std::int64_t b = pair(i, j); b >= 0) return b;
      }
      for (std::int64_t j = 0; j < std::min(g.n, per_g); ++j) {
        spend(budget);
        const std::int64_t x = gl + j * g.s - dx;  // block j of g, in f's frame
        const auto [i0, i1] = blocks_over(f, x, x + glen - 1);
        for (std::int64_t i = std::max(i0, per_f); i <= i1; ++i)
          if (const std::int64_t b = pair(i, j); b >= 0) return b;
      }
    }
  }
  return -1;
}

/// The node-level disjointness sweep over members sorted by l: each is
/// tested against the earlier members whose spans it overlaps. Throws
/// std::invalid_argument at the first common byte.
void sweep(std::span<const Falls> set, std::int64_t& budget) {
  std::int64_t end = 0;  // one past the furthest span so far
  for (std::size_t i = 0; i < set.size(); ++i) {
    const std::int64_t b =
        set[i].l < end ? meet(set.first(i), 0, set.subspan(i, 1), 0, budget) : -1;
    if (b >= 0)
      throw std::invalid_argument("FALLS members overlap at byte " + std::to_string(b));
    end = std::max(end, falls_extent(set[i]));
  }
}

/// Structural validity of every member, then the disjointness sweep, all
/// under one budget.
void check_set(std::span<const Falls> set, std::int64_t& budget) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    const Falls& f = set[i];
    if (f.l < 0) fail(f, "negative left index");
    if (f.l > f.r) fail(f, "l > r");
    if (f.n < 1) fail(f, "n < 1");
    if (f.s < 1) fail(f, "s < 1");
    if (f.n > 1 && f.s < f.block_len()) fail(f, "blocks overlap (s < r-l+1)");
    // The extent l + (n-1)*s + (r-l+1) must be representable: a hostile
    // serialized FALLS with huge l/s/n would otherwise wrap falls_extent and
    // defeat every downstream bounds check.
    try {
      add_checked(affine_checked(f.l, f.n - 1, f.s), f.block_len());
    } catch (const std::overflow_error&) {
      fail(f, "extent overflows int64");
    }
    if (!f.inner.empty()) {
      check_set(f.inner, budget);
      if (set_extent(f.inner) > f.block_len())
        fail(f, "inner FALLS exceed the outer block");
    }
    if (i > 0 && f.l <= set[i - 1].l) fail(f, "set members unsorted or overlapping");
  }
  sweep(set, budget);
}

}  // namespace

void validate_falls(const Falls& f) {
  std::int64_t budget = kBudget;
  check_set({&f, 1}, budget);
}

void validate_falls_set(const FallsSet& set) {
  std::int64_t budget = kBudget;
  check_set(set, budget);
}

void validate_disjoint(std::span<const FallsSet> sets) {
  FallsSet all;
  for (const FallsSet& set : sets) all.insert(all.end(), set.begin(), set.end());
  std::sort(all.begin(), all.end(),
            [](const Falls& a, const Falls& b) { return a.l < b.l; });
  std::int64_t budget = kBudget;
  sweep(all, budget);
}

bool in_file_order(const FallsSet& set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (i > 0 && set[i].l < falls_extent(set[i - 1])) return false;
    if (!in_file_order(set[i].inner)) return false;
  }
  return true;
}

std::vector<std::int64_t> falls_bytes(const Falls& f) { return set_bytes({f}); }

std::vector<std::int64_t> set_bytes(const FallsSet& set) {
  std::vector<std::int64_t> out;
  for_each_run(set, [&](std::int64_t a, std::int64_t b) {
    for (std::int64_t x = a; x <= b; ++x) out.push_back(x);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<LineSegment> set_runs(const FallsSet& set) {
  std::vector<LineSegment> out;
  walk_runs(set, in_file_order(set), 0, std::numeric_limits<std::int64_t>::max(),
            [&](std::int64_t a, std::int64_t b) { out.push_back({a, b}); });
  return out;
}

Falls shift_falls(const Falls& f, std::int64_t delta) {
  Falls out = f;
  out.l += delta;
  out.r += delta;
  if (out.l < 0) throw std::invalid_argument("shift_falls: negative left index");
  return out;
}

FallsSet shift_set(const FallsSet& set, std::int64_t delta) {
  FallsSet out;
  out.reserve(set.size());
  for (const Falls& f : set) out.push_back(shift_falls(f, delta));
  return out;
}

Falls wrap_outer(FallsSet inner, std::int64_t span, std::int64_t count) {
  if (span < 1) throw std::invalid_argument("wrap_outer: span < 1");
  return Falls{0, span - 1, span, count, std::move(inner)};
}

namespace {

/// f with every branch padded to `height`; each node is copied once.
Falls equalize_falls(const Falls& f, int height) {
  if (height < 1) throw std::invalid_argument("equalize_height: height too small");
  Falls out{f.l, f.r, f.s, f.n, {}};
  if (!f.leaf()) {
    out.inner = equalize_height(f.inner, height - 1);
  } else if (height > 1) {
    // Insert a trivial inner FALLS covering the whole block, then recurse.
    out.inner.push_back(
        equalize_falls(make_falls(0, f.block_len() - 1, f.block_len(), 1), height - 1));
  }
  return out;
}

}  // namespace

FallsSet equalize_height(const FallsSet& set, int height) {
  FallsSet out;
  out.reserve(set.size());
  for (const Falls& f : set) out.push_back(equalize_falls(f, height));
  return out;
}

}  // namespace pfm
