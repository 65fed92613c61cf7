#include "falls/falls.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
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

}  // namespace

void validate_falls(const Falls& f) {
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
    validate_falls_set(f.inner);
    if (set_extent(f.inner) > f.block_len())
      fail(f, "inner FALLS exceed the outer block");
  }
}

void validate_falls_set(const FallsSet& set) {
  // Members must be sorted by first byte and byte-disjoint. Span-disjoint
  // members (the common case for hand-written patterns) satisfy that
  // trivially; intersection and projection results legitimately interleave
  // spans with a common stride, so on span overlap fall back to an exact
  // run-level disjointness check.
  std::int64_t prev_end = 0;  // one past the previous member's span
  std::int64_t prev_l = 0;
  bool first = true;
  bool interleaved = false;
  for (const Falls& f : set) {
    validate_falls(f);
    if (!first && f.l <= prev_l) {
      std::ostringstream os;
      os << "FALLS set members overlap or are unsorted near l=" << f.l;
      throw std::invalid_argument(os.str());
    }
    if (!first && f.l < prev_end) interleaved = true;
    prev_end = std::max(prev_end, falls_extent(f));
    prev_l = f.l;
    first = false;
  }
  if (!interleaved) return;
  std::vector<std::pair<std::int64_t, std::int64_t>> runs;
  for_each_run(set, [&](std::int64_t a, std::int64_t b) { runs.emplace_back(a, b); });
  std::sort(runs.begin(), runs.end());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].first <= runs[i - 1].second) {
      std::ostringstream os;
      os << "FALLS set members overlap near byte " << runs[i].first;
      throw std::invalid_argument(os.str());
    }
  }
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
