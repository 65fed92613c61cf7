#include "falls/compress.h"

#include <algorithm>

namespace pfm {

FallsSet compress_runs(std::span<const LineSegment> runs) {
  FallsSet out;
  std::size_t i = 0;
  while (i < runs.size()) {
    const std::int64_t len = runs[i].size();
    // Try to extend an arithmetic progression of equal-length runs.
    std::int64_t count = 1;
    std::int64_t stride = 1;
    if (i + 1 < runs.size() && runs[i + 1].size() == len) {
      stride = runs[i + 1].l - runs[i].l;
      std::size_t j = i + 1;
      while (j < runs.size() && runs[j].size() == len &&
             runs[j].l - runs[j - 1].l == stride) {
        ++count;
        ++j;
      }
    }
    if (count >= 2) {
      out.push_back(make_falls(runs[i].l, runs[i].r, stride, count));
      i += static_cast<std::size_t>(count);
    } else {
      out.push_back(from_segment(runs[i]));
      i += 1;
    }
  }
  return out;
}

namespace {

/// True when `set` equals `prefix` repeated `reps` times with period
/// `period` (structural comparison on flat FALLS).
bool is_repetition(const FallsSet& set, std::size_t prefix_len,
                   std::int64_t period, std::size_t reps) {
  for (std::size_t rep = 1; rep < reps; ++rep) {
    for (std::size_t k = 0; k < prefix_len; ++k) {
      const Falls& a = set[k];
      const Falls& b = set[rep * prefix_len + k];
      if (b.l != a.l + static_cast<std::int64_t>(rep) * period ||
          b.r != a.r + static_cast<std::int64_t>(rep) * period || b.s != a.s ||
          b.n != a.n || b.inner != a.inner)
        return false;
    }
  }
  return true;
}

}  // namespace

FallsSet wrap_repetitions(FallsSet flat) {
  // Try prefix lengths that divide the list size, shortest first, so we find
  // the finest period (maximum number of outer repetitions).
  const std::size_t m = flat.size();
  for (std::size_t plen = 1; plen <= m / 2; ++plen) {
    if (m % plen != 0) continue;
    const std::size_t reps = m / plen;
    const std::int64_t period = flat[plen].l - flat[0].l;
    if (period <= 0) continue;
    if (!is_repetition(flat, plen, period, reps)) continue;
    // Rebase the prefix to the period origin so the inner FALLS are relative.
    const std::int64_t origin = flat[0].l;
    std::int64_t span = 0;
    for (std::size_t k = 0; k < plen; ++k)
      span = std::max(span, falls_extent(flat[k]) - origin);
    if (span > period) continue;  // members of one period interleave: keep flat
    FallsSet rebased(std::make_move_iterator(flat.begin()),
                     std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(plen)));
    for (Falls& f : rebased) {
      f.l -= origin;
      f.r -= origin;
    }
    // The outer block covers only the prefix's span (not the whole period),
    // so the wrapped form never extends past the last member byte + 1.
    FallsSet out;
    out.push_back(make_nested(origin, origin + span - 1, period,
                              static_cast<std::int64_t>(reps), std::move(rebased)));
    return out;
  }
  return flat;
}

FallsSet compress_runs_nested(std::span<const LineSegment> runs) {
  return wrap_repetitions(compress_runs(runs));
}

FallsSet recompress(const FallsSet& set) {
  const auto runs = set_runs(set);
  return compress_runs_nested(runs);
}

std::int64_t node_count(const FallsSet& set) {
  std::int64_t total = 0;
  for (const Falls& f : set) total += 1 + node_count(f.inner);
  return total;
}

}  // namespace pfm
