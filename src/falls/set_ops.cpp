#include "falls/set_ops.h"

#include <algorithm>

#include "util/arith.h"

namespace pfm {

bool falls_contains(const Falls& f, std::int64_t x) {
  if (x < f.l) return false;
  const std::int64_t rel = x - f.l;
  const std::int64_t k = rel / f.s;
  if (k >= f.n) return false;
  const std::int64_t within = rel % f.s;
  if (within >= f.block_len()) return false;
  if (f.leaf()) return true;
  return set_contains(f.inner, within);
}

bool set_contains(const FallsSet& set, std::int64_t x) {
  for (const Falls& f : set)
    if (falls_contains(f, x)) return true;
  return false;
}

std::int64_t falls_rank(const Falls& f, std::int64_t x) {
  if (x <= f.l) return 0;
  const std::int64_t rel = x - f.l;
  const std::int64_t per_block = f.leaf() ? f.block_len() : set_size(f.inner);
  const std::int64_t k = std::min(rel / f.s, f.n - 1);
  const std::int64_t within = rel - k * f.s;  // may exceed block_len (gap/tail)
  std::int64_t inside;
  if (f.leaf()) {
    inside = std::clamp<std::int64_t>(within, 0, f.block_len());
  } else {
    inside = set_rank(f.inner, within);
  }
  return k * per_block + inside;
}

std::int64_t set_rank(const FallsSet& set, std::int64_t x) {
  std::int64_t total = 0;
  for (const Falls& f : set) total += falls_rank(f, x);
  return total;
}

bool is_single_run(const FallsSet& set) {
  if (set.empty()) return true;
  return set_runs(set).size() == 1;
}

std::optional<std::int64_t> first_byte(const FallsSet& set) {
  std::optional<std::int64_t> best;
  for_each_run(set, [&](std::int64_t a, std::int64_t) {
    if (!best || a < *best) best = a;
  });
  return best;
}

std::optional<std::int64_t> last_byte(const FallsSet& set) {
  std::optional<std::int64_t> best;
  for (const Falls& f : set) {
    const std::int64_t b = f.l + (f.n - 1) * f.s +
                           (f.leaf() ? f.block_len() - 1 : *last_byte(f.inner));
    if (!best || b > *best) best = b;
  }
  return best;
}

bool same_byte_set(const FallsSet& a, const FallsSet& b) {
  return set_runs(a) == set_runs(b);
}

bool subset_of(const FallsSet& inner, const FallsSet& outer) {
  const auto runs_in = set_runs(inner);
  const auto runs_out = set_runs(outer);
  std::size_t j = 0;
  for (const LineSegment& run : runs_in) {
    while (j < runs_out.size() && runs_out[j].r < run.l) ++j;
    if (j == runs_out.size() || runs_out[j].l > run.l || runs_out[j].r < run.r)
      return false;
  }
  return true;
}

}  // namespace pfm
