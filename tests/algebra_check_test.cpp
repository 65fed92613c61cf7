// Exhaustive small-scope check of the FALLS algebra (paper sections 6-7).
//
// Every byte subset of [0, P), P <= 6, serves as a partition element of a
// pattern of size P, in five encodings (below), and every pair of elements
// is intersected at displacements {0,1,3} x {0,2}. INTERSECT, PROJ onto both
// elements, MAP/MAP^-1 and map_between are compared with byte-set oracles,
// and the verdicts of validate_falls_set and of the pattern tiling check on
// merged member lists are compared with the run-level oracle. A law that
// holds over the whole small domain (Eijkhout: distributions as functions
// whose laws can be checked over a domain) covers every gcd/lcm relation
// among strides below P. Byte sets are 64-bit masks: a common period is at
// most lcm(7, 8) = 56 bytes.
//
// The encodings of one subset:
//   flat         compress_runs of its runs;
//   nested       compress_runs_nested;
//   padded       nested, one level taller through equalize_height;
//   array        rows of max(2, P/2) bytes, each non-empty row one block
//                holding its runs, as the array layouts nest a dimension;
//   interleaved  the runs dealt alternately to two lists, each compressed,
//                merged by l, so the members' spans interleave.
// Encodings that coincide with an earlier one are dropped.
//
// The pairs run on up to four threads. Each projection is tallied by the path PROJ takes: the structural walk
// straight away, or (for an interleaved element) after preprocess
// recompresses the element into file order.
//
// DISABLED_ExhaustiveUpTo8 runs the same check at P <= 8 and prints its
// projection count and wall time:
//   algebra_check_test --gtest_also_run_disabled_tests
//                      --gtest_filter='AlgebraCheck.DISABLED_ExhaustiveUpTo8'
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "falls/compress.h"
#include "falls/print.h"
#include "file_model/pattern.h"
#include "intersect/intersect.h"
#include "intersect/project.h"
#include "mapping/compose.h"
#include "mapping/map.h"
#include "util/arith.h"
#include "util/check.h"

namespace pfm {
namespace {

using Mask = std::uint64_t;

Mask bit(std::int64_t i) { return Mask{1} << i; }

std::int64_t count(Mask m) { return std::popcount(m); }

std::vector<LineSegment> runs_of(Mask m, std::int64_t p) {
  std::vector<LineSegment> out;
  for (std::int64_t x = 0; x < p; ++x) {
    if ((m & bit(x)) == 0) continue;
    std::int64_t y = x;
    while (y + 1 < p && (m & bit(y + 1)) != 0) ++y;
    out.push_back({x, y});
    x = y;
  }
  return out;
}

/// Rows of max(2, P/2) bytes; a full row is a leaf block, consecutive equal
/// rows one family.
FallsSet array_encoding(Mask m, std::int64_t p) {
  const std::int64_t w = std::max<std::int64_t>(2, p / 2);
  FallsSet out;
  for (std::int64_t lo = 0; lo < p; lo += w) {
    const std::int64_t len = std::min(w, p - lo);
    const Mask row = (m >> lo) & (bit(len) - 1);
    if (row == 0) continue;
    FallsSet inner;
    if (row != bit(len) - 1) inner = compress_runs(runs_of(row, len));
    if (!out.empty()) {
      Falls& prev = out.back();
      if (prev.block_len() == len && prev.inner == inner &&
          prev.l + prev.n * w == lo) {
        ++prev.n;
        continue;
      }
    }
    out.push_back(Falls{lo, lo + len - 1, w, 1, std::move(inner)});
  }
  return out;
}

FallsSet interleaved_encoding(const std::vector<LineSegment>& runs) {
  std::vector<LineSegment> halves[2];
  for (std::size_t i = 0; i < runs.size(); ++i) halves[i % 2].push_back(runs[i]);
  FallsSet out = compress_runs(halves[0]);
  for (Falls& f : compress_runs(halves[1])) out.push_back(std::move(f));
  std::sort(out.begin(), out.end(),
            [](const Falls& a, const Falls& b) { return a.l < b.l; });
  return out;
}

struct Input {
  std::int64_t p = 0;  ///< pattern size
  Mask bytes = 0;      ///< the subset of [0, p)
  FallsSet falls;      ///< one encoding of it
};

std::vector<Input> make_inputs(std::int64_t max_p) {
  std::vector<Input> out;
  for (std::int64_t p = 1; p <= max_p; ++p) {
    for (Mask m = 1; m < bit(p); ++m) {
      const auto runs = runs_of(m, p);
      const FallsSet nested = compress_runs_nested(runs);
      const FallsSet encodings[] = {
          compress_runs(runs), nested,
          equalize_height(nested, set_height(nested) + 1),
          array_encoding(m, p), interleaved_encoding(runs)};
      const std::size_t first = out.size();
      for (const FallsSet& e : encodings) {
        const bool seen =
            std::any_of(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
                        [&](const Input& in) { return in.falls == e; });
        if (!seen) out.push_back(Input{p, m, e});
      }
    }
  }
  return out;
}

/// Byte set of `set`, every byte of which must lie below 64.
Mask mask_of(const FallsSet& set) {
  Mask m = 0;
  for_each_run(set, [&](std::int64_t a, std::int64_t b) {
    for (std::int64_t x = a; x <= b; ++x) m |= bit(x);
  });
  return m;
}

bool valid(const FallsSet& set) {
  try {
    validate_falls_set(set);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// An input placed at a displacement, as INTERSECT and MAP see it.
struct Placed {
  const Input* in = nullptr;
  PatternElement elem;

  ElementRef ref() const { return {&elem.falls, elem.displacement, in->p}; }
  bool holds(std::int64_t f) const {
    return (in->bytes & bit((f - elem.displacement) % in->p)) != 0;
  }
  /// MAP oracle: members of the tiling from the displacement below f.
  std::int64_t rank(std::int64_t f) const {
    const std::int64_t rel = f - elem.displacement;
    return rel / in->p * count(in->bytes) + count(in->bytes & (bit(rel % in->p) - 1));
  }
  std::string str() const {
    std::ostringstream os;
    os << to_string(elem.falls) << " T=" << in->p << " d=" << elem.displacement;
    return os.str();
  }
};

std::vector<Placed> place(const std::vector<Input>& inputs,
                          std::initializer_list<std::int64_t> disps) {
  std::vector<Placed> out;
  for (const Input& in : inputs)
    for (std::int64_t d : disps) out.push_back(Placed{&in, {in.falls, in.p, d}});
  return out;
}

class Checker {
 public:
  std::int64_t intersections = 0;
  std::int64_t projections = 0;
  std::int64_t recompressed = 0;  ///< projections onto an interleaved element
  std::int64_t verdicts = 0;      ///< validate_falls_set and tiling verdicts
  std::int64_t subsets = 0;       ///< hand-built intersections projected
  std::int64_t refused = 0;       ///< of those, refused as ContractViolation

  /// Reports the first few failures in full and counts the rest.
  void fail(const std::string& what) {
    if (++failures_ <= 10) ADD_FAILURE() << what;
  }
  std::int64_t failures() const { return failures_; }

  void add(const Checker& c) {
    intersections += c.intersections;
    projections += c.projections;
    recompressed += c.recompressed;
    verdicts += c.verdicts;
    subsets += c.subsets;
    refused += c.refused;
    failures_ += c.failures_;
  }

  void check_map(const Placed& a) {
    const ElementRef ref = a.ref();
    for (std::int64_t f = a.elem.displacement; f < a.elem.displacement + 2 * a.in->p; ++f) {
      const std::int64_t k = a.rank(f);
      if (a.holds(f)) {
        if (map_to_element(ref, f) != k || map_to_file(ref, k) != f)
          fail("MAP/MAP^-1 of " + std::to_string(f) + " in " + a.str());
        continue;
      }
      if (map_to_element(ref, f, Round::kNext) != k)
        fail("MAP rounded up at " + std::to_string(f) + " in " + a.str());
      bool threw = false;
      std::int64_t prev = -1;
      try {
        prev = map_to_element(ref, f, Round::kPrev);
      } catch (const std::domain_error&) {
        threw = true;
      }
      if (k == 0 ? !threw : (threw || prev != k - 1))
        fail("MAP rounded down at " + std::to_string(f) + " in " + a.str());
    }
  }

  void check_pair(const Placed& a, const Placed& b) {
    const std::int64_t period = lcm64(a.in->p, b.in->p);
    const std::int64_t origin = std::max(a.elem.displacement, b.elem.displacement);
    Mask want = 0;
    for (std::int64_t t = 0; t < period; ++t)
      if (a.holds(origin + t) && b.holds(origin + t)) want |= bit(t);
    ++intersections;
    const Intersection x = intersect_nested(a.elem, b.elem);
    const auto pair = [&] { return a.str() + "  and  " + b.str(); };
    if (x.period != period || x.origin != origin ||
        set_extent(x.falls) > period || mask_of(x.falls) != want) {
      fail("INTERSECT of " + pair() + " gave " + to_string(x.falls));
      return;
    }
    if (want == 0) return;
    for (const Placed* e : {&a, &b}) {
      ++projections;
      if (!in_file_order(e->elem.falls)) ++recompressed;
      Mask image = 0;
      for (std::int64_t t = 0; t < period; ++t)
        if ((want & bit(t)) != 0) image |= bit(e->rank(origin + t));
      Projection p;
      try {
        p = project(x, e->elem);
        validate_falls_set(p.falls);
      } catch (const std::logic_error& ex) {  // ContractViolation or invalid_argument
        fail("PROJ of " + pair() + " onto " + e->str() + " refused: " + ex.what());
        continue;
      }
      if (p.period != count(e->in->bytes) * (period / e->in->p) ||
          set_extent(p.falls) > 64 || mask_of(p.falls) != image)
        fail("PROJ of " + pair() + " onto " + e->str() + " gave " + to_string(p.falls));
    }
    // map_between at the first and last common byte, and rounded up from the
    // first byte of a's period that b lacks.
    const std::int64_t lo = origin + std::countr_zero(want);
    const std::int64_t hi = origin + 63 - std::countl_zero(want);
    for (std::int64_t f : {lo, hi})
      if (map_between(a.ref(), b.ref(), a.rank(f)) != b.rank(f))
        fail("map_between at " + std::to_string(f) + " of " + pair());
    for (std::int64_t f = origin; f < origin + period; ++f) {
      if (!a.holds(f) || b.holds(f)) continue;
      if (map_between(a.ref(), b.ref(), a.rank(f), Round::kNext) != b.rank(f))
        fail("map_between rounded up at " + std::to_string(f) + " of " + pair());
      break;
    }
  }

  /// PROJ of every byte subset of e, flat and nested, as an intersection
  /// INTERSECT did not build: PROJ maps it exactly or refuses it as a
  /// ContractViolation, never returns a wrong set.
  void check_subsets(const Input& e) {
    const PatternElement elem{e.falls, e.p, 0};
    for (Mask y = e.bytes; y != 0; y = (y - 1) & e.bytes) {
      Mask image = 0;
      for (std::int64_t b = 0; b < e.p; ++b)
        if ((y & bit(b)) != 0) image |= bit(count(e.bytes & (bit(b) - 1)));
      const auto runs = runs_of(y, e.p);
      for (const FallsSet& xs : {compress_runs(runs), compress_runs_nested(runs)}) {
        ++subsets;
        Projection p;
        try {
          p = project(Intersection{xs, e.p, 0}, elem);
        } catch (const ContractViolation&) {
          ++refused;
          continue;
        }
        if (p.period != count(e.bytes) || !valid(p.falls) ||
            set_extent(p.falls) > 64 || mask_of(p.falls) != image)
          fail("PROJ of " + to_string(xs) + " onto " + to_string(e.falls) +
               " T=" + std::to_string(e.p) + " gave " + to_string(p.falls));
      }
    }
  }

  /// validate_falls_set on the merged members of a and b (both of size P),
  /// flat and as the inner set of a two-block FALLS, and the tiling check
  /// of the pattern {a, b}, against the run-level oracle.
  void check_verdicts(const Input& a, const Input& b) {
    FallsSet merged = a.falls;
    merged.insert(merged.end(), b.falls.begin(), b.falls.end());
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Falls& x, const Falls& y) { return x.l < y.l; });
    bool sorted = true;
    for (std::size_t i = 1; i < merged.size(); ++i)
      sorted = sorted && merged[i - 1].l < merged[i].l;
    const bool disjoint = (a.bytes & b.bytes) == 0;
    const auto accepts = [](const auto& build) {
      try {
        build();
        return true;
      } catch (const std::invalid_argument&) {
        return false;
      }
    };
    const FallsSet nested{Falls{0, a.p - 1, a.p, 2, merged}};
    verdicts += 3;
    if (accepts([&] { validate_falls_set(merged); }) != (sorted && disjoint))
      fail("validate_falls_set verdict on " + to_string(merged));
    if (accepts([&] { validate_falls_set(nested); }) != (sorted && disjoint))
      fail("validate_falls_set verdict on " + to_string(nested));
    const Mask all = a.bytes | b.bytes;  // the pattern tiles [0, its size)
    const bool tiles = disjoint && all == bit(count(all)) - 1;
    if (accepts([&] { (void)make_pattern({a.falls, b.falls}); }) != tiles)
      fail("tiling verdict on " + to_string(a.falls) + " + " + to_string(b.falls));
  }

 private:
  std::int64_t failures_ = 0;
};

void run_checker(std::int64_t max_p, Checker& c) {
  const std::vector<Input> inputs = make_inputs(max_p);
  for (const Input& in : inputs) ASSERT_NO_THROW(validate_falls_set(in.falls)) << to_string(in.falls);
  const std::vector<Placed> lhs = place(inputs, {0, 1, 3});
  const std::vector<Placed> rhs = place(inputs, {0, 2});
  for (const Placed& a : lhs) c.check_map(a);
  for (const Placed& a : rhs)
    if (a.elem.displacement == 2) c.check_map(a);
  // The pairs, dealt by left element to a few threads.
  const std::size_t k = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  std::vector<Checker> parts(k);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < k; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < lhs.size(); i += k)
        for (const Placed& b : rhs) parts[t].check_pair(lhs[i], b);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Checker& part : parts) c.add(part);
  for (const Input& a : inputs) {
    c.check_subsets(a);
    for (const Input& b : inputs)
      if (a.p == b.p) c.check_verdicts(a, b);
  }
  EXPECT_EQ(c.failures(), 0);
}

void report(std::int64_t max_p, const Checker& c, double seconds) {
  std::printf(
      "P <= %lld: %lld intersections, %lld projections (%lld by the walk, "
      "%lld after recompressing an interleaved element), %lld hand-built "
      "intersections (%lld refused), %lld verdicts, %.2f s\n",
      static_cast<long long>(max_p), static_cast<long long>(c.intersections),
      static_cast<long long>(c.projections),
      static_cast<long long>(c.projections - c.recompressed),
      static_cast<long long>(c.recompressed), static_cast<long long>(c.subsets),
      static_cast<long long>(c.refused), static_cast<long long>(c.verdicts),
      seconds);
}

void exhaustive(std::int64_t max_p) {
  const auto start = std::chrono::steady_clock::now();
  Checker c;
  run_checker(max_p, c);
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  report(max_p, c, took.count());
  EXPECT_GT(c.recompressed, 0);  // the interleaved encoding reaches PROJ
}

TEST(AlgebraCheck, ExhaustiveUpTo6) { exhaustive(6); }

TEST(AlgebraCheck, DISABLED_ExhaustiveUpTo8) { exhaustive(8); }

}  // namespace
}  // namespace pfm
