#include "redist/plan.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "intersect/project.h"
#include "util/arith.h"
#include "util/check.h"

namespace pfm {

std::int64_t RedistPlan::bytes_per_period() const {
  std::int64_t total = 0;
  for (const Transfer& t : transfers) total += t.bytes_per_period;
  return total;
}

namespace {

/// Checks that the per-period runs of the index sets are pairwise disjoint
/// within one element's linear space. `runs` holds (transfer index, run)
/// pairs for one element.
void check_disjoint_runs(std::vector<std::pair<std::size_t, LineSegment>> runs,
                         const char* side, std::size_t elem) {
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.second.l < b.second.l; });
  for (std::size_t i = 1; i < runs.size(); ++i) {
    PFM_CHECK(runs[i].second.l > runs[i - 1].second.r,
              "plan transfers ", runs[i - 1].first, " and ", runs[i].first,
              " overlap in the ", side, " space of element ", elem, " near offset ",
              runs[i].second.l);
  }
}

}  // namespace

void validate_plan(const RedistPlan& plan, const PartitioningPattern& from,
                   const PartitioningPattern& to) {
  PFM_CHECK(plan.period == lcm64(from.size(), to.size()),
            "period ", plan.period, " != lcm(", from.size(), ", ", to.size(), ")");
  PFM_CHECK(plan.origin == std::max(from.displacement(), to.displacement()),
            "origin ", plan.origin, " is not the max displacement");

  // Per-element run lists for the disjointness checks.
  std::vector<std::vector<std::pair<std::size_t, LineSegment>>> src_runs(
      from.element_count());
  std::vector<std::vector<std::pair<std::size_t, LineSegment>>> dst_runs(
      to.element_count());
  std::set<std::pair<std::size_t, std::size_t>> seen_pairs;

  std::int64_t total = 0;
  for (std::size_t ti = 0; ti < plan.transfers.size(); ++ti) {
    const Transfer& t = plan.transfers[ti];
    PFM_CHECK(t.src_elem < from.element_count(), "transfer ", ti,
              ": source element ", t.src_elem, " out of range");
    PFM_CHECK(t.dst_elem < to.element_count(), "transfer ", ti,
              ": destination element ", t.dst_elem, " out of range");
    PFM_CHECK(seen_pairs.emplace(t.src_elem, t.dst_elem).second, "transfer ", ti,
              ": duplicate pair (", t.src_elem, ", ", t.dst_elem, ")");
    validate_falls_set(t.common);
    validate_falls_set(t.src_idx.falls());
    validate_falls_set(t.dst_idx.falls());
    PFM_CHECK(t.bytes_per_period > 0, "transfer ", ti, ": moves no bytes");
    PFM_CHECK(set_size(t.common) == t.bytes_per_period, "transfer ", ti,
              ": common byte set disagrees with bytes_per_period");
    PFM_CHECK(set_extent(t.common) <= plan.period, "transfer ", ti,
              ": common bytes exceed the plan period");
    // Gather total == scatter total (the paper's equal-size projections).
    PFM_CHECK(t.src_idx.size() == t.bytes_per_period, "transfer ", ti,
              ": gather set has ", t.src_idx.size(), " bytes, expected ",
              t.bytes_per_period);
    PFM_CHECK(t.dst_idx.size() == t.bytes_per_period, "transfer ", ti,
              ": scatter set has ", t.dst_idx.size(), " bytes, expected ",
              t.bytes_per_period);
    // Each index set must live inside its element's share of one common
    // period: size(element) * (period / pattern_size) element bytes.
    const std::int64_t src_share =
        set_size(from.element(t.src_elem)) * (plan.period / from.size());
    const std::int64_t dst_share =
        set_size(to.element(t.dst_elem)) * (plan.period / to.size());
    PFM_CHECK(t.src_idx.period() == src_share, "transfer ", ti,
              ": gather period ", t.src_idx.period(), " != element share ",
              src_share);
    PFM_CHECK(t.dst_idx.period() == dst_share, "transfer ", ti,
              ": scatter period ", t.dst_idx.period(), " != element share ",
              dst_share);
    for (const LineSegment& run : set_runs(t.src_idx.falls()))
      src_runs[t.src_elem].emplace_back(ti, run);
    for (const LineSegment& run : set_runs(t.dst_idx.falls()))
      dst_runs[t.dst_elem].emplace_back(ti, run);
    total += t.bytes_per_period;
  }

  for (std::size_t i = 0; i < src_runs.size(); ++i)
    check_disjoint_runs(std::move(src_runs[i]), "gather", i);
  for (std::size_t j = 0; j < dst_runs.size(); ++j)
    check_disjoint_runs(std::move(dst_runs[j]), "scatter", j);

  // Aligned patterns tile the same byte space, so the transfers must cover
  // one full common period with no byte lost or duplicated.
  if (from.displacement() == to.displacement())
    PFM_CHECK(total == plan.period, "plan moves ", total, " bytes per period of ",
              plan.period);
}

RedistPlan build_plan(const PartitioningPattern& from,
                      const PartitioningPattern& to) {
  // Redistribution rewrites the partitioning pattern of a file in place;
  // the displacement is part of the file, not the pattern, so a plan
  // between patterns at different displacements is meaningless (its
  // projections would escape their index periods).
  if (from.displacement() != to.displacement())
    throw std::invalid_argument("build_plan: displacements must match");
  RedistPlan plan;
  bool first = true;
  for (std::size_t i = 0; i < from.element_count(); ++i) {
    const PatternElement& src = from.pattern_element(i);
    for (std::size_t j = 0; j < to.element_count(); ++j) {
      const PatternElement& dst = to.pattern_element(j);
      Intersection x = intersect_nested(src, dst);
      if (first) {
        plan.period = x.period;
        plan.origin = x.origin;
        first = false;
      }
      if (x.empty()) continue;
      Transfer t;
      t.src_elem = i;
      t.dst_elem = j;
      t.bytes_per_period = set_size(x.falls);
      t.runs_per_period = static_cast<std::int64_t>(set_runs(x.falls).size());
      const Projection ps = project(x, src);
      const Projection pd = project(x, dst);
      t.src_idx = IndexSet(ps.falls, ps.period);
      t.dst_idx = IndexSet(pd.falls, pd.period);
      t.common = std::move(x.falls);
      plan.transfers.push_back(std::move(t));
    }
  }
  if constexpr (kDcheckEnabled) validate_plan(plan, from, to);
  return plan;
}

}  // namespace pfm
