#include "redist/gather_scatter.h"

#include <charconv>
#include <cstring>
#include <stdexcept>

#include "falls/print.h"
#include "falls/serialize.h"
#include "falls/set_ops.h"
#include "util/arith.h"
#include "util/check.h"

namespace pfm {

IndexSet::IndexSet(FallsSet falls, std::int64_t period)
    : falls_(std::move(falls)), period_(period) {
  if (period_ < 1) throw std::invalid_argument("IndexSet: period < 1");
  // A malformed (unsorted / overlapping) index set would double-copy some
  // bytes and drop others in gather/scatter; catch it where the set enters.
  if constexpr (kDcheckEnabled) validate_falls_set(falls_);
  if (set_extent(falls_) > period_)
    throw std::invalid_argument("IndexSet: set extent exceeds period");
  size_ = set_size(falls_);
  in_order_ = in_file_order(falls_);
  // A client keeps its index sets for a view's lifetime and a server for a
  // cache entry's: hold the members without the spare capacity a moved-in
  // result may carry.
  falls_.shrink_to_fit();
}

std::int64_t IndexSet::count_in(std::int64_t v, std::int64_t w) const {
  v = std::max<std::int64_t>(v, 0);
  if (v > w || size_ == 0) return 0;
  // Rank of a tiled position x: full periods below plus rank within phase.
  const auto rank = [&](std::int64_t x) {  // member bytes strictly below x
    const std::int64_t p = div_floor(x, period_);
    const std::int64_t phase = mod_floor(x, period_);
    return p * size_ + set_rank(falls_, phase);
  };
  return rank(w + 1) - rank(v);
}

RunList IndexSet::materialize_in(std::int64_t v, std::int64_t w) const {
  RunList rl;
  for_each_run_in(v, w, [&](std::int64_t lo, std::int64_t hi) {
    const std::int64_t len = hi - lo + 1;
    if (!rl.runs.empty() &&
        lo != v + rl.runs.back().rel_lo + rl.runs.back().len)
      rl.contiguous = false;
    rl.runs.push_back({lo - v, len, rl.bytes});
    rl.bytes += len;
  });
  return rl;
}

std::string encode_projection(const FallsSet& falls, std::int64_t period) {
  char head[21];
  char* end = std::to_chars(head, head + 20, period).ptr;
  *end++ = ' ';
  return to_string(std::string_view(head, static_cast<std::size_t>(end - head)), falls);
}

IndexSet decode_projection(std::string_view text) {
  const std::size_t sep = text.find(' ');
  if (sep == std::string_view::npos)
    throw std::invalid_argument("projection meta is not '<period> <falls>'");
  IndexSet proj(parse_falls_set(text.substr(sep + 1)),
                parse_i64(text.substr(0, sep)));
  if (proj.size() == 0) throw std::invalid_argument("empty projection");
  return proj;
}

Buffer gather_runs(std::span<const std::byte> src, const RunList& rl) {
  if (rl.bytes == 0) return {};
  if (rl.contiguous) {
    const std::byte* from = src.data() + rl.runs.front().rel_lo;
    return Buffer(from, from + rl.bytes);
  }
  Buffer out;
  out.reserve(static_cast<std::size_t>(rl.bytes));
  for (const MaterializedRun& run : rl.runs) {
    const std::byte* from = src.data() + run.rel_lo;
    out.insert(out.end(), from, from + run.len);
  }
  return out;
}

void scatter_runs(std::span<std::byte> dest, std::span<const std::byte> src,
                  const RunList& rl) {
  if (rl.bytes == 0) return;
  PFM_CHECK(static_cast<std::int64_t>(src.size()) >= rl.bytes,
            "scatter_runs: src holds ", src.size(), " of ", rl.bytes,
            " bytes");
  if (rl.contiguous) {
    std::memcpy(dest.data() + rl.runs.front().rel_lo, src.data(),
                static_cast<std::size_t>(rl.bytes));
    return;
  }
  for (const MaterializedRun& run : rl.runs)
    std::memcpy(dest.data() + run.rel_lo, src.data() + run.dest_off,
                static_cast<std::size_t>(run.len));
}

std::int64_t gather(std::span<std::byte> dest, std::span<const std::byte> src,
                    std::int64_t v, std::int64_t w, const IndexSet& idx) {
  if (v > w) throw std::invalid_argument("gather: v > w");
  if (static_cast<std::int64_t>(src.size()) < w - v + 1)
    throw std::invalid_argument("gather: src smaller than [v, w]");
  std::int64_t out = 0;
  idx.for_each_run_in(v, w, [&](std::int64_t lo, std::int64_t hi) {
    const std::int64_t len = hi - lo + 1;
    if (out + len > static_cast<std::int64_t>(dest.size()))
      throw std::out_of_range("gather: dest buffer too small");
    std::memcpy(dest.data() + out, src.data() + (lo - v),
                static_cast<std::size_t>(len));
    out += len;
  });
  PFM_DCHECK(out == idx.count_in(v, w),
             "gather copied ", out, " bytes, rank arithmetic says ",
             idx.count_in(v, w));
  return out;
}

std::int64_t scatter(std::span<std::byte> dest, std::span<const std::byte> src,
                     std::int64_t v, std::int64_t w, const IndexSet& idx) {
  if (v > w) throw std::invalid_argument("scatter: v > w");
  if (static_cast<std::int64_t>(dest.size()) < w - v + 1)
    throw std::invalid_argument("scatter: dest smaller than [v, w]");
  std::int64_t in = 0;
  idx.for_each_run_in(v, w, [&](std::int64_t lo, std::int64_t hi) {
    const std::int64_t len = hi - lo + 1;
    if (in + len > static_cast<std::int64_t>(src.size()))
      throw std::out_of_range("scatter: src buffer too small");
    std::memcpy(dest.data() + (lo - v), src.data() + in,
                static_cast<std::size_t>(len));
    in += len;
  });
  PFM_DCHECK(in == idx.count_in(v, w),
             "scatter copied ", in, " bytes, rank arithmetic says ",
             idx.count_in(v, w));
  return in;
}

}  // namespace pfm
