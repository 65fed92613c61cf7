#include "core.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "layout/array_layout.h"

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("SplitMix64::below: empty range");
  // Rejection sampling keeps the draw unbiased for every n.
  const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                              std::numeric_limits<std::uint64_t>::max() % n;
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  SplitMix64 mix(seed ^ (a * 0xD1B54A32D192ED03ULL) ^
                 (b * 0xC2B2AE3D27D4EB4FULL));
  return mix.next();
}

void fill_seeded(std::span<std::byte> out, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t x = rng.next();
    std::memcpy(out.data() + i, &x, 8);
  }
  if (i < out.size()) {
    const std::uint64_t x = rng.next();
    std::memcpy(out.data() + i, &x, out.size() - i);
  }
}

std::int64_t Grid2D::file_offset(std::int64_t elem, std::int64_t k) const {
  const std::int64_t pr = elem / grid_cols;
  const std::int64_t pc = elem % grid_cols;
  const std::int64_t lr = k / owned_cols();
  const std::int64_t lc = k % owned_cols();
  const std::int64_t row = (lr / block_rows) * block_rows * grid_rows +
                           pr * block_rows + lr % block_rows;
  const std::int64_t col = (lc / block_cols) * block_cols * grid_cols +
                           pc * block_cols + lc % block_cols;
  return row * kEdge + col;
}

void Grid2D::for_each_run(
    std::int64_t elem, std::int64_t offset, std::int64_t len,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn)
    const {
  std::int64_t rel = 0;
  while (rel < len) {
    const std::int64_t k = offset + rel;
    const std::int64_t lc = k % owned_cols();
    const std::int64_t run =
        std::min(block_cols - lc % block_cols, len - rel);
    fn(file_offset(elem, k), rel, run);
    rel += run;
  }
}

pfm::FallsSet Grid2D::falls(std::int64_t elem) const {
  // The same distributions partition2d_falls uses for r/c/b (BLOCK, or no
  // distribution on an axis of one processor), CYCLIC(block) otherwise.
  const auto dist = [](std::int64_t grid, std::int64_t block) {
    if (grid == 1) return pfm::Dist::none();
    if (block * grid == kEdge) return pfm::Dist::block_dist();
    return pfm::Dist::block_cyclic(block);
  };
  const pfm::ArrayDesc a{{kEdge, kEdge}, 1};
  const pfm::Dist dists[2] = {dist(grid_rows, block_rows),
                              dist(grid_cols, block_cols)};
  return pfm::layout_falls(a, dists, pfm::GridDesc{{grid_rows, grid_cols}},
                           elem);
}

Grid2D row_blocks(std::int64_t parts) {
  return {parts, 1, kEdge / parts, kEdge};
}
Grid2D column_blocks(std::int64_t parts) {
  return {1, parts, kEdge, kEdge / parts};
}
Grid2D square_blocks(std::int64_t parts) {
  const auto g = static_cast<std::int64_t>(std::llround(std::sqrt(parts)));
  return {g, g, kEdge / g, kEdge / g};
}
Grid2D block_cyclic(std::int64_t grid, std::int64_t block) {
  return {grid, grid, block, block};
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kStridedMismatch, Workload::kReplicatedBulk,
                           Workload::kViewChurn})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kStridedMismatch: return "strided_mismatch";
    case Workload::kReplicatedBulk: return "replicated_bulk";
    case Workload::kViewChurn: return "view_churn";
  }
  return "?";
}

WorkloadSpec workload_spec(Workload w) {
  WorkloadSpec s;
  s.id = w;
  switch (w) {
    case Workload::kStridedMismatch:
      // Row-block views over square-block subfiles: a 16-row request
      // splits into 2 targets of 16 runs each, replayed from the plan
      // cache (32 request slots per client fit its 64 entries).
      s.physical = square_blocks(kIoNodes);
      s.request_bytes = 16 * 1024;
      s.phase_calls = 250;
      break;
    case Workload::kReplicatedBulk:
      // Row-block views over row-block subfiles: every request is one
      // whole subfile, the contiguous fast path, fanned out to 3 replicas
      // (each behind the CRC32C integrity layer) with a write quorum of 2.
      // Memory storage: fdatasync on a virtual disk made write p50 vary by
      // 31% between runs, far past any useful regression bound. The file
      // backend's costs are measured by the per-layer replay instead.
      s.physical = row_blocks(kIoNodes);
      s.replication = 3;
      s.write_quorum = 2;
      s.request_bytes = 256 * 1024;
      s.replay_on_file = true;
      s.phase_calls = 50;
      break;
    case Workload::kViewChurn:
      s.physical = square_blocks(kIoNodes);
      s.request_bytes = 4 * 1024;
      s.churn_steps = 1500;
      s.churn_round = 75;
      break;
  }
  return s;
}

const std::vector<Grid2D>& churn_shapes() {
  static const std::vector<Grid2D> shapes = {
      column_blocks(4), square_blocks(4), block_cyclic(2, 64)};
  return shapes;
}

Grid2D io_view() { return row_blocks(kClients); }

std::vector<Op> generate_io_ring(const WorkloadSpec& spec, std::uint64_t seed,
                                 int client, OpKind kind, std::size_t length) {
  const bool write = kind == OpKind::kWrite;
  SplitMix64 rng(stream_seed(
      seed, 1, 2 * static_cast<std::uint64_t>(client) + (write ? 1 : 0)));
  const auto slots = static_cast<std::uint64_t>(io_view().element_bytes() /
                                                spec.request_bytes);
  std::vector<Op> ring(length);
  for (Op& op : ring) {
    op.kind = kind;
    op.offset = static_cast<std::int64_t>(rng.below(slots)) * spec.request_bytes;
    op.length = spec.request_bytes;
    if (write) op.payload = static_cast<std::uint32_t>(rng.below(kPayloadPool));
  }
  return ring;
}

std::vector<ChurnStep> generate_churn_batch(std::uint64_t seed, int client,
                                            int batch, int steps) {
  constexpr std::int64_t kAccess = 4 * 1024;
  SplitMix64 rng(stream_seed(seed, 2 + static_cast<std::uint64_t>(batch),
                             static_cast<std::uint64_t>(client)));
  const std::vector<Grid2D>& shapes = churn_shapes();
  std::vector<ChurnStep> out(static_cast<std::size_t>(steps));
  // Shapes are dealt in seeded permutations of all of them, so every
  // stretch of steps holds each shape as often (they differ in cost).
  std::vector<std::size_t> deal(shapes.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t k = i % deal.size();
    if (k == 0) {
      for (std::size_t j = 0; j < deal.size(); ++j) deal[j] = j;
      for (std::size_t j = deal.size() - 1; j > 0; --j)
        std::swap(deal[j], deal[rng.below(j + 1)]);
    }
    ChurnStep& step = out[i];
    step.view.kind = OpKind::kSetView;
    step.view.shape = shapes[deal[k]];
    step.view.elem = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(step.view.shape.parts())));
    const auto span = static_cast<std::uint64_t>(
        step.view.shape.element_bytes() - kAccess + 1);
    step.read.kind = OpKind::kRead;
    step.read.offset = static_cast<std::int64_t>(rng.below(span));
    step.read.length = kAccess;
    if (rng.below(4) == 0) {
      Op write = step.read;
      write.kind = OpKind::kWrite;
      write.offset = static_cast<std::int64_t>(rng.below(span));
      step.write = write;
    }
  }
  return out;
}

std::vector<pfm::Buffer> make_payload_pool(std::uint64_t seed, int client,
                                           std::uint32_t count,
                                           std::int64_t bytes) {
  std::vector<pfm::Buffer> pool(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    pool[i].resize(static_cast<std::size_t>(bytes));
    fill_seeded(pool[i], stream_seed(seed, 100 + i,
                                     static_cast<std::uint64_t>(client)));
  }
  return pool;
}

pfm::Buffer initial_image(std::uint64_t seed) {
  pfm::Buffer image(static_cast<std::size_t>(kFileBytes));
  fill_seeded(image, stream_seed(seed, 0xFEED));
  return image;
}

void Shadow::apply(const Grid2D& shape, std::int64_t elem, std::int64_t offset,
                   std::span<const std::byte> data) {
  shape.for_each_run(elem, offset, static_cast<std::int64_t>(data.size()),
                     [&](std::int64_t file, std::int64_t rel, std::int64_t len) {
                       std::memcpy(bytes_.data() + file, data.data() + rel,
                                   static_cast<std::size_t>(len));
                     });
}

void Shadow::expected(const Grid2D& shape, std::int64_t elem,
                      std::int64_t offset, std::span<std::byte> out) const {
  shape.for_each_run(elem, offset, static_cast<std::int64_t>(out.size()),
                     [&](std::int64_t file, std::int64_t rel, std::int64_t len) {
                       std::memcpy(out.data() + rel, bytes_.data() + file,
                                   static_cast<std::size_t>(len));
                     });
}

bool Shadow::matches(const Grid2D& shape, std::int64_t elem,
                     std::int64_t offset,
                     std::span<const std::byte> got) const {
  bool same = true;
  shape.for_each_run(elem, offset, static_cast<std::int64_t>(got.size()),
                     [&](std::int64_t file, std::int64_t rel, std::int64_t len) {
                       if (same && std::memcmp(got.data() + rel,
                                               bytes_.data() + file,
                                               static_cast<std::size_t>(len)) != 0)
                         same = false;
                     });
  return same;
}

double percentile(std::span<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double cpu_us_per_call(std::span<const PhaseStat> phases, OpKind kind,
                       bool traced) {
  std::vector<double> per_call;
  for (const PhaseStat& p : phases)
    if (p.kind == kind && p.traced == traced && p.calls > 0)
      per_call.push_back(p.cpu_s * 1e6 / static_cast<double>(p.calls));
  return percentile(per_call, kReportedPercentile);
}

std::uint64_t reference_kernel() {
  constexpr std::size_t kWords = 16 * 1024;  // 128 KiB
  static thread_local std::vector<std::uint64_t> a(kWords), b(kWords);
  SplitMix64 rng(0xCA11B8A7E);
  for (std::uint64_t& x : a) x = rng.next();
  for (int i = 0; i < 4; ++i) {
    std::memcpy(b.data(), a.data(), kWords * sizeof(std::uint64_t));
    b[static_cast<std::size_t>(i)] ^= 1;
  }
  std::sort(b.begin(), b.begin() + 4096);
  return b[0] ^ b[4095] ^ a[kWords - 1];
}

}  // namespace perfbench
