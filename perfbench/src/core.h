// The benchmark's own pieces, kept apart from main.cpp so the self-tests
// can reach them: the workload definitions, the seeded call generator, the
// view-offset oracle, the shadow copy every read is checked against, and
// the percentile math.
//
// Everything here is independent of the library under test except for the
// FALLS description of a view (layout_falls), which is what the client is
// handed; the oracle that maps view bytes to file bytes is computed from the
// grid parameters directly, so a mapping bug in the library shows up as a
// shadow mismatch rather than being reproduced by the check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "falls/falls.h"
#include "util/buffer.h"

namespace perfbench {

/// Edge of the square byte matrix the file holds (paper section 8.2).
inline constexpr std::int64_t kEdge = 1024;
inline constexpr std::int64_t kFileBytes = kEdge * kEdge;
/// Closed-loop client threads, one compute node each.
inline constexpr int kClients = 2;
inline constexpr int kIoNodes = 4;

/// Deterministic 64-bit generator (SplitMix64): the same seed yields the
/// same stream on every platform and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n >= 1.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Mixes independent stream identities into one generator seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

/// Fills `out` with seeded bytes.
void fill_seeded(std::span<std::byte> out, std::uint64_t seed);

/// One element of a 2-D block-cyclic partition of the kEdge x kEdge matrix:
/// rows are dealt round-robin in blocks of `block_rows` over `grid_rows`
/// processor rows, columns likewise; elements are numbered row-major over
/// the processor grid. Row blocks, column blocks and square blocks are the
/// special cases with one block per processor.
struct Grid2D {
  std::int64_t grid_rows = 1;
  std::int64_t grid_cols = 1;
  std::int64_t block_rows = kEdge;
  std::int64_t block_cols = kEdge;

  std::int64_t parts() const { return grid_rows * grid_cols; }
  std::int64_t owned_rows() const { return kEdge / grid_rows; }
  std::int64_t owned_cols() const { return kEdge / grid_cols; }
  /// Bytes of one element's linear (view) space.
  std::int64_t element_bytes() const { return owned_rows() * owned_cols(); }
  /// File offset of byte `k` of element `elem`'s linear space.
  std::int64_t file_offset(std::int64_t elem, std::int64_t k) const;
  /// Calls fn(file_off, rel, len) for the maximal file-contiguous runs of
  /// view bytes [offset, offset + len) of element `elem`; `rel` is the
  /// run's position relative to `offset`.
  void for_each_run(
      std::int64_t elem, std::int64_t offset, std::int64_t len,
      const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn)
      const;
  /// The element's FALLS description, as the client's set_view receives it.
  pfm::FallsSet falls(std::int64_t elem) const;

  bool operator==(const Grid2D&) const = default;
};

Grid2D row_blocks(std::int64_t parts);
Grid2D column_blocks(std::int64_t parts);
Grid2D square_blocks(std::int64_t parts);
Grid2D block_cyclic(std::int64_t grid, std::int64_t block);

enum class Workload { kStridedMismatch, kReplicatedBulk, kViewChurn };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Fixed parameters of one workload. Every workload's cluster keeps its
/// subfiles in memory storage.
struct WorkloadSpec {
  Workload id = Workload::kStridedMismatch;
  Grid2D physical;            ///< subfile layout (4 elements)
  int replication = 1;
  int write_quorum = 0;
  std::int64_t request_bytes = 0;
  /// The traced run's per-layer replay puts the storage stack on the file
  /// backend (with its fdatasync and epoch sidecar) instead of memory.
  bool replay_on_file = false;
  /// I/O workloads: calls per client in one read or write phase.
  int phase_calls = 0;
  /// view_churn: set_view steps per client per cluster lifetime, run in
  /// rounds of `churn_round` steps (a multiple of the number of shapes, so
  /// every round sets each shape equally often).
  int churn_steps = 0;
  int churn_round = 0;
};

WorkloadSpec workload_spec(Workload w);

/// The view shapes view_churn chooses from, over the square-block layout.
const std::vector<Grid2D>& churn_shapes();

enum class OpKind : std::uint8_t { kSetView, kRead, kWrite };

/// One generated client call. Reads and writes go through the view most
/// recently set by the same client.
struct Op {
  OpKind kind = OpKind::kRead;
  Grid2D shape;                ///< kSetView: the view's partition
  std::int64_t elem = 0;       ///< kSetView: the partition element
  std::int64_t offset = 0;     ///< kRead/kWrite: view offset
  std::int64_t length = 0;     ///< kRead/kWrite: bytes
  std::uint32_t payload = 0;   ///< kWrite: index into the payload pool

  bool operator==(const Op&) const = default;
};

/// The view every client of an I/O workload walks: its own row block of a
/// kClients-way row partition, so clients never touch each other's bytes.
Grid2D io_view();

/// Payload buffers per client for the I/O workloads.
inline constexpr std::uint32_t kPayloadPool = 32;

/// The reads (or writes) one client of an I/O workload cycles through:
/// seeded request_bytes calls at request-aligned view offsets. The run
/// alternates read and write phases, so the mix is 50/50.
std::vector<Op> generate_io_ring(const WorkloadSpec& spec, std::uint64_t seed,
                                 int client, OpKind kind, std::size_t length);

/// One step of view_churn: a set_view, a 4 KiB read through that view and,
/// on one step in four, a 4 KiB write at another offset of the same view.
struct ChurnStep {
  Op view;
  Op read;
  std::optional<Op> write;

  bool operator==(const ChurnStep&) const = default;
};

/// One cluster lifetime of view_churn for one client.
std::vector<ChurnStep> generate_churn_batch(std::uint64_t seed, int client,
                                            int batch, int steps);

/// Seeded write payloads of `bytes` each.
std::vector<pfm::Buffer> make_payload_pool(std::uint64_t seed, int client,
                                           std::uint32_t count,
                                           std::int64_t bytes);

/// The seeded initial image of the whole file.
pfm::Buffer initial_image(std::uint64_t seed);

/// Expected file content: updated on every write, compared on every read.
/// Threads may use one Shadow concurrently as long as no two touch the same
/// bytes with a write in between (the workloads guarantee it: I/O clients
/// own disjoint rows, view_churn writes never change content).
class Shadow {
 public:
  explicit Shadow(pfm::Buffer image) : bytes_(std::move(image)) {}

  /// Records a write of `data` at view offset `offset` of (shape, elem).
  void apply(const Grid2D& shape, std::int64_t elem, std::int64_t offset,
             std::span<const std::byte> data);
  /// Copies what a read of (shape, elem, offset) must return.
  void expected(const Grid2D& shape, std::int64_t elem, std::int64_t offset,
                std::span<std::byte> out) const;
  /// True when `got` is exactly what a read at that position must return.
  bool matches(const Grid2D& shape, std::int64_t elem, std::int64_t offset,
               std::span<const std::byte> got) const;

  const pfm::Buffer& bytes() const { return bytes_; }

 private:
  pfm::Buffer bytes_;
};

/// p-th percentile (p in [0, 100]) with linear interpolation between order
/// statistics; NaN for an empty sample. Sorts `samples` in place.
double percentile(std::span<double> samples, double p);

/// One phase of a run's window: every client made `calls` calls of one
/// kind between two barriers. cpu_s is the process CPU time (every thread
/// of the cluster; the host's steal excluded) the phase took, wall_s its
/// length.
struct PhaseStat {
  OpKind kind = OpKind::kRead;
  bool traced = false;
  std::int64_t calls = 0;
  double cpu_s = 0;
  double wall_s = 0;
};

/// The percentile a run reports of a cost it measured many times (phases,
/// set-ups). Contention from the host's other tenants only ever slows a
/// measurement and comes and goes within seconds: over six runs in a busy
/// hour the median phase cost of one kind varied by up to a half between
/// runs, its 10th percentile by up to a sixth.
inline constexpr double kReportedPercentile = 10.0;

/// CPU µs per call of the phases of `kind` (traced or not): the
/// kReportedPercentile over the phases. NaN when there is no such phase.
double cpu_us_per_call(std::span<const PhaseStat> phases, OpKind kind,
                       bool traced);

/// A fixed CPU workload (seeded fill, copies, a sort) whose thread CPU
/// time measures how fast the core runs at the moment. Returns a checksum
/// of its work, so it cannot be optimized away.
std::uint64_t reference_kernel();

/// reference_kernel's CPU time (µs, its kReportedPercentile over a run) on
/// a quiet core of the machine the benchmark was tuned on, a 4-vCPU
/// virtual machine on a 2.1 GHz Xeon: the core speed the end-to-end CPU
/// figures are scaled to.
inline constexpr double kReferenceKernelUs = 225.0;

}  // namespace perfbench
