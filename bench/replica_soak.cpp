// Replica soak benchmark: the latency price of k-way subfile replication,
// healthy and degraded, across the W-of-N write-quorum axis. Cells:
// replication=1 (the fault-free fast path — every reliability counter must
// read zero), replication=2 with all nodes up (full-quorum fan-out cost —
// the perf gate row), replication=2 with one I/O node crashed between the
// seed write and the measured workload (writes abandon the dead replica,
// reads fail over to a backup), and fault-free quorum cells (W=1 at
// replication 2 and 3, W=2 and full at replication 3). Quorum cells drain
// their background stragglers between the write and read phases and report
// the drain time; fault-free cells must finish with clean counters and no
// abandoned straggler. The degraded cell restarts the dead node and reports
// the re-sync transfer plus the scrub pass that follows. Hard gate: the
// healthy full-quorum replication=2 write must cost at most 2.5x the
// replication=1 baseline (the concurrent fan-out + vectorized storage
// target; the historical sequential engine sat near 55x). Emits
// BENCH_replica_soak.json. PFM_BENCH_QUICK=1 trims repetitions;
// PFM_WRITE_QUORUM=<w> adds a custom replication=2 cell at that quorum.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "clusterfile/fs.h"
#include "layout/partitions2d.h"
#include "util/buffer.h"
#include "util/timer.h"

namespace {

using namespace pfm;
using namespace pfm::bench;

constexpr int kNodes = 4;

/// Short deadlines so a dead replica costs milliseconds, not the default
/// backoff schedule — the degraded numbers stay comparable across machines.
RetryPolicy fast_policy() {
  RetryPolicy p;
  p.base_timeout = std::chrono::milliseconds(20);
  p.max_timeout = std::chrono::milliseconds(60);
  p.max_attempts = 3;
  return p;
}

struct Cell {
  const char* name = "";
  int replication = 1;
  int write_quorum = 0;  ///< 0 = full fan-out
  bool degrade = false;
  Stats write_us;
  Stats read_us;
  Stats drain_us;  ///< straggler drain between write and read (quorum cells)
  ReliabilityCounters client;
  ReliabilityCounters server;
  std::int64_t bytes = 0;
  std::int64_t stragglers_completed = 0;
  std::int64_t stragglers_abandoned = 0;
  // Accumulated over reps; resync only meaningful when degrade is set,
  // scrub whenever replication > 1.
  ResyncStats resync;
  ScrubReport scrub;
};

/// One repetition: seed both replicas healthy, optionally crash I/O node 0,
/// then run a timed write and a timed read of every client's column-block
/// view (each access touches every subfile, so a dead primary degrades
/// every client). Quorum cells drain their stragglers between the phases so
/// the read timing never rides on leftover background traffic. Degraded
/// reps finish with restart + re-sync + scrub.
void run_rep(std::int64_t n, Cell& cell) {
  const auto phys_elems =
      partition2d_all(Partition2D::kRowBlocks, n, n, kNodes);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, n, n, kNodes);
  const std::int64_t view_bytes = n * n / kNodes;

  ClusterConfig cfg;
  cfg.compute_nodes = kNodes;
  cfg.io_nodes = kNodes;
  cfg.replication = cell.replication;
  cfg.write_quorum = cell.write_quorum;
  Clusterfile fs(cfg,
                 PartitioningPattern({phys_elems.begin(), phys_elems.end()}, 0));

  // Two data generations: the seed generation reaches every replica while
  // the cluster is whole; the measured generation changes every byte, so a
  // crashed replica really misses it and re-sync has work to do.
  std::vector<Buffer> seed(kNodes), data(kNodes);
  for (int c = 0; c < kNodes; ++c) {
    seed[static_cast<std::size_t>(c)] =
        make_pattern_buffer(static_cast<std::size_t>(view_bytes),
                            static_cast<std::uint64_t>(c) + 100);
    data[static_cast<std::size_t>(c)] =
        make_pattern_buffer(static_cast<std::size_t>(view_bytes),
                            static_cast<std::uint64_t>(c) + 1);
  }
  std::vector<std::int64_t> vids(kNodes);
  for (int c = 0; c < kNodes; ++c) {
    auto& client = fs.client(c);
    client.set_retry_policy(fast_policy());
    vids[static_cast<std::size_t>(c)] =
        client.set_view(views[static_cast<std::size_t>(c)], n * n);
  }

  std::vector<Buffer> back(kNodes);
  const auto run_phase = [&](bool writing, const std::vector<Buffer>& gen) {
    Timer t;
    std::vector<std::thread> workers;
    workers.reserve(kNodes);
    for (int c = 0; c < kNodes; ++c) {
      workers.emplace_back([&, c] {
        auto& client = fs.client(c);
        const std::size_t k = static_cast<std::size_t>(c);
        if (writing) {
          client.write(vids[k], 0, view_bytes - 1, gen[k]);
        } else {
          back[k].assign(static_cast<std::size_t>(view_bytes), std::byte{0});
          client.read(vids[k], 0, view_bytes - 1, back[k]);
        }
      });
    }
    for (auto& w : workers) w.join();
    return t.elapsed_us();
  };
  const auto drain = [&] {
    Timer t;
    std::vector<std::thread> workers;
    workers.reserve(kNodes);
    for (int c = 0; c < kNodes; ++c)
      workers.emplace_back([&, c] { fs.client(c).drain_stragglers(); });
    for (auto& w : workers) w.join();
    return t.elapsed_us();
  };
  const auto verify = [&](const std::vector<Buffer>& want, const char* when) {
    for (int c = 0; c < kNodes; ++c)
      if (back[static_cast<std::size_t>(c)] !=
          want[static_cast<std::size_t>(c)]) {
        std::fprintf(stderr, "FATAL: read-back mismatch (%s, cell %s)\n", when,
                     cell.name);
        std::exit(1);
      }
  };

  run_phase(/*writing=*/true, seed);
  if (cell.write_quorum > 0) drain();
  if (cell.degrade) fs.crash_server(0);

  cell.write_us.add(run_phase(/*writing=*/true, data));
  if (cell.write_quorum > 0) cell.drain_us.add(drain());
  cell.read_us.add(run_phase(/*writing=*/false, data));
  verify(data, "degraded read");
  cell.bytes += 2 * view_bytes * kNodes;

  if (cell.degrade) {
    const ResyncStats rs = fs.restart_server(0);
    cell.resync.subfiles += rs.subfiles;
    cell.resync.ranges += rs.ranges;
    cell.resync.bytes += rs.bytes;
    cell.resync.full_transfers += rs.full_transfers;
    cell.resync.failures += rs.failures;
    cell.resync.elapsed_us += rs.elapsed_us;
  }
  if (cell.replication > 1) {
    const ScrubReport sr = fs.scrub();
    cell.scrub.blocks_checked += sr.blocks_checked;
    cell.scrub.divergent_blocks += sr.divergent_blocks;
    cell.scrub.unreadable_blocks += sr.unreadable_blocks;
    cell.scrub.repaired_blocks += sr.repaired_blocks;
    cell.scrub.unrepaired_blocks += sr.unrepaired_blocks;
    if (cell.degrade && !sr.clean()) {
      std::fprintf(stderr, "FATAL: scrub after re-sync found damage\n");
      std::exit(1);
    }
  }
  if (cell.degrade) {
    // The recovered cluster must serve the latest generation again, now
    // from a whole replica set.
    run_phase(/*writing=*/false, data);
    verify(data, "post-recovery read");
  }

  cell.client += fs.client_reliability();
  cell.server += fs.server_reliability();
  cell.stragglers_completed += fs.stragglers_completed();
  cell.stragglers_abandoned += fs.stragglers_abandoned();
}

}  // namespace

int main() {
  const bool quick = std::getenv("PFM_BENCH_QUICK") != nullptr;
  const std::int64_t n = quick ? 128 : 256;
  const int reps = quick ? 2 : 5;

  std::vector<Cell> cells;
  const auto add_cell = [&](const char* name, int repl, int quorum,
                            bool degrade) -> Cell& {
    Cell c;
    c.name = name;
    c.replication = repl;
    c.write_quorum = quorum;
    c.degrade = degrade;
    cells.push_back(std::move(c));
    return cells.back();
  };
  add_cell("baseline", 1, 0, false);
  add_cell("healthy", 2, 0, false);  // the perf-gate row
  add_cell("degraded", 2, 0, true);
  add_cell("r2w1", 2, 1, false);
  add_cell("r3w1", 3, 1, false);
  add_cell("r3w2", 3, 2, false);
  add_cell("r3full", 3, 0, false);
  if (const char* env = std::getenv("PFM_WRITE_QUORUM")) {
    const int w = std::clamp(std::atoi(env), 1, 2);
    add_cell("custom", 2, w, false);
  }
  for (Cell& cell : cells)
    for (int rep = 0; rep < reps; ++rep) run_rep(n, cell);

  std::printf("Replica soak: %lldx%lld matrix, %d reps per cell\n",
              static_cast<long long>(n), static_cast<long long>(n), reps);
  std::printf("%-9s %5s %7s %11s %11s %9s %10s %9s %10s\n", "cell", "repl",
              "quorum", "write ms", "read ms", "drain ms", "failovers",
              "stragglrs", "abandoned");
  for (const Cell& cell : cells)
    std::printf("%-9s %5d %7d %11.2f %11.2f %9.2f %10lld %9lld %10lld\n",
                cell.name, cell.replication, cell.write_quorum,
                cell.write_us.median() / 1000.0,
                cell.read_us.median() / 1000.0,
                cell.drain_us.count() ? cell.drain_us.median() / 1000.0 : 0.0,
                static_cast<long long>(cell.client.failovers),
                static_cast<long long>(cell.stragglers_completed),
                static_cast<long long>(cell.stragglers_abandoned));
  const Cell& deg = cells[2];
  std::printf(
      "re-sync: %d subfiles, %lld ranges, %lld bytes, %d full, %.1f ms\n",
      deg.resync.subfiles, static_cast<long long>(deg.resync.ranges),
      static_cast<long long>(deg.resync.bytes), deg.resync.full_transfers,
      static_cast<double>(deg.resync.elapsed_us) / 1000.0);
  std::printf(
      "scrub after re-sync: %lld blocks, %lld divergent, %lld unreadable, "
      "%lld repaired\n",
      static_cast<long long>(deg.scrub.blocks_checked),
      static_cast<long long>(deg.scrub.divergent_blocks),
      static_cast<long long>(deg.scrub.unreadable_blocks),
      static_cast<long long>(deg.scrub.repaired_blocks));

  // Fault-free rows must show no reliability work: the replication=1 cell
  // runs the PR-3 fast path (all counters zero), and every other fault-free
  // cell — full-quorum or sloppy — may pay fan-out but never failover,
  // degraded access, failed targets, a quorum shortfall, an abandoned
  // straggler, or scrub repairs.
  if (!cells[0].client.all_zero() || !cells[0].server.all_zero()) {
    std::fprintf(stderr,
                 "FATAL: nonzero reliability counters at replication=1\n");
    return 1;
  }
  for (const Cell& cell : cells) {
    if (cell.degrade) continue;
    if (cell.client.failovers != 0 || cell.client.degraded != 0 ||
        cell.client.replica_failures != 0 || cell.client.failures != 0 ||
        cell.client.quorum_short != 0 || cell.stragglers_abandoned != 0 ||
        cell.scrub.repaired_blocks != 0 || cell.scrub.divergent_blocks != 0 ||
        cell.scrub.unreadable_blocks != 0) {
      std::fprintf(stderr,
                   "FATAL: fault-free cell %s shows failover, quorum "
                   "shortfall, or repair work\n",
                   cell.name);
      return 1;
    }
  }
  if (deg.resync.failures != 0) {
    std::fprintf(stderr, "FATAL: re-sync failed for %d subfiles\n",
                 deg.resync.failures);
    return 1;
  }

  // The perf gate (ROADMAP item 1): a healthy full-quorum replication=2
  // write must stay within 2.5x the replication=1 baseline — concurrent
  // fan-out plus vectorized integrity storage, not serialized replicas.
  const double base_ms = cells[0].write_us.median() / 1000.0;
  const double healthy_ms = cells[1].write_us.median() / 1000.0;
  const double ratio = base_ms > 0 ? healthy_ms / base_ms : 0.0;
  std::printf("healthy repl=2 write / baseline write = %.2fx (gate: 2.5x)\n",
              ratio);
  if (base_ms > 0 && ratio > 2.5) {
    std::fprintf(stderr,
                 "FATAL: healthy replication=2 write is %.2fx the baseline "
                 "(gate 2.5x)\n",
                 ratio);
    return 1;
  }
  // Soft check: W=1 should not cost more than full quorum plus noise.
  const double r2w1_ms = cells[3].write_us.median() / 1000.0;
  if (healthy_ms > 0 && r2w1_ms > healthy_ms * 1.3)
    std::fprintf(stderr,
                 "WARNING: r2w1 write (%.2f ms) exceeds healthy full-quorum "
                 "(%.2f ms) by more than 30%%\n",
                 r2w1_ms, healthy_ms);

  Json arr = Json::array();
  for (const Cell& cell : cells) {
    Json j = Json::object();
    j.set("cell", Json::string(cell.name));
    j.set("replication", Json::integer(cell.replication));
    j.set("write_quorum", Json::integer(cell.write_quorum));
    j.set("degraded_run", Json::boolean(cell.degrade));
    j.set("write_us", Json::summary(cell.write_us));
    j.set("read_us", Json::summary(cell.read_us));
    if (cell.write_quorum > 0)
      j.set("drain_us", Json::summary(cell.drain_us));
    j.set("bytes", Json::integer(cell.bytes));
    j.set("stragglers_completed", Json::integer(cell.stragglers_completed));
    j.set("stragglers_abandoned", Json::integer(cell.stragglers_abandoned));
    j.set("client", counters_json(cell.client));
    j.set("server", counters_json(cell.server));
    if (cell.degrade) {
      Json rs = Json::object();
      rs.set("subfiles", Json::integer(cell.resync.subfiles));
      rs.set("ranges", Json::integer(cell.resync.ranges));
      rs.set("bytes", Json::integer(cell.resync.bytes));
      rs.set("full_transfers", Json::integer(cell.resync.full_transfers));
      rs.set("failures", Json::integer(cell.resync.failures));
      rs.set("elapsed_us", Json::integer(cell.resync.elapsed_us));
      j.set("resync", std::move(rs));
    }
    if (cell.replication > 1) {
      Json sc = Json::object();
      sc.set("blocks_checked", Json::integer(cell.scrub.blocks_checked));
      sc.set("divergent_blocks", Json::integer(cell.scrub.divergent_blocks));
      sc.set("unreadable_blocks", Json::integer(cell.scrub.unreadable_blocks));
      sc.set("repaired_blocks", Json::integer(cell.scrub.repaired_blocks));
      sc.set("unrepaired_blocks", Json::integer(cell.scrub.unrepaired_blocks));
      j.set("scrub", std::move(sc));
    }
    arr.push(std::move(j));
  }
  Json root = Json::object();
  root.set("bench", Json::string("replica_soak"));
  root.set("n", Json::integer(n));
  root.set("repetitions", Json::integer(reps));
  root.set("cells", std::move(arr));
  write_bench_json("replica_soak", root);
  return 0;
}
