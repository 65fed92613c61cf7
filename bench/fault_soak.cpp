// Fault soak benchmark: throughput and reliability-counter cost of the
// Clusterfile request layer under increasing message-drop rates (0%, 1%,
// 5%). The 0% row runs with no injector installed — the fault-free fast
// path, whose counters must all read zero — so the row-to-row delta is the
// price of retransmission, not of instrumentation. Emits
// BENCH_fault_soak.json. PFM_FAULT_SEED picks the injector seed base;
// PFM_BENCH_QUICK=1 trims repetitions for smoke runs.
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "cluster/fault.h"
#include "clusterfile/fs.h"
#include "layout/partitions2d.h"
#include "util/buffer.h"
#include "util/timer.h"

namespace {

using namespace pfm;
using namespace pfm::bench;

constexpr int kSoakNodes = 4;

struct SoakCell {
  double drop = 0.0;
  Stats write_mbps;
  Stats read_mbps;
  ReliabilityCounters client;
  ReliabilityCounters server;
  FaultInjector::Counters injected;
  std::int64_t bytes = 0;
};

RetryPolicy soak_policy() {
  RetryPolicy p;
  p.base_timeout = std::chrono::milliseconds(10);
  p.max_timeout = std::chrono::milliseconds(100);
  p.max_attempts = 12;
  return p;
}

/// One repetition: every compute node writes and reads its column-block
/// view (maximal fragmentation: each access touches every subfile).
void run_rep(std::int64_t n, double drop, std::uint64_t seed, SoakCell& cell) {
  const auto phys_elems =
      partition2d_all(Partition2D::kRowBlocks, n, n, kSoakNodes);
  const auto views =
      partition2d_all(Partition2D::kColumnBlocks, n, n, kSoakNodes);
  const std::int64_t view_bytes = n * n / kSoakNodes;

  ClusterConfig cfg;
  cfg.compute_nodes = kSoakNodes;
  cfg.io_nodes = kSoakNodes;
  Clusterfile fs(cfg,
                 PartitioningPattern({phys_elems.begin(), phys_elems.end()}, 0));
  if (drop > 0.0) {
    FaultPlan plan;
    plan.seed = seed;
    FaultRule rule;
    rule.drop = drop;
    plan.rules.push_back(rule);
    fs.install_faults(plan);
  }

  std::vector<Buffer> data(kSoakNodes);
  for (int c = 0; c < kSoakNodes; ++c)
    data[static_cast<std::size_t>(c)] =
        make_pattern_buffer(static_cast<std::size_t>(view_bytes),
                            static_cast<std::uint64_t>(c) + 1);
  std::vector<std::int64_t> vids(kSoakNodes);
  for (int c = 0; c < kSoakNodes; ++c) {
    auto& client = fs.client(c);
    client.set_retry_policy(soak_policy());
    vids[static_cast<std::size_t>(c)] =
        client.set_view(views[static_cast<std::size_t>(c)], n * n);
  }

  const auto run_phase = [&](bool writing) {
    Timer t;
    std::vector<std::thread> workers;
    workers.reserve(kSoakNodes);
    std::vector<Buffer> back(kSoakNodes);
    for (int c = 0; c < kSoakNodes; ++c) {
      workers.emplace_back([&, c] {
        auto& client = fs.client(c);
        const std::size_t k = static_cast<std::size_t>(c);
        if (writing) {
          client.write(vids[k], 0, view_bytes - 1, data[k]);
        } else {
          back[k].resize(static_cast<std::size_t>(view_bytes));
          client.read(vids[k], 0, view_bytes - 1, back[k]);
        }
      });
    }
    for (auto& w : workers) w.join();
    const double us = t.elapsed_us();
    if (!writing) {
      for (int c = 0; c < kSoakNodes; ++c)
        if (back[static_cast<std::size_t>(c)] !=
            data[static_cast<std::size_t>(c)]) {
          std::fprintf(stderr, "FATAL: read-back mismatch at drop=%.2f\n", drop);
          std::exit(1);
        }
    }
    return static_cast<double>(view_bytes) * kSoakNodes / us;  // MB/s
  };

  cell.write_mbps.add(run_phase(/*writing=*/true));
  cell.read_mbps.add(run_phase(/*writing=*/false));
  cell.bytes += 2 * view_bytes * kSoakNodes;
  cell.client += fs.client_reliability();
  cell.server += fs.server_reliability();
  if (drop > 0.0) {
    const auto c = fs.faults().counters();
    cell.injected.dropped += c.dropped;
    cell.injected.duplicated += c.duplicated;
    cell.injected.corrupted += c.corrupted;
    cell.injected.delayed += c.delayed;
    cell.injected.partition_dropped += c.partition_dropped;
  }
}

}  // namespace

int main() {
  const bool quick = std::getenv("PFM_BENCH_QUICK") != nullptr;
  const std::int64_t n = quick ? 128 : 256;
  const int reps = quick ? 2 : 5;
  std::uint64_t seed_base = 1;
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seed_base = std::strtoull(env, nullptr, 10);

  const double drops[] = {0.0, 0.01, 0.05};
  std::vector<SoakCell> cells;
  for (const double drop : drops) {
    SoakCell cell;
    cell.drop = drop;
    for (int rep = 0; rep < reps; ++rep)
      run_rep(n, drop, seed_base + static_cast<std::uint64_t>(rep), cell);
    cells.push_back(std::move(cell));
  }

  std::printf("Fault soak: %lldx%lld matrix, %d reps per drop rate, seed %llu\n",
              static_cast<long long>(n), static_cast<long long>(n), reps,
              static_cast<unsigned long long>(seed_base));
  std::printf("%6s %12s %12s %8s %9s %9s %8s\n", "drop", "write MB/s",
              "read MB/s", "retries", "timeouts", "dup.supp", "dropped");
  for (const SoakCell& cell : cells) {
    std::printf("%5.0f%% %12.1f %12.1f %8lld %9lld %9lld %8lld\n",
                cell.drop * 100.0, cell.write_mbps.median(),
                cell.read_mbps.median(),
                static_cast<long long>(cell.client.retries),
                static_cast<long long>(cell.client.timeouts),
                static_cast<long long>(cell.server.duplicates_suppressed),
                static_cast<long long>(cell.injected.dropped));
  }
  // The fault-free row must be counter-clean: any nonzero here means the
  // reliability layer is doing work (and costing time) with no faults.
  if (!cells[0].client.all_zero() || !cells[0].server.all_zero()) {
    std::fprintf(stderr, "FATAL: nonzero reliability counters at drop=0\n");
    return 1;
  }

  Json arr = Json::array();
  for (const SoakCell& cell : cells) {
    Json j = Json::object();
    j.set("drop_rate", Json::number(cell.drop));
    j.set("write_mbps", Json::summary(cell.write_mbps));
    j.set("read_mbps", Json::summary(cell.read_mbps));
    j.set("bytes", Json::integer(cell.bytes));
    j.set("client", counters_json(cell.client));
    j.set("server", counters_json(cell.server));
    Json inj = Json::object();
    inj.set("dropped", Json::integer(cell.injected.dropped));
    inj.set("duplicated", Json::integer(cell.injected.duplicated));
    inj.set("corrupted", Json::integer(cell.injected.corrupted));
    inj.set("delayed", Json::integer(cell.injected.delayed));
    inj.set("partition_dropped", Json::integer(cell.injected.partition_dropped));
    j.set("injected", std::move(inj));
    arr.push(std::move(j));
  }
  Json root = Json::object();
  root.set("bench", Json::string("fault_soak"));
  root.set("n", Json::integer(n));
  root.set("repetitions", Json::integer(reps));
  root.set("seed", Json::integer(static_cast<std::int64_t>(seed_base)));
  root.set("cells", std::move(arr));
  write_bench_json("fault_soak", root);
  return 0;
}
