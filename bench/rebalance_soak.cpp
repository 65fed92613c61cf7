// Rebalance soak: elastic membership end to end. Three cells on a
// replicated, ring-placed cluster with a fully written file:
//
//   grow_fault_free        add_io_node on a clean wire
//   shrink_fault_free      decommission_node on a clean wire
//   chaos                  add_io_node under 1% drop with a source node
//                          crash-restarted mid-migration
//
// The fault-free cells hard-gate the tentpole claim: bulk bytes moved by
// the migrations must be within 1.05x of the INTERSECT/PROJ theoretical
// minimum, recomputed here by diffing the placement tables the cell
// actually started and ended with through plan_rebalance. They must also
// finish counter-clean — a rebalance is not a failure, so zero repairs,
// zero quorum shortfalls, zero dead declarations. The chaos cell proves
// byte-identical foreground reads through the whole migration (drop,
// crash, restart, re-plan) and reports foreground p99 latency before vs
// during migration (report only — single-host contention makes a gate
// meaningless).
//
// Emits BENCH_rebalance_soak.json. PFM_FAULT_SEED seeds the injector;
// PFM_BENCH_QUICK=1 trims the foreground iteration count.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_json.h"
#include "cluster/fault.h"
#include "clusterfile/fs.h"
#include "clusterfile/mover.h"
#include "layout/partitions2d.h"
#include "util/buffer.h"
#include "util/timer.h"

namespace {

using namespace pfm;
using namespace pfm::bench;

constexpr int kNodes = 4;
constexpr std::int64_t kN = 128;          // kN x kN byte matrix
constexpr std::int64_t kSubfiles = 8;

RetryPolicy soak_policy() {
  RetryPolicy p;
  p.base_timeout = std::chrono::milliseconds(50);
  p.max_timeout = std::chrono::milliseconds(400);
  p.max_attempts = 8;
  return p;
}

struct CellResult {
  const char* name = "";
  bool faults = false;
  int change = 0;  ///< +1 grow, -1 shrink
  std::int64_t bytes_min = 0;        ///< plan_rebalance theoretical floor
  std::int64_t bytes_migrated = 0;   ///< bulk-copy bytes actually applied
  std::int64_t bytes_caught_up = 0;  ///< post-publish catch-up syncs
  double ratio = 0;                  ///< migrated / min (the gated number)
  RebalanceCounters rebalance;
  ReliabilityCounters client;
  ReliabilityCounters repair;
  FailureDetector::Counters detector;
  std::int64_t ring_epoch = 0;
  std::int64_t baseline_p99_us = 0;   ///< foreground p99 before the change
  std::int64_t migrating_p99_us = 0;  ///< foreground p99 while migrating
  int foreground_accesses = 0;
  std::int64_t elapsed_us = 0;
};

[[noreturn]] void fatal(const char* cell, const char* what) {
  std::fprintf(stderr, "FATAL: rebalance soak cell %s: %s\n", cell, what);
  std::exit(1);
}

std::int64_t p99_us(std::vector<std::int64_t> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() * 99 / 100];
}

std::vector<std::vector<int>> placement_tables(const Clusterfile& fs) {
  std::vector<std::vector<int>> tables;
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    tables.push_back(fs.replica_nodes(i));
  return tables;
}

CellResult run_cell(const char* name, bool faults, int change, int foreground,
                    std::uint64_t seed) {
  CellResult res;
  res.name = name;
  res.faults = faults;
  res.change = change;
  Timer timer;

  const auto phys_elems =
      partition2d_all(Partition2D::kRowBlocks, kN, kN, kSubfiles);
  const PartitioningPattern physical({phys_elems.begin(), phys_elems.end()},
                                     0);
  const auto views =
      partition2d_all(Partition2D::kColumnBlocks, kN, kN, kNodes);
  const std::int64_t view_bytes = kN * kN / kNodes;

  ClusterConfig cfg;
  cfg.compute_nodes = kNodes;
  cfg.io_nodes = kNodes;
  cfg.replication = 2;
  cfg.self_heal = true;
  cfg.heartbeat.interval_ms = 30;
  cfg.heartbeat.timeout_ms = 20;
  cfg.heartbeat.suspect_n = 3;
  cfg.ring_placement = true;
  cfg.max_io_nodes = kNodes + 1;
  cfg.rebalance_chunk = 512;  // several pulls per subfile copy
  cfg.repair_retry = soak_policy();
  Clusterfile fs(cfg, physical);
  if (faults) {
    FaultPlan plan;
    plan.seed = seed;
    FaultRule rule;
    rule.drop = 0.01;
    plan.rules.push_back(rule);
    fs.install_faults(plan);
  }

  std::vector<std::int64_t> vids(kNodes);
  std::vector<Buffer> expected(kNodes);
  for (int c = 0; c < kNodes; ++c) {
    auto& client = fs.client(c);
    client.set_retry_policy(soak_policy());
    vids[static_cast<std::size_t>(c)] =
        client.set_view(views[static_cast<std::size_t>(c)], kN * kN);
    expected[static_cast<std::size_t>(c)] = make_pattern_buffer(
        static_cast<std::size_t>(view_bytes), 900 + static_cast<unsigned>(c));
    const auto w = fs.client(c).write(vids[static_cast<std::size_t>(c)], 0,
                                      view_bytes - 1,
                                      expected[static_cast<std::size_t>(c)]);
    if (!w.ok()) fatal(name, "seed write failed");
  }

  // One foreground access: client c rewrites its view with the same bytes
  // and reads it back, byte-checked. Returns the access latency.
  const auto foreground_access = [&](int i) {
    const int c = i % kNodes;
    auto& client = fs.client(c);
    const std::size_t ci = static_cast<std::size_t>(c);
    Timer t;
    const auto w = client.write(vids[ci], 0, view_bytes - 1, expected[ci]);
    if (!w.ok()) fatal(name, "foreground write failed outright");
    Buffer back(static_cast<std::size_t>(view_bytes));
    const auto r = client.read(vids[ci], 0, view_bytes - 1, back);
    if (!r.ok()) fatal(name, "foreground read failed outright");
    if (back != expected[ci])
      fatal(name, "foreground read diverged from the written bytes");
    ++res.foreground_accesses;
    return static_cast<std::int64_t>(t.elapsed_us());
  };

  std::vector<std::int64_t> baseline;
  for (int i = 0; i < foreground; ++i) baseline.push_back(foreground_access(i));
  res.baseline_p99_us = p99_us(std::move(baseline));

  const std::vector<std::vector<int>> before = placement_tables(fs);

  // The membership change. Migrations run on the rebalancer workers while
  // the foreground loop below keeps writing and reading.
  int added = -1;
  if (change > 0) added = fs.add_io_node();
  else fs.decommission_node(1);

  std::vector<std::int64_t> during;
  for (int i = 0; i < foreground; ++i) {
    during.push_back(foreground_access(i));
    if (faults && i == foreground / 2) {
      // The injected crash: a source node dies mid-migration and comes
      // back. Migrations fall over to the surviving replica; the restart
      // re-syncs whatever the dead window missed.
      fs.crash_server(0);
      fs.restart_server(0);
    }
  }
  res.migrating_p99_us = p99_us(std::move(during));

  fs.await_rebalance();
  if (faults) {
    // The crash may have left repair work (the detector can declare the
    // crashed window dead) and the re-plan may still owe a wave.
    fs.await_repairs();
    fs.await_rebalance();
  }
  fs.drain_stragglers();

  const std::vector<std::vector<int>> after = placement_tables(fs);
  if (before == after) fatal(name, "membership change moved no placement");
  if (change > 0 && added >= 0) {
    int on_new = 0;
    for (const auto& nodes : after)
      on_new += static_cast<int>(
          std::count(nodes.begin(), nodes.end(), kNodes + added));
    if (on_new == 0) fatal(name, "grown node owns no placement");
  }
  if (change < 0) {
    for (const auto& nodes : after)
      if (std::count(nodes.begin(), nodes.end(), kNodes + 1) != 0)
        fatal(name, "decommissioned node still holds a placed replica");
  }

  // The gated number: bulk bytes actually applied vs the INTERSECT/PROJ
  // minimum for the placement delta this cell really performed.
  res.bytes_min =
      plan_rebalance(before, after, physical, kN * kN).min_bytes_total;
  res.rebalance = fs.rebalance_counters();
  res.bytes_migrated = res.rebalance.bytes_migrated;
  res.bytes_caught_up = res.rebalance.bytes_caught_up;
  if (res.bytes_min <= 0) fatal(name, "theoretical minimum came out empty");
  res.ratio = static_cast<double>(res.bytes_migrated) /
              static_cast<double>(res.bytes_min);

  for (int c = 0; c < kNodes; ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    Buffer back(static_cast<std::size_t>(view_bytes));
    const auto r = fs.client(c).read(vids[ci], 0, view_bytes - 1, back);
    if (!r.ok() || back != expected[ci])
      fatal(name, "quiesce read diverged from the written bytes");
  }
  if (!fs.under_replicated_subfiles().empty())
    fatal(name, "subfiles still under-replicated at quiesce");
  if (faults) fs.install_faults(FaultPlan{});
  if (!fs.scrub().clean()) fatal(name, "scrub found damage at quiesce");

  res.client = fs.client_reliability();
  res.repair = fs.repair_reliability();
  res.detector = fs.detector()->counters();
  res.ring_epoch = fs.ring_epoch();
  res.elapsed_us = static_cast<std::int64_t>(timer.elapsed_us());

  if (!faults) {
    if (res.ratio > 1.05) fatal(name, "bytes moved exceed 1.05x the minimum");
    if (res.rebalance.migrations_failed != 0)
      fatal(name, "fault-free cell failed a migration");
    if (!res.repair.all_zero()) fatal(name, "fault-free cell ran repairs");
    if (res.client.quorum_short != 0)
      fatal(name, "fault-free cell fell short of a write quorum");
    if (res.client.failures != 0 || res.client.timeouts != 0 ||
        res.client.corruptions_detected != 0)
      fatal(name, "fault-free cell shows reliability work");
    if (res.detector.dead_declarations != 0)
      fatal(name, "false-positive dead declaration during a rebalance");
  }
  return res;
}

}  // namespace

int main() {
  const bool quick = std::getenv("PFM_BENCH_QUICK") != nullptr;
  const int foreground = quick ? 12 : 32;
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seed = std::strtoull(env, nullptr, 10);

  std::vector<CellResult> cells;
  cells.push_back(
      run_cell("grow_fault_free", false, /*change=*/+1, foreground, seed));
  cells.push_back(
      run_cell("shrink_fault_free", false, /*change=*/-1, foreground, seed));
  cells.push_back(run_cell("chaos", true, /*change=*/+1, foreground, seed));

  std::printf("Rebalance soak: %lldx%lld matrix, %lld subfiles, "
              "%d foreground accesses per phase\n",
              static_cast<long long>(kN), static_cast<long long>(kN),
              static_cast<long long>(kSubfiles), foreground);
  std::printf("%-18s %9s %9s %8s %6s %9s %10s %8s\n", "cell", "min B",
              "moved B", "catchup", "ratio", "p99 us", "p99 mig us",
              "time s");
  for (const CellResult& r : cells)
    std::printf("%-18s %9lld %9lld %8lld %6.3f %9lld %10lld %8.1f\n", r.name,
                static_cast<long long>(r.bytes_min),
                static_cast<long long>(r.bytes_migrated),
                static_cast<long long>(r.bytes_caught_up), r.ratio,
                static_cast<long long>(r.baseline_p99_us),
                static_cast<long long>(r.migrating_p99_us),
                static_cast<double>(r.elapsed_us) / 1e6);

  Json arr = Json::array();
  for (const CellResult& r : cells) {
    Json j = Json::object();
    j.set("cell", Json::string(r.name));
    j.set("faults", Json::boolean(r.faults));
    j.set("change", Json::integer(r.change));
    j.set("bytes_min", Json::integer(r.bytes_min));
    j.set("bytes_migrated", Json::integer(r.bytes_migrated));
    j.set("bytes_caught_up", Json::integer(r.bytes_caught_up));
    j.set("ratio", Json::number(r.ratio));
    j.set("migrations_started",
          Json::integer(r.rebalance.migrations_started));
    j.set("migrations_completed",
          Json::integer(r.rebalance.migrations_completed));
    j.set("migrations_failed", Json::integer(r.rebalance.migrations_failed));
    j.set("ring_epoch", Json::integer(r.ring_epoch));
    j.set("baseline_p99_us", Json::integer(r.baseline_p99_us));
    j.set("migrating_p99_us", Json::integer(r.migrating_p99_us));
    j.set("foreground_accesses", Json::integer(r.foreground_accesses));
    j.set("client", counters_json(r.client));
    j.set("repair", counters_json(r.repair));
    Json det = Json::object();
    det.set("pings_sent", Json::integer(r.detector.pings_sent));
    det.set("pongs_received", Json::integer(r.detector.pongs_received));
    det.set("suspect_events", Json::integer(r.detector.suspect_events));
    det.set("dead_declarations", Json::integer(r.detector.dead_declarations));
    j.set("detector", std::move(det));
    j.set("elapsed_us", Json::integer(r.elapsed_us));
    arr.push(std::move(j));
  }
  Json root = Json::object();
  root.set("bench", Json::string("rebalance_soak"));
  root.set("n", Json::integer(kN));
  root.set("subfiles", Json::integer(kSubfiles));
  root.set("foreground_accesses", Json::integer(foreground));
  root.set("seed", Json::integer(static_cast<std::int64_t>(seed)));
  root.set("cells", std::move(arr));
  write_bench_json("rebalance_soak", root);
  return 0;
}
