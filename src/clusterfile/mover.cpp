#include "clusterfile/mover.h"

#include <algorithm>
#include <stdexcept>

#include "util/log.h"

namespace pfm {

namespace {

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

std::vector<MoveTask> plan_repairs(
    const std::vector<std::vector<int>>& placement, int dead_node,
    int compute_nodes, int io_nodes,
    const std::function<bool(int)>& node_dead) {
  // Replica count per candidate node, from the placement plus what this
  // plan has already assigned: one dead node usually loses many subfiles
  // at once, and counting in-plan assignments spreads them instead of
  // stacking every replacement on the same emptiest node.
  std::vector<int> load(static_cast<std::size_t>(io_nodes), 0);
  for (const std::vector<int>& reps : placement)
    for (const int node : reps) {
      const int k = node - compute_nodes;
      if (k >= 0 && k < io_nodes) ++load[static_cast<std::size_t>(k)];
    }
  std::vector<MoveTask> plan;
  for (std::size_t i = 0; i < placement.size(); ++i) {
    const std::vector<int>& reps = placement[i];
    if (!contains(reps, dead_node)) continue;
    // Least-loaded usable node not already holding the subfile; ties break
    // to the lowest node id. The ascending scan makes the whole plan a
    // deterministic function of (placement, liveness) — reproducible under
    // a pinned fault seed.
    int replacement = -1;
    for (int k = 0; k < io_nodes; ++k) {
      const int node = compute_nodes + k;
      if (node_dead(node)) continue;
      if (contains(reps, node)) continue;
      if (replacement < 0 ||
          load[static_cast<std::size_t>(k)] <
              load[static_cast<std::size_t>(replacement - compute_nodes)])
        replacement = node;
    }
    if (replacement >= 0) ++load[static_cast<std::size_t>(replacement - compute_nodes)];
    if (replacement < 0) {
      PFM_WARN("repair: no usable replacement for subfile ", i,
               " (dead node ", dead_node, ")");
      continue;
    }
    MoveTask e;
    e.kind = MoveKind::kRepair;
    e.subfile = static_cast<int>(i);
    e.replaced_node = dead_node;
    e.target_node = replacement;
    for (const int node : reps)
      if (node != dead_node) e.new_replicas.push_back(node);
    e.new_replicas.push_back(replacement);
    plan.push_back(std::move(e));
  }
  return plan;
}

RebalancePlan plan_rebalance(const std::vector<std::vector<int>>& current,
                             const std::vector<std::vector<int>>& target,
                             const PartitioningPattern& physical,
                             std::int64_t file_size) {
  if (current.size() != physical.element_count() ||
      target.size() != physical.element_count())
    throw std::invalid_argument(
        "plan_rebalance: placement tables must cover every subfile");
  if (file_size < 0)
    throw std::invalid_argument("plan_rebalance: negative file size");
  for (const auto& table : {&current, &target})
    for (const std::vector<int>& reps : *table) {
      if (reps.empty())
        throw std::invalid_argument("plan_rebalance: empty replica list");
      for (std::size_t a = 0; a < reps.size(); ++a)
        for (std::size_t b = a + 1; b < reps.size(); ++b)
          if (reps[a] == reps[b])
            throw std::invalid_argument(
                "plan_rebalance: duplicate replica node");
    }

  RebalancePlan plan;
  for (std::size_t i = 0; i < current.size(); ++i) {
    const std::vector<int>& cur = current[i];
    const std::vector<int>& tgt = target[i];
    std::vector<int> added, removed;
    for (const int n : tgt)
      if (!contains(cur, n)) added.push_back(n);
    for (const int n : cur)
      if (!contains(tgt, n)) removed.push_back(n);
    // Same replica set (order aside): nothing to move, and no entry —
    // re-pinning primaries without a data reason would churn every client.
    if (added.empty() && removed.empty()) continue;
    if (added.empty()) {
      // A pure shrink (replication lowered) needs no copy, only a publish;
      // the caller handles that directly. Planning it here would imply a
      // transfer that does not exist.
      throw std::invalid_argument(
          "plan_rebalance: target drops replicas without replacement");
    }
    // A copy moves the subfile's live bytes: old and new placements
    // partition the file with the same pattern, so the diagonal
    // INTERSECT/PROJ transfer of the subfile is the subfile itself.
    const std::int64_t live = physical.element_bytes(i, file_size);
    // One entry per copy gained, chained so each entry's published
    // placement is one migration past the previous: entry j removes
    // removed[j] (when it exists) and adds added[j]; the final entry's
    // placement is exactly the target (ring order and all).
    std::vector<int> running = cur;
    for (std::size_t j = 0; j < added.size(); ++j) {
      MoveTask e;
      e.kind = MoveKind::kMigration;
      e.subfile = static_cast<int>(i);
      e.target_node = added[j];
      if (j < removed.size()) {
        e.replaced_node = removed[j];
        running.erase(std::remove(running.begin(), running.end(), removed[j]),
                      running.end());
      }
      running.push_back(added[j]);
      e.new_replicas = (j + 1 == added.size()) ? tgt : running;
      e.min_bytes = live;
      plan.min_bytes_total += e.min_bytes;
      plan.entries.push_back(std::move(e));
    }
  }
  return plan;
}

MoveQueue::MoveQueue(Execute execute) : execute_(std::move(execute)) {
  if (!execute_) throw std::invalid_argument("MoveQueue: null execute hook");
  workers_.reserve(kWorkers);
  for (int i = 0; i < kWorkers; ++i)
    workers_.emplace_back([this] { worker(); });
}

MoveQueue::~MoveQueue() { stop(); }

void MoveQueue::enqueue(std::vector<MoveTask> tasks) {
  if (tasks.empty()) return;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      // Late plans during teardown: count, don't lose silently.
      for (const MoveTask& t : tasks) ++counters_for(t.kind).failed;
      return;
    }
    for (MoveTask& t : tasks) queue_.push_back(std::move(t));
  }
  work_cv_.notify_all();
}

void MoveQueue::await_idle() {
  MutexLock lock(mu_);
  while (!queue_.empty() || executing_ > 0) idle_cv_.wait(lock);
}

std::size_t MoveQueue::pending() const {
  MutexLock lock(mu_);
  return queue_.size() + static_cast<std::size_t>(executing_);
}

MoveCounters MoveQueue::counters(MoveKind kind) const {
  MutexLock lock(mu_);
  return counters_[static_cast<std::size_t>(kind)];
}

void MoveQueue::stop() {
  {
    MutexLock lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      for (const MoveTask& t : queue_) ++counters_for(t.kind).failed;
      queue_.clear();
    }
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
}

void MoveQueue::worker() {
  while (true) {
    MoveTask task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !stopping_) work_cv_.wait(lock);
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
      ++counters_for(task.kind).started;
    }
    MoveStats stats;
    bool ok = false;
    try {
      ok = execute_(task, &stats);
    } catch (const std::exception& e) {
      PFM_ERROR(log_prefix(task.kind), ": subfile ", task.subfile,
                " -> node ", task.target_node, " threw: ", e.what());
    }
    {
      MutexLock lock(mu_);
      --executing_;
      MoveCounters& c = counters_for(task.kind);
      if (ok) {
        ++c.completed;
        c.bytes.bulk_bytes += stats.bulk_bytes;
        c.bytes.catchup_bytes += stats.catchup_bytes;
      } else {
        ++c.failed;
      }
    }
    idle_cv_.notify_all();
  }
}

}  // namespace pfm
