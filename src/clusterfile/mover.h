// Data mover: the repair and rebalance planners, the copy task they emit,
// and the one bounded background queue that executes those tasks
// (DESIGN.md "Self-healing" and "Elastic membership & rebalancing").
//
// Both planners describe the same physical operation: one subfile copy
// lands on a node that does not hold it yet. That copy is the paper's
// redistribution algebra in its degenerate case — old and new placements
// are two partitions of the same file, so the transfer set is INTERSECT of
// the subfile's FALLS with itself and its PROJ is the identity map over the
// subfile's linear space. Clusterfile executes every task the same way
// (adopt fresh storage, pull from the current holders by write epoch,
// publish, catch up, journal); the kind only picks the log prefix and the
// counters the task is accounted under.
//
// - plan_repairs: a dead node's subfiles each get a replacement holder,
//   least-loaded with ties to the lowest node id (reproducible under a
//   pinned seed).
// - plan_rebalance: a membership change diffs the current placement
//   against the ring's target and plans the minimal set of copies; the
//   minimal bytes of a copy are its subfile's live bytes.
// - MoveQueue: a fixed worker pool (kWorkers) over an injected execute
//   hook, with started/completed/failed/bytes counters kept per kind. A
//   failed task is terminal here — resumption is a re-plan against current
//   placement (await_repairs / await_rebalance), so a crash of source,
//   destination or coordinator mid-copy converges by planning only what is
//   still missing.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "file_model/pattern.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pfm {

enum class MoveKind : std::uint8_t { kRepair, kMigration };

/// Log prefix of a task kind.
inline const char* log_prefix(MoveKind kind) {
  return kind == MoveKind::kRepair ? "repair" : "rebalance";
}

/// One subfile copy that must land on `target_node`.
struct MoveTask {
  MoveKind kind = MoveKind::kRepair;
  int subfile = 0;
  int target_node = -1;    ///< node gaining the copy
  int replaced_node = -1;  ///< node whose copy it replaces (the dead node of
                           ///< a repair; -1 for a pure add)
  std::vector<int> new_replicas;  ///< placement after this task, primary
                                  ///< first (published atomically via the
                                  ///< PlacementDirectory epoch bump)
  std::int64_t min_bytes = 0;  ///< the subfile's live bytes: the minimum
                               ///< (migrations; 0 for repairs)
};

/// Computes replacement placements for every subfile whose current
/// placement includes `dead_node`. `placement` is the full replica table
/// (primary first per subfile); I/O nodes occupy the id range
/// [compute_nodes, compute_nodes + io_nodes) — with provisioned spare
/// capacity, pass the full provisioned range. `node_dead(id)` reports
/// whether a candidate node is unusable as a placement target (dead,
/// crashed, spare, retired, or draining — a draining node must not gain
/// copies the decommission is busy moving off it). Selection is
/// least-loaded with ties to the lowest node id, counting both the given
/// placement and earlier assignments of this same plan, so one dead node's
/// subfiles spread over the survivors deterministically. Subfiles with no
/// usable replacement candidate are skipped — they stay under-replicated
/// until a node returns.
std::vector<MoveTask> plan_repairs(
    const std::vector<std::vector<int>>& placement, int dead_node,
    int compute_nodes, int io_nodes,
    const std::function<bool(int)>& node_dead);

struct RebalancePlan {
  std::vector<MoveTask> entries;  ///< kind kMigration
  /// Sum of the entries' minimal bytes: the theoretical floor the soak
  /// bench compares actual bulk-copy bytes against.
  std::int64_t min_bytes_total = 0;
};

/// Diffs `current` against `target` (both full replica tables, primary
/// first) and plans the minimal set of copies. Subfiles whose replica *set*
/// is unchanged produce no entry even when the order differs — reordering
/// primaries would churn clients for zero data-safety gain. `file_size`
/// bounds the live prefix the minimal-byte evaluation covers (0 = empty
/// file: entries still planned, minima all zero). An entry's minimum, the
/// floor the bench gates against, is
/// PartitioningPattern::element_bytes(subfile, file_size): the diagonal
/// transfer of build_plan(physical, physical) over that prefix, since old
/// and new placements share the pattern. Throws std::invalid_argument on
/// malformed tables.
RebalancePlan plan_rebalance(const std::vector<std::vector<int>>& current,
                             const std::vector<std::vector<int>>& target,
                             const PartitioningPattern& physical,
                             std::int64_t file_size);

/// Migration counters, kept separate from ReliabilityCounters so the
/// fault-free counter-clean contract of the existing soaks is untouched.
struct RebalanceCounters {
  std::int64_t migrations_started = 0;
  std::int64_t migrations_completed = 0;
  std::int64_t migrations_failed = 0;
  /// Applied payload bytes of the bulk copies (the number gated against
  /// the plan minimum).
  std::int64_t bytes_migrated = 0;
  /// Applied bytes of post-publish catch-up syncs: foreground writes that
  /// landed on the survivors while the bulk copy ran. Accounted apart from
  /// the bulk bytes — they are traffic-dependent, not placement-dependent.
  std::int64_t bytes_caught_up = 0;
};

/// Bytes one executed task applied to its new copy.
struct MoveStats {
  std::int64_t bulk_bytes = 0;     ///< the copy before the publish
  std::int64_t catchup_bytes = 0;  ///< catch-up pulls after the publish
};

/// One kind's queue counters.
struct MoveCounters {
  std::int64_t started = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;  ///< includes tasks stop() dropped unstarted
  MoveStats bytes;          ///< summed over completed tasks
};

/// Executes copy tasks on a fixed pool of kWorkers threads. The queue owns
/// no cluster state: execution is injected, so it can be unit tested.
class MoveQueue {
 public:
  /// Concurrent copies at most: bounds background traffic so foreground
  /// latency stays flat while a repair or rebalance runs.
  static constexpr int kWorkers = 2;

  /// `execute` performs one task on a worker thread and returns success;
  /// it fills the bytes it applied.
  using Execute = std::function<bool(const MoveTask&, MoveStats*)>;

  explicit MoveQueue(Execute execute);
  ~MoveQueue();

  MoveQueue(const MoveQueue&) = delete;
  MoveQueue& operator=(const MoveQueue&) = delete;

  /// Enqueues tasks; callable from any thread (the detector callback
  /// included). After stop() the tasks are counted failed instead.
  void enqueue(std::vector<MoveTask> tasks) PFM_EXCLUDES(mu_);

  /// Blocks until the queue is empty and every worker is idle. Bounded:
  /// each task's execution is bounded by its delivery budget.
  void await_idle() PFM_EXCLUDES(mu_);

  /// Tasks queued or executing right now, of either kind.
  std::size_t pending() const PFM_EXCLUDES(mu_);

  MoveCounters counters(MoveKind kind) const PFM_EXCLUDES(mu_);

  /// Stops the workers after the current tasks finish; idempotent.
  /// Queued-but-unstarted tasks are dropped and counted failed.
  void stop() PFM_EXCLUDES(mu_);

 private:
  void worker();
  MoveCounters& counters_for(MoveKind kind) PFM_REQUIRES(mu_) {
    return counters_[static_cast<std::size_t>(kind)];
  }

  Execute execute_;
  mutable Mutex mu_{"MoveQueue::mu"};
  CondVar work_cv_;  ///< signaled on enqueue and stop
  CondVar idle_cv_;  ///< signaled when a worker finishes a task
  std::deque<MoveTask> queue_ PFM_GUARDED_BY(mu_);
  int executing_ PFM_GUARDED_BY(mu_) = 0;
  bool stopping_ PFM_GUARDED_BY(mu_) = false;
  std::array<MoveCounters, 2> counters_ PFM_GUARDED_BY(mu_){};
  std::vector<std::thread> workers_;  ///< immutable after construction
};

}  // namespace pfm
