// Shared replica-placement directory (DESIGN.md "Self-healing").
//
// The repair planner and the rebalancer re-place subfiles while clients
// keep running, so "which nodes hold subfile i" is versioned,
// concurrently-read state, and this directory is its one owner. It holds
// the replica lists plus a monotonically increasing placement epoch
// (persisted as the manifest's `placement` line). Each client compares the
// epoch at the start of every access and, when it moved, re-snapshots the
// rows — the in-band analogue of a metadata-server round trip. Views and
// cached access plans hold no placement, so nothing else needs refreshing,
// and a fresh replica needs nothing either: every request carries its own
// projection.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pfm {

class PlacementDirectory {
 public:
  /// replicas[i] lists the nodes of subfile i, primary first. A created
  /// file starts at epoch 0. The mount path seeds the epoch from recovered
  /// metadata, so clients and the manifest agree on the placement version
  /// across a remount instead of restarting from 0 (which would mask every
  /// repair that happened before the crash).
  PlacementDirectory(std::vector<std::vector<int>> replicas,
                     std::int64_t epoch);

  std::size_t subfile_count() const PFM_EXCLUDES(mu_);
  /// Current placement of one subfile, primary first (by value: the list
  /// may be republished concurrently).
  std::vector<int> replicas_of(std::size_t subfile) const PFM_EXCLUDES(mu_);
  /// Current primary node of one subfile.
  int primary_of(std::size_t subfile) const PFM_EXCLUDES(mu_);
  /// The whole table at once (one lock crossing for client refresh).
  std::vector<std::vector<int>> snapshot() const PFM_EXCLUDES(mu_);
  /// Table plus the epoch observed *under the same lock* — the pair the
  /// metadata persister records, where a torn (table, epoch) pairing would
  /// journal a placement under the wrong version.
  std::vector<std::vector<int>> snapshot_with_epoch(std::int64_t* epoch) const
      PFM_EXCLUDES(mu_);

  /// Replaces one subfile's replica list (primary first, non-empty) and
  /// bumps the placement epoch. Called by the copy workers only.
  void update(std::size_t subfile, std::vector<int> replicas)
      PFM_EXCLUDES(mu_);

  /// Monotonic version of the table; cheap enough to poll per access.
  std::int64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  mutable Mutex mu_{"PlacementDirectory::mu"};
  std::vector<std::vector<int>> replicas_ PFM_GUARDED_BY(mu_);
  std::atomic<std::int64_t> epoch_{0};
};

}  // namespace pfm
