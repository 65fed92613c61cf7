// Cold-start recovery: reconciling recovered metadata against on-disk
// subfile state (DESIGN.md "Durability & recovery").
//
// A Clusterfile mount replays checkpoint+journal into a MetadataManager and
// must then answer: which on-disk copy of each subfile is authoritative,
// which recorded copies lag and need a re-sync, and did a copy appear that
// the metadata never heard of? The last case is real, not hypothetical — a
// migration or repair publishes its placement in memory before the journal
// record persists, so a crash in between leaves the *data* moved but the
// metadata pointing at the old home. Divergence therefore surfaces through
// the existing scrub/re-sync machinery (adopt the highest-epoch copy, sync
// the laggards) instead of failing the mount.
//
// The same inventory + plan code backs tools/pfm_fsck, which verifies a
// cold directory offline and applies the identical reconciliation under
// --repair — one implementation, so the checker can never disagree with
// the mount about what "consistent" means.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "clusterfile/metadata.h"

namespace pfm {

/// One on-disk subfile copy found by scan_storage: the node-suffixed file
/// plus its CRC-validated sidecar epoch (0 when the sidecar is missing or
/// torn — the copy then counts as maximally behind).
struct SubfileCopy {
  int subfile = 0;
  int node = 0;  ///< absolute node id from the `.n<node>` suffix
  std::filesystem::path path;
  std::int64_t epoch = 0;
  std::int64_t bytes = 0;
};

struct StorageInventory {
  std::vector<SubfileCopy> copies;
  /// subfile_* files without a `.n<node>` suffix (legacy naming, or written
  /// by a direct make_storage caller): they cannot be mapped back to a
  /// node, so the mount ignores them and fsck reports them.
  std::vector<std::filesystem::path> unmapped;
};

/// Inventories a storage directory: every `subfile_<id>.n<node>` file with
/// its validated epoch. An empty or missing directory (memory-backed
/// cluster) inventories as empty. Never throws on file contents — a
/// malformed name is just unmapped.
StorageInventory scan_storage(const std::filesystem::path& dir);

/// Reconciliation decision for one subfile.
struct ReconcileRow {
  int subfile = 0;
  /// Final replica list, authority first. Width never exceeds the recorded
  /// row's (orphan adoption evicts the most-lagging recorded copy).
  std::vector<int> replicas;
  int authority = -1;  ///< node with the highest-epoch on-disk copy, or -1
  bool orphan_adopted = false;  ///< authority was absent from the record
  std::vector<int> lagging;  ///< replicas behind the authority (need sync)
  std::vector<int> missing;  ///< recorded serving nodes with no on-disk copy
};

struct ReconcilePlan {
  std::vector<ReconcileRow> rows;
  bool changed = false;  ///< some row differs from the recorded placement
};

/// Computes the mount/fsck reconciliation of `rec` (the recovered file
/// record) against `inv`. `node_serving(node)` says whether an absolute
/// node id can serve copies (mount: active/draining; fsck: not retired).
/// Per subfile the authority is the highest-epoch on-disk copy on a
/// serving node — recorded copies win epoch ties over orphans, and among
/// equal recorded copies the one earliest in the recorded row wins — and
/// the final row keeps the recorded order behind it.
ReconcilePlan plan_reconcile(const FileRecord& rec,
                             const StorageInventory& inv,
                             const std::function<bool(int)>& node_serving);

/// Offline verification of a cold metadata + storage directory pair.
struct FsckOptions {
  std::filesystem::path metadata_dir;
  /// Empty: metadata-only check (memory-backed clusters have no cold data).
  std::filesystem::path storage_dir;
  /// Apply repairs: cut the torn journal tail, fold journal into a fresh
  /// checkpoint, and record the reconciled placement (orphan adoption) —
  /// exactly what a mount would do, via the same plan_reconcile.
  bool repair = false;
};

struct FsckReport {
  bool metadata_readable = false;  ///< checkpoint+journal parsed
  bool manifest_loaded = false;
  std::int64_t journal_records = 0;
  bool journal_torn_tail = false;
  std::int64_t journal_bytes_discarded = 0;
  std::int64_t files = 0;  ///< file records recovered
  /// Unrecoverable corruption or inconsistency (exit status 2).
  std::vector<std::string> errors;
  /// Divergence the mount path (or --repair) resolves (exit status 1).
  std::vector<std::string> warnings;
  /// Repairs applied under --repair.
  std::vector<std::string> repairs;
  bool clean() const { return errors.empty() && warnings.empty(); }
};

FsckReport run_fsck(const FsckOptions& opts);

}  // namespace pfm
