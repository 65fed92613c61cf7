// Clusterfile metadata manager (the component of Clusterfile [7] that
// tracks, per file, the physical partitioning pattern, the displacement,
// the file size and the subfile-to-I/O-node assignment).
//
// Metadata persists as a text manifest using the library's tuple notation
// for FALLS sets, so a file system instance can be torn down and reopened
// over the same storage directory.
//
// Durable mode (DESIGN.md "Durability & recovery"): open_durable() binds
// the manager to a metadata directory holding a checkpoint manifest plus a
// write-ahead journal (journal.h). Every mutation is then serialized into
// one journal record and fsynced *before* it is applied in memory — the
// append is the commit point — and once the journal accumulates
// checkpoint_interval records, checkpoint() folds the state into a fresh
// manifest (atomic tmp+fsync+rename+dir-fsync) and truncates the journal.
// The journal has two record kinds: `put <name>` followed by the whole
// record in manifest form, and `remove <name>`. Replay lets each record
// replace the file's record, so it is idempotent over a checkpoint that
// already contains some of its records (a crash between the checkpoint's
// directory fsync and the journal truncation leaves both behind).
// recover_from() replays checkpoint+journal without attaching (read-only:
// the pfm_fsck path).
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "file_model/pattern.h"
#include "util/lockdep.h"

namespace pfm {

class Journal;

/// Everything the file system must remember about one file.
struct FileRecord {
  std::string name;
  std::int64_t displacement = 0;
  std::int64_t size = 0;                 ///< current file length in bytes
  std::vector<FallsSet> subfile_falls;   ///< one element per subfile
  /// Placement: replica_nodes[i] lists every I/O node holding subfile i,
  /// primary first, one non-empty row per subfile. An unreplicated
  /// subfile's row is its one node.
  std::vector<std::vector<int>> replica_nodes;
  /// W-of-N write acknowledgment policy for the file (ClusterConfig::
  /// write_quorum): 0 = wait for the full fan-out. Must not exceed the
  /// widest replica list. Persisted as the manifest's `quorum` line.
  int write_quorum = 0;
  /// Placement version: 0 for the as-created placement, bumped each time
  /// the self-heal repair path re-places replicas (PlacementDirectory
  /// epoch at publish time). Persisted as the manifest's `placement` line;
  /// clients compare it to detect stale replica lists.
  std::int64_t placement_epoch = 0;
  /// Membership epoch of the placement ring (Clusterfile::ring_epoch): 0
  /// until the first add/decommission/remove, strictly advancing after.
  /// Persisted as the manifest's `ring` line.
  std::int64_t ring_epoch = 0;
  /// I/O nodes decommissioned or removed from the membership (no
  /// duplicates). A placement referencing a retired node is malformed —
  /// retirement means no copy may live (or be looked for) there again.
  /// Persisted as the manifest's `retired` line.
  std::vector<int> retired_nodes;

  /// The validated partitioning pattern (constructed on demand).
  PartitioningPattern pattern() const;

  bool operator==(const FileRecord&) const = default;
};

/// What recover_from / open_durable found in a metadata directory.
struct RecoveryInfo {
  bool manifest_loaded = false;        ///< a checkpoint manifest existed
  std::int64_t journal_records = 0;    ///< valid journal records replayed
  bool journal_torn_tail = false;      ///< trailing garbage was discarded
  std::int64_t journal_bytes_discarded = 0;
};

class MetadataManager {
 public:
  /// File names inside a durable metadata directory.
  static constexpr const char* kManifestName = "manifest.pfm";
  static constexpr const char* kJournalName = "metadata.journal";

  MetadataManager();
  ~MetadataManager();

  /// Registers a file; throws if the name exists or the record is invalid.
  void create(FileRecord record);

  /// Removes a file's metadata; false when absent.
  bool remove(const std::string& name);

  bool exists(const std::string& name) const;
  const FileRecord& lookup(const std::string& name) const;

  /// Replaces the record of file `record.name` (std::out_of_range when
  /// absent). The record must be valid as for create(), and the change
  /// must follow the transition rules:
  ///   - the size never shrinks (files shrink only through remove);
  ///   - the subfile count, displacement and write quorum stay fixed (a
  ///     relayout changes only the subfile FALLS);
  ///   - the placement epoch never goes down, and a changed replica table
  ///     needs a higher one;
  ///   - a membership change advances the ring epoch, or keeps it while
  ///     the retired set strictly grows (deferred retirement: remove_node
  ///     bumps the epoch first and records the node retired only after
  ///     its repairs drained the placement off it).
  /// A record equal to the stored one is a no-op and journals nothing.
  void update(FileRecord record);

  std::vector<std::string> list() const;
  std::size_t count() const { return files_.size(); }

  /// Serializes every record to the manifest file (atomic via temp+rename).
  void save(const std::filesystem::path& manifest) const;
  /// Loads a manifest written by save(); replaces the in-memory state.
  /// Throws std::invalid_argument on malformed manifests.
  void load(const std::filesystem::path& manifest);
  /// Same, from an already-open stream (also the fuzzer entry point —
  /// tests/fuzz/fuzz_manifest feeds arbitrary bytes through here and
  /// demands that nothing but std::invalid_argument escapes).
  void load(std::istream& is);

  // --- Durable mode (journal.h; DESIGN.md "Durability & recovery") ---

  /// Cold-start recovery without attaching: replaces the in-memory state
  /// with checkpoint+journal from `dir` (both optional — an empty or
  /// missing directory recovers to zero files). Read-only on disk; throws
  /// std::invalid_argument on a malformed manifest or journal record.
  RecoveryInfo recover_from(const std::filesystem::path& dir);

  /// recover_from + attach: subsequent mutations are journaled to
  /// `dir/metadata.journal` with fsync-before-apply, and every
  /// `checkpoint_interval` (>= 1) records the state is checkpointed into
  /// `dir/manifest.pfm` and the journal truncated. A torn journal tail
  /// found during recovery is cut off so new appends continue the valid
  /// CRC chain.
  RecoveryInfo open_durable(const std::filesystem::path& dir,
                            int checkpoint_interval = 32);

  bool durable() const { return journal_ != nullptr; }
  /// Folds the current state into the checkpoint manifest and truncates
  /// the journal. No-op when not durable, or when the crash harness froze
  /// the metadata layer mid-checkpoint.
  void checkpoint();
  /// Journal records accumulated since the last checkpoint (durable mode).
  std::int64_t journal_pending() const;

  /// Applies one journal record (`put` or `remove`) to the in-memory state:
  /// a `put` replaces the file's record, a `remove` drops it. Also the
  /// fuzz_journal entry point — nothing but std::invalid_argument may
  /// escape on malformed payloads.
  void apply_journal_record(const std::string& payload);

 private:
  /// Journals `put <name>` followed by the record body, then stores the
  /// record (create and update share it).
  void put(FileRecord record);
  /// Serializes a mutation into the journal before it is applied. A
  /// SimulatedCrash thrown by the append's durability barrier is captured
  /// and returned instead of propagating, because the record *is* durable
  /// at that point — the caller still applies the mutation in memory (state
  /// must match what recovery will replay) and rethrows via finish_op().
  /// Returns null when not durable, frozen, or no crash fired.
  std::exception_ptr journal_op(const std::string& payload);
  /// Rethrows a deferred SimulatedCrash, or else runs the periodic
  /// checkpoint when the journal reached checkpoint_interval_ records.
  void finish_op(std::exception_ptr crash);
  bool save_atomic(const std::filesystem::path& manifest) const;

  std::map<std::string, FileRecord> files_;
  std::unique_ptr<Journal> journal_;      ///< null: in-memory only
  std::filesystem::path manifest_path_;
  int checkpoint_interval_ = 32;
  /// The manager is a single-owner structure: Clusterfile mutates it from
  /// the metadata server's loop thread only. The canary turns a future
  /// concurrent caller into a deterministic check failure instead of a
  /// silent map race (see util/lockdep.h).
  mutable AccessCanary canary_{"MetadataManager"};
};

}  // namespace pfm
