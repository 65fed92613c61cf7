// Clusterfile I/O server (paper section 8.1, second pseudocode fragment).
//
// One server runs on one I/O node and owns every subfile assigned there
// (the paper's cluster has one subfile per node in the evaluation, but the
// file model allows any number; requests carry the subfile id and the
// server demultiplexes). Every write and read also carries its target's
// projection PROJ_S^{V∩S} (computed once by the client at view setting,
// paper section 8) in its meta, so the server keeps no per-view state: it
// resolves the meta through a small bounded cache of parsed projections.
// On a write it receives the interval [vS, wS] and the data, writes
// contiguously when the projection is contiguous in that interval, and
// scatters otherwise. Reads are the reverse. The scatter time t_s of
// Table 2 is measured here.
//
// Reliability (DESIGN.md "Failure model"): checksummed requests are
// verified before any state changes (corruption answers kBadChecksum);
// write retransmits are deduplicated by (client, req_id) and the cached
// acknowledgment replayed, making the effective semantics exactly-once on
// top of at-least-once client retries; reads are re-executed (idempotent).
// Failures answer with structured kError codes; a request the server
// refuses (malformed projection meta, an interval that is inverted or
// leaves [0, INT64_MAX), a payload that does not match the projection, a
// read past the subfile's end) answers kMalformed.
//
// Replication (DESIGN.md "Failure model"): with epoch tracking on, every
// applied write bumps the subfile's monotonic epoch (persisted in the
// storage) and appends its byte ranges to a bounded write log. A lagging
// replica calls sync_subfile, which sends kSyncRequest carrying its own
// epoch to a live peer; the peer answers kSyncReply with the ranges written
// since that epoch (or a full transfer when its log no longer reaches back
// that far), and the requester applies them and adopts the peer's epoch
// before rejoining. A reply names its bytes as a projection, the form every
// kWrite carries, and is applied by the same code as a write: one decoder
// parses every byte set a server accepts. Storage-level faults map to
// structured errors:
// StorageCorruptionError -> kCorruptData (terminal; the client fails over),
// EIO -> kIoError (retryable; error replies are never cached, so the resend
// re-executes).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "clusterfile/storage.h"
#include "redist/gather_scatter.h"
#include "util/lru.h"
#include "util/mutex.h"
#include "util/stats.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace pfm {

class IoServer {
 public:
  using SubfileStorages =
      std::vector<std::pair<int, std::unique_ptr<SubfileStorage>>>;

  /// Serves the given subfiles on cluster node `node_id`. With
  /// `track_epochs` (replication), every applied write bumps the subfile's
  /// storage epoch and is recorded in the re-sync write log.
  IoServer(Network& net, int node_id, SubfileStorages subfiles,
           bool track_epochs = false);
  ~IoServer();

  int node_id() const { return node_id_; }
  std::size_t subfile_count() const {
    MutexLock lock(mu_);
    return subfiles_.size();
  }
  bool has_subfile(int subfile_id) const;
  /// Starts serving a new subfile over the given storage while the loop is
  /// live — the self-heal path placing a replacement replica here. The
  /// subfile begins at the storage's own epoch (0 for fresh storage, so the
  /// first sync pull is a full transfer). False when the subfile is already
  /// served here.
  bool adopt_subfile(int subfile_id, std::unique_ptr<SubfileStorage> storage);
  const SubfileStorage& storage(int subfile_id) const;
  /// Mutable storage access for scrub/repair. The caller must ensure the
  /// cluster is quiescent — the server's loop thread owns these storages
  /// while requests are in flight.
  SubfileStorage& storage_mut(int subfile_id);
  /// Ids of the subfiles served here, ascending.
  std::vector<int> subfile_ids() const;
  /// Current write epoch of a subfile served here.
  std::int64_t subfile_epoch(int subfile_id) const;
  /// Size of a subfile served here as of the last write or sync this server
  /// applied to it (or its storage's size when serving began). Safe while
  /// the loop thread grows the storage, unlike storage(id).size(); a scrub
  /// repair through storage_mut shows at the next applied write.
  std::int64_t subfile_size(int subfile_id) const;

  /// Accumulated scatter/gather time at this server, in microseconds
  /// (Table 2's t_s is the scatter part).
  double scatter_us() const;
  double gather_us() const;
  std::int64_t writes_served() const;
  void reset_phases();

  /// Server-side reliability counters: duplicates suppressed, checksum
  /// failures caught, error replies issued.
  ReliabilityCounters reliability() const;

  /// Parsed projections cached by their meta bytes, never more than
  /// kProjectionCacheCapacity however many views clients set.
  static constexpr std::size_t kProjectionCacheCapacity = 64;
  std::size_t projection_cache_size() const;

  void stop() { loop_.stop(); }

  /// Stops the loop and releases the subfile storages, exactly as a crashed
  /// node leaves its disks behind: Clusterfile::restart_server builds a new
  /// IoServer over them. In-memory state (the projection and dedup caches)
  /// is lost; requests carry their projections, so the new server serves
  /// them as they come.
  SubfileStorages take_storages();

  /// Outcome of one re-sync pull (see sync_subfile).
  struct SyncOutcome {
    bool ok = false;
    std::int64_t bytes = 0;   ///< payload bytes applied
    std::int64_t ranges = 0;  ///< distinct ranges applied
    bool full = false;        ///< peer fell back to a full transfer
    bool more = false;        ///< chunk limit hit: pull again to continue
    std::int64_t next_offset = 0;  ///< resume offset for the next full-
                                   ///< transfer chunk (valid when more)
    std::int64_t peer_epoch = 0;   ///< peer epoch observed on this pull
  };

  /// One re-sync pull of the write ranges this replica missed from
  /// `peer_node`: sends a kSyncRequest carrying the local epoch and waits up
  /// to `timeout` for the kSyncReply (applied on the server's loop thread).
  /// A peer that does not answer, answers kError or sends a reply this
  /// server refuses makes the pull fail (!ok). No retry here —
  /// Clusterfile::copy_replica, the only caller, rotates sources under one
  /// delivery budget (the peer side is read-only, so a repeated pull is
  /// harmless). The caller must not race client writes
  /// against the same ranges unless it follows up with catch-up pulls.
  ///
  /// Chunking: `chunk_bytes` (>= 1; the peer refuses less as kMalformed)
  /// bounds each reply. A bounded *delta* includes whole write-log
  /// entries (at least one, so progress is guaranteed) and the pull adopts
  /// the epoch of the last included entry — resuming is just pulling again
  /// with the advanced epoch, idempotent across requester crashes. A
  /// bounded *full* transfer streams [resume_offset, resume_offset + chunk)
  /// and reports the next offset; the requester's epoch is untouched until
  /// the final chunk, so a crash mid-stream re-pulls from wherever the
  /// caller restarts (offset 0 is always safe). Because a full stream is
  /// read live against concurrent writes, the caller must pass the first
  /// chunk's `peer_epoch` back as `adopt_epoch_cap` on later chunks: the
  /// final chunk then adopts the epoch the stream *started* at, and a
  /// follow-up delta pull re-fetches everything written during the stream —
  /// without the cap, bytes delivered early and overwritten late would be
  /// silently stale under an up-to-date epoch.
  SyncOutcome sync_subfile(int subfile_id, int peer_node,
                           std::chrono::nanoseconds timeout,
                           std::int64_t chunk_bytes, std::int64_t resume_offset,
                           std::int64_t adopt_epoch_cap);

 private:
  struct LogEntry {
    std::int64_t epoch = 0;
    /// Byte ranges the write touched, ascending.
    std::vector<IoVec> ranges;
  };
  struct Subfile {
    std::unique_ptr<SubfileStorage> storage;
    /// storage->size() after the last applied write or sync (under mu_).
    std::int64_t size = 0;
    /// Recent writes by epoch (contiguous, ascending), bounded: a peer
    /// whose epoch predates the log's reach gets a full transfer instead.
    std::deque<LogEntry> write_log;
  };

  void handle(Message&& msg);
  void handle_ping(const Message& msg);
  void handle_write(Message&& msg);
  void handle_read(Message&& msg);
  void handle_sync_request(Message&& msg);
  void handle_sync_reply(Message&& msg);
  /// Ends the sync_subfile call waiting for `req_id`, whether its reply or
  /// an error answered it.
  void finish_sync(std::uint64_t req_id, const SyncOutcome& out);
  void reply_ack(const Message& req);
  void reply_error(const Message& req, ErrCode code, const std::string& what);
  void finish_reply(const Message& req, Message reply, bool cacheable);
  Subfile& subfile_for(const Message& msg);
  /// The projection a data request carries, from the cache or parsed on a
  /// miss (kMalformed when the meta does not parse). Only the loop thread
  /// inserts, so the reference stays valid for the request being served.
  const IndexSet& projection(const Message& msg);

  Network& net_;
  int node_id_;
  bool track_epochs_ = false;
  mutable Mutex mu_{"IoServer::mu"};
  /// Map *lookups and structure* go through mu_: adopt_subfile inserts
  /// while the loop is live (self-heal), so every find crosses the lock.
  /// Entries are never erased while the loop runs (take_storages stops it
  /// first) and std::map nodes are stable, so a Subfile& obtained under
  /// the lock stays valid afterwards: the loop thread owns storage data
  /// between requests, while the nested write_log containers, recorded
  /// sizes and the storage epoch are touched under mu_ (the annotation
  /// cannot reach nested members, only the map itself).
  std::map<int, Subfile> subfiles_ PFM_GUARDED_BY(mu_);
  /// Pending sync_subfile calls by req_id, filled by the loop thread.
  struct SyncWait {
    SyncOutcome out;
    bool done = false;
    /// Epoch ceiling the reply may adopt (-1: none); carries the caller's
    /// adopt_epoch_cap to handle_sync_reply.
    std::int64_t adopt_cap = -1;
  };
  std::map<std::uint64_t, SyncWait> sync_waits_ PFM_GUARDED_BY(mu_);
  CondVar sync_cv_;
  static constexpr std::size_t kWriteLogCapacity = 1024;
  PhaseAccumulator scatter_ PFM_GUARDED_BY(mu_);
  PhaseAccumulator gather_ PFM_GUARDED_BY(mu_);
  std::int64_t writes_ PFM_GUARDED_BY(mu_) = 0;
  ReliabilityCounters rel_ PFM_GUARDED_BY(mu_);
  LruCache<std::string, IndexSet> projections_ PFM_GUARDED_BY(mu_){
      kProjectionCacheCapacity};
  /// Replay cache for idempotent retransmit handling: the acknowledgment
  /// sent for each recent (client, req_id), bounded FIFO.
  static constexpr std::size_t kReplyCacheCapacity = 256;
  std::map<std::pair<int, std::uint64_t>, Message> reply_cache_
      PFM_GUARDED_BY(mu_);
  std::deque<std::pair<int, std::uint64_t>> reply_cache_order_
      PFM_GUARDED_BY(mu_);
  NodeLoop loop_;  // must be last: starts the thread over `handle`
};

}  // namespace pfm
