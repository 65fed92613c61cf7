// Clusterfile compute-node client (paper section 8.1, first pseudocode
// fragment and figure 5).
//
// set_view computes, for every subfile, the intersection V∩S and its two
// projections (the t_i phase of Table 1), keeps PROJ_V^{V∩S} as an index
// set and PROJ_S^{V∩S} in its wire form. It sends nothing: every write and
// read carries its target's PROJ_S^{V∩S} in the request meta, so I/O
// servers hold no per-view state and a view is a local computation.
//
// read/write go through the access-plan layer (DESIGN.md): one
// materialization traversal per target yields an AccessPlan holding each
// target's mapped subfile interval, run list, byte count and contiguity
// flag; a bounded LRU keyed by (view_id, v mod replay period, w - v) lets
// the paper's repeated strided workloads replay plans with zero FALLS
// algebra. t_m is the plan-acquisition time (near zero on a hit), t_g the
// gather/scatter time, t_w first request sent -> last acknowledgment.
//
// All request/reply traffic rides the reliable transact() layer (DESIGN.md
// "Failure model"): every request carries a unique req_id that the reply
// must echo, replies are matched by id (stale duplicates and late replies
// are counted and discarded, never fatal), lost messages surface as
// receive_for timeouts and are retransmitted with bounded exponential
// backoff, and corrupted traffic is caught by checksums and resent. A
// restarted server needs nothing re-sent: each request carries its
// projection. A target that stays unresponsive past
// RetryPolicy::max_attempts either fails the access with a TimeoutError
// naming the node (default) or, with set_allow_partial(true), degrades to a
// per-subfile kFailed status.
//
// Replication (DESIGN.md "Failure model"): when the placement directory
// places a subfile on more than one I/O node, writes fan out to every
// replica, and reads fail over along the replica chain when the serving
// node is given up on (timeout after max_attempts, or a terminal error such
// as kCorruptData). An access that loses replicas but keeps at least one
// healthy copy per target completes with AccessStatus::kDegraded —
// degraded-but-correct, never an exception — and the failover/degraded/
// replica_failures counters record the cost. One delivery budget (the sum
// of the RetryPolicy backoff schedule) covers a target's *whole* replica
// chain: attempts carry across failovers, so a dead chain costs one
// schedule, never chain-length × schedule.
//
// Quorum writes (DESIGN.md "Replication, re-sync and scrub"): with a write
// quorum W in [1, replication), a write group completes as soon as W
// replicas acked; its remaining fan-out requests stay in the
// client's one in-flight table as detached entries (stragglers) that keep
// their retry schedule and are pumped whenever the client waits on the
// network (and by drain_stragglers()). A straggler that completes late is
// deduplicated server-side by req_id; one abandoned past its schedule
// counts quorum_short/replica_failures. Every abandoned write request,
// detached or not, owes its subfile to take_scrub_debt() — epoch re-sync
// and scrub repair the divergence, which is what makes sloppy acks safe.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/network.h"
#include "clusterfile/placement.h"
#include "file_model/pattern.h"
#include "redist/gather_scatter.h"
#include "util/lockdep.h"
#include "util/lru.h"
#include "util/stats.h"

namespace pfm {

/// Thrown when an I/O node stays unresponsive after every retry: the
/// message names the node so operators see *where* the cluster is failing.
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Retransmission policy: per-attempt timeout with bounded exponential
/// backoff, and a cap on total delivery attempts. Client accesses and the
/// background copies (repair, migration, restart re-sync, mount reconcile)
/// both spend it as one delivery budget.
struct RetryPolicy {
  std::chrono::milliseconds base_timeout{250};
  std::chrono::milliseconds max_timeout{2000};
  double backoff = 2.0;
  int max_attempts = 5;

  /// Backoff timeout of the given 1-based attempt.
  std::chrono::nanoseconds timeout(int attempt) const;
  /// The whole delivery budget: timeout() summed over every attempt.
  std::chrono::nanoseconds budget() const;
};

/// Outcome of one subfile's part of an access.
enum class AccessStatus : std::uint8_t {
  kOk,        ///< first attempt succeeded on every replica
  kRetried,   ///< succeeded after at least one retransmit or recovery
  kDegraded,  ///< correct data, but a replica was lost: a read failed over
              ///< to a backup, or a write abandoned part of its fan-out
  kFailed,    ///< every replica gave up (see SubfileAccess::error)
};

struct SubfileAccess {
  int subfile = 0;
  int io_node = -1;        ///< node that served the access (after failover:
                           ///< the backup that answered)
  AccessStatus status = AccessStatus::kOk;
  int attempts = 1;        ///< max delivery attempts over the replica set
  bool timed_out = false;  ///< kFailed because the node stopped answering
  std::string error;       ///< failure reason; empty when kOk/kRetried
  int failovers = 0;       ///< times the request moved to a backup replica
  int replicas_failed = 0; ///< fan-out replicas abandoned after all retries
};

class ClusterfileClient {
 public:
  /// `physical` partitions the file into subfiles. `write_quorum` is the
  /// W-of-N write acknowledgment policy: a write group returns once W
  /// replicas acked, and its remaining fan-out requests become background
  /// stragglers; 0 waits for every replica. The effective quorum of a group
  /// is min(W, its replica count). `placement` says which nodes hold each
  /// subfile: the client snapshots its rows when its epoch moves, at the
  /// start of an access (DESIGN.md "Self-healing").
  ClusterfileClient(Network& net, int node_id,
                    std::shared_ptr<const PartitioningPattern> physical,
                    int write_quorum,
                    std::shared_ptr<const PlacementDirectory> placement);

  int node_id() const { return node_id_; }

  /// Phase timings of one data operation, microseconds (Table 1 columns),
  /// plus the reliability outcome of every subfile target.
  struct AccessTimings {
    double t_m_us = 0;  ///< access-plan acquisition (mapping / cache lookup)
    double t_g_us = 0;  ///< gather (writes) / scatter (reads) at the client
    double t_w_us = 0;  ///< first request sent -> last acknowledgment
    std::int64_t bytes = 0;
    std::int64_t messages = 0;
    std::int64_t plan_hits = 0;    ///< 1 when this access replayed a plan
    std::int64_t plan_misses = 0;  ///< 1 when this access built its plan
    std::int64_t stragglers = 0;   ///< fan-out requests detached to background
                                   ///< completion once the quorum was met
    ReliabilityCounters rel;       ///< this access's share of the counters.
                                   ///< Events of stragglers land in the
                                   ///< client's cumulative counters instead
                                   ///< — they belong to no single access.
    std::vector<SubfileAccess> per_subfile;  ///< ascending subfile order

    bool ok() const {
      for (const SubfileAccess& s : per_subfile)
        if (s.status == AccessStatus::kFailed) return false;
      return true;
    }
  };

  /// Sets a view described by one element pattern. Returns the view id.
  /// Plans cached for earlier views stay valid. last_view_set_us() reports
  /// t_i.
  std::int64_t set_view(FallsSet falls, std::int64_t view_pattern_size);

  /// t_i of the most recent set_view: the intersections and projections.
  double last_view_set_us() const { return t_i_us_; }
  /// Same as last_view_set_us(): set_view sends nothing, so no ship time
  /// follows t_i. Kept for callers that report the two separately.
  double last_view_total_us() const { return t_i_us_; }

  /// Writes the contiguous view range [v, w] (view linear space) of `view`
  /// from `data` (data[0] is view byte v).
  AccessTimings write(std::int64_t view_id, std::int64_t v, std::int64_t w,
                      std::span<const std::byte> data);

  /// Reads the view range [v, w] into `out`.
  ///
  /// Partial-failure contract (allow_partial mode): targets whose status is
  /// AccessStatus::kFailed have their destination ranges in `out`
  /// zero-filled — the caller always sees deterministic bytes for every
  /// requested position, never stale buffer contents. kDegraded targets
  /// carry correct data served by a backup replica.
  AccessTimings read(std::int64_t view_id, std::int64_t v, std::int64_t w,
                     std::span<std::byte> out);

  /// Plan-cache observability: cumulative counters across all accesses.
  std::int64_t plan_cache_hits() const { return plan_hits_; }
  std::int64_t plan_cache_misses() const { return plan_misses_; }
  std::int64_t plan_cache_evictions() const { return plan_cache_.evictions(); }
  std::size_t plan_cache_size() const { return plan_cache_.size(); }

  /// Cumulative reliability counters across every access of this client.
  const ReliabilityCounters& reliability() const { return rel_; }

  /// Background straggler observability: requests still in flight after
  /// their group met its quorum, and the cumulative completed/abandoned
  /// split. Stragglers are pumped whenever the client waits on the network;
  /// drain_stragglers() blocks until none are pending (each either acks or
  /// exhausts its retry schedule — bounded by RetryPolicy, never forever).
  /// Between accesses every in-flight entry is a straggler.
  std::size_t stragglers_pending() const { return inflight_.size(); }
  std::int64_t stragglers_completed() const { return stragglers_completed_; }
  std::int64_t stragglers_abandoned() const { return stragglers_abandoned_; }
  void drain_stragglers();

  /// Subfiles whose write fan-out abandoned a replica (a quorum straggler
  /// or a full-fan-out request given up on): the divergence scrub/re-sync
  /// must repair. Deduplicated — a subfile abandoned many times across
  /// retries appears once — so the set is bounded by the subfile count.
  /// Returns the accumulated list (insertion order) and clears it. Debt
  /// against a node the subfile was since migrated away from is dropped at
  /// placement refresh, together with pending stragglers aimed at it: the
  /// migration's own catch-up sync carried the data, and scrub writing to
  /// the stale holder would resurrect a retired copy.
  std::vector<int> take_scrub_debt();

  void set_retry_policy(RetryPolicy policy) { policy_ = policy; }
  /// When true, an access with targets that failed after all retries
  /// returns (statuses record the failures) instead of throwing.
  void set_allow_partial(bool allow) { allow_partial_ = allow; }

  /// Rebounds the cache (drops LRU entries when shrinking). Default
  /// capacity kDefaultPlanCacheCapacity; 0 disables caching.
  void set_plan_cache_capacity(std::size_t capacity) {
    plan_cache_.set_capacity(capacity);
  }

  static constexpr std::size_t kDefaultPlanCacheCapacity = 64;

 private:
  /// What a view determines about one subfile it meets. Which nodes hold
  /// the subfile is not part of it: that is the placement snapshot rows_.
  struct SubTarget {
    std::size_t subfile = 0;
    IndexSet proj_v;  ///< PROJ_V^{V∩S} in view space
    /// Subfile bytes per view replay period (see ViewState::replay_period):
    /// shifting an access by one replay period shifts its subfile interval
    /// by exactly this many bytes.
    std::int64_t sub_period_bytes = 0;
    /// encode_projection(PROJ_S^{V∩S}): the meta of every request to this
    /// target, built once per view.
    std::string proj_s;
  };
  struct ViewState {
    FallsSet falls;
    std::int64_t pattern_size = 0;
    std::vector<SubTarget> targets;  ///< ascending subfile order
    /// View-space period after which every target's member set and subfile
    /// mapping repeat: the view bytes per lcm(view period, physical period)
    /// of file space. 0 when the lcm overflows — plans then bypass the
    /// cache (correct, just unamortized).
    std::int64_t replay_period = 0;
  };

  /// One target's slice of a materialized access plan: only what the
  /// access derived. The subfile, its PROJ_S meta and its period shift are
  /// the view's (SubTarget); the nodes serving it are the placement's.
  struct PlanTarget {
    std::size_t target_index = 0;  ///< into ViewState::targets
    std::int64_t base_vs = 0;  ///< subfile interval at the plan's base_v
    std::int64_t base_ws = 0;
    RunList runs;  ///< run positions relative to base_v
  };
  /// Everything an access needs, computed in ONE materialization traversal
  /// per target: replayable at any v' ≡ base_v (mod replay_period) with the
  /// same length by shifting each target's subfile interval. Views never
  /// change once set and a plan holds no placement, so a cached plan never
  /// goes stale.
  struct AccessPlan {
    std::int64_t base_v = 0;
    std::vector<PlanTarget> targets;  ///< ascending subfile order
  };

  struct PlanKey {
    std::int64_t view_id = 0;
    std::int64_t phase = 0;  ///< v mod replay_period
    std::int64_t length = 0;
    bool operator==(const PlanKey&) const = default;
  };
  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& k) const {
      std::size_t h = std::hash<std::int64_t>{}(k.view_id);
      h ^= std::hash<std::int64_t>{}(k.phase) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      h ^= std::hash<std::int64_t>{}(k.length) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      return h;
    }
  };

  const ViewState& view_state(std::int64_t view_id) const;
  /// Cache lookup -> build on miss -> insert. Returns the plan plus the
  /// period shift to replay it at `v`; updates the hit/miss counters of
  /// both the client and `t`.
  std::shared_ptr<const AccessPlan> acquire_plan(const ViewState& state,
                                                 std::int64_t view_id,
                                                 std::int64_t v, std::int64_t w,
                                                 std::int64_t& shift_periods,
                                                 AccessTimings& t);
  /// The single materialization traversal per target (materialize_in,
  /// then map_interval for the subfile extremities).
  AccessPlan build_plan(const ViewState& state, std::int64_t v,
                        std::int64_t w) const;

  /// One request offered to transact: the built message, the replica group
  /// (target) it belongs to, and — for single-shot requests such as reads —
  /// the chain of backup nodes to fail over to. Fan-out requests (writes)
  /// carry no backups: each replica is its own destination, and losing one
  /// degrades the group instead of failing it.
  struct TxReq {
    Message msg;
    std::size_t group = 0;
    std::vector<int> backups;
  };

  using Clock = std::chrono::steady_clock;

  /// One in-flight request of the client-wide table, keyed by req_id. The
  /// running access owns it until its group meets the write quorum; it is
  /// then *detached* (a straggler) and keeps its req_id, attempts,
  /// deadlines and sealed request. Every attempt sends a copy of that one
  /// request, sharing its payload, so a straggler never needs the caller's
  /// buffer. Retransmits reuse the req_id, so servers dedup a late original
  /// crossing one.
  struct InFlight {
    std::size_t index = 0;  ///< request index within its access
    std::size_t group = 0;  ///< replica group (target) within its access
    int io_node = -1;  ///< the node serving the request right now
    std::vector<int> backups;  ///< failover chain (single-shot requests)
    int attempts = 1;
    Clock::time_point deadline;       ///< next retransmit fires here
    Clock::time_point hard_deadline;  ///< the access's delivery budget end
    bool detached = false;
    Message request;  ///< sealed once (req_id, checksum); transmit routes it
    /// Detached: shared by the group's stragglers so the first abandonment
    /// — and only the first — counts quorum_short.
    std::shared_ptr<bool> group_short;
  };
  /// The running access's per-group outcomes (client.cpp).
  struct Access;

  /// The reliable request engine. Seals every request once (already built —
  /// payload gathering stays outside the t_w window) and sends it, matches
  /// replies by req_id, retransmits on timeout a copy of the sealed request
  /// aimed at the replica currently serving it, and fails over along a
  /// request's backup chain when its current node is given up on. One
  /// delivery budget — RetryPolicy::budget(), the summed backoff schedule —
  /// spans a request's whole replica chain: attempts never reset on
  /// failover and every deadline is clipped to the budget's end. With
  /// `quorum` > 0, a group whose ok count reaches min(quorum, fan-out)
  /// detaches its remaining requests instead of waiting them out. Fills
  /// `t.per_subfile` with one status per *group* (group_count entries):
  /// kFailed only when every replica of the group was lost; kDegraded when
  /// data survived but a replica didn't. Throws TimeoutError /
  /// runtime_error only for kFailed groups unless allow_partial is set;
  /// always throws if the network closes.
  void transact(std::vector<TxReq> reqs, std::size_t group_count, int quorum,
                AccessTimings& t, std::vector<Message>* replies);
  /// The one event loop: waits until the earliest deadline, then handles
  /// timeouts and replies for every entry of inflight_. With an access it
  /// runs until the access owns no entry; without one (drain) until the
  /// table is empty. Detached entries' counters go to rel_, never to an
  /// access's share (see AccessTimings::rel).
  void pump(Access* acc);
  /// Sends entry `id`'s sealed request to the node serving it now and arms
  /// the deadline of its current attempt. A closed destination inbox
  /// throws for an access's entry and abandons a detached one: no reply can
  /// ever arrive.
  void transmit(std::uint64_t id, InFlight& e);
  /// Sends entry `id`'s next attempt.
  void resend(std::uint64_t id, InFlight& e);
  /// Terminal outcome for entry `id` on its current node: fail over to the
  /// next backup while attempts and budget remain, otherwise record the loss
  /// in the access's group — or, detached, abandon it. A lost write owes its
  /// subfile to scrub.
  void give_up(std::uint64_t id, const std::string& why, bool timed_out,
               Access* acc);
  /// Re-snapshots rows_ from the placement directory when its epoch moved,
  /// and drops stragglers and scrub debt aimed at a node that no longer
  /// holds their subfile. Called at the start of every access, under the
  /// canary.
  void maybe_refresh_placement();

  Network& net_;
  int node_id_;
  std::shared_ptr<const PartitioningPattern> physical_;
  std::shared_ptr<const PlacementDirectory> placement_;
  /// rows_[i]: every node holding subfile i, primary first, as of placement
  /// epoch placement_seen_ (-1 before the first access).
  std::vector<std::vector<int>> rows_;
  std::int64_t placement_seen_ = -1;
  std::vector<ViewState> views_;
  LruCache<PlanKey, std::shared_ptr<const AccessPlan>, PlanKeyHash>
      plan_cache_{kDefaultPlanCacheCapacity};
  std::int64_t plan_hits_ = 0;
  std::int64_t plan_misses_ = 0;
  double t_i_us_ = 0;
  RetryPolicy policy_;
  bool allow_partial_ = false;
  int write_quorum_ = 0;
  ReliabilityCounters rel_;
  /// Every request in flight, keyed by req_id: the running access's own
  /// entries and the detached stragglers of earlier accesses.
  std::unordered_map<std::uint64_t, InFlight> inflight_;
  std::int64_t stragglers_completed_ = 0;
  std::int64_t stragglers_abandoned_ = 0;
  /// (subfile, io_node) owed to scrub, deduplicated by pair: the node is
  /// kept so a placement refresh can purge debt whose holder the subfile
  /// migrated away from (take_scrub_debt surfaces only the subfiles).
  std::vector<std::pair<int, int>> scrub_debt_;
  /// The client is single-threaded per instance (header contract above);
  /// the canary makes a concurrent set_view/read/write a deterministic
  /// check failure in lockdep builds instead of a views_/cache race.
  AccessCanary canary_{"ClusterfileClient"};
};

}  // namespace pfm
