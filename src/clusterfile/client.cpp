#include "clusterfile/client.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "falls/serialize.h"
#include "intersect/project.h"
#include "mapping/compose.h"
#include "util/arith.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace pfm {

namespace {

/// Request ids are unique across the whole process, so a reply can never be
/// matched to the wrong request even across client restarts or relayouts
/// that reuse node ids.
std::uint64_t next_req_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ClusterfileClient::ClusterfileClient(
    Network& net, int node_id, FileMeta meta,
    std::shared_ptr<const PlacementDirectory> placement)
    : net_(net),
      node_id_(node_id),
      meta_(std::move(meta)),
      placement_(std::move(placement)) {
  if (!meta_.physical)
    throw std::invalid_argument("ClusterfileClient: no physical pattern");
  if (meta_.io_nodes.size() != meta_.physical->element_count())
    throw std::invalid_argument("ClusterfileClient: io_nodes count mismatch");
  if (meta_.replicas.empty()) {
    // No replication: every subfile lives only on its primary.
    meta_.replicas.reserve(meta_.io_nodes.size());
    for (const int node : meta_.io_nodes)
      meta_.replicas.push_back({node});
  } else {
    if (meta_.replicas.size() != meta_.io_nodes.size())
      throw std::invalid_argument("ClusterfileClient: replicas count mismatch");
    for (std::size_t i = 0; i < meta_.replicas.size(); ++i)
      if (meta_.replicas[i].empty() ||
          meta_.replicas[i][0] != meta_.io_nodes[i])
        throw std::invalid_argument(
            "ClusterfileClient: replica list must start with the primary");
  }
  set_write_quorum(meta_.write_quorum);
  // A directory created before this client may already be ahead of the
  // FileMeta snapshot (repairs between cluster start and client creation):
  // force the first access to reconcile.
  if (placement_) placement_seen_ = -1;
}

void ClusterfileClient::maybe_refresh_placement() {
  if (!placement_) return;
  const std::int64_t epoch = placement_->epoch();
  if (epoch == placement_seen_) return;
  const std::vector<std::vector<int>> snap = placement_->snapshot();
  PFM_CHECK(snap.size() == meta_.replicas.size(),
            "placement directory covers ", snap.size(), " subfiles, file has ",
            meta_.replicas.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    meta_.replicas[i] = snap[i];
    meta_.io_nodes[i] = snap[i][0];
  }
  // Installed views baked the replica chain into their targets at set_view
  // time; re-aim them. The new replica has no projections yet — the first
  // request it sees answers kUnknownView and the transact engine
  // re-installs the view in-band.
  for (ViewState& state : views_) {
    for (SubTarget& t : state.targets) {
      t.replicas = snap[t.subfile];
      t.io_node = t.replicas[0];
    }
  }
  // Plans cache each target's serving node; drop them so the next access
  // re-materializes against the new primaries.
  invalidate_plans();
  // A rebalance may have migrated a subfile slot off a node entirely. A
  // pending straggler aimed at the old holder would complete a write on a
  // copy the placement retired, and scrub debt against it would point scrub
  // at a replica that no longer exists — purge both. No divergence is lost:
  // the migration's catch-up sync carried everything the new holder missed.
  std::erase_if(scrub_debt_, [&](const std::pair<int, int>& debt) {
    const std::vector<int>& reps = snap[static_cast<std::size_t>(debt.first)];
    return std::find(reps.begin(), reps.end(), debt.second) == reps.end();
  });
  std::vector<std::uint64_t> stale;
  for (const auto& [id, s] : stragglers_) {
    const std::vector<int>& reps = snap[static_cast<std::size_t>(s.subfile)];
    if (std::find(reps.begin(), reps.end(), s.io_node) == reps.end())
      stale.push_back(id);
  }
  for (const std::uint64_t id : stale) {
    stragglers_.erase(id);
    ++stragglers_purged_;
  }
  placement_seen_ = epoch;
}

std::vector<int> ClusterfileClient::take_scrub_debt() {
  std::vector<int> out;
  for (const auto& [subfile, node] : scrub_debt_)
    if (std::find(out.begin(), out.end(), subfile) == out.end())
      out.push_back(subfile);
  scrub_debt_.clear();
  return out;
}

std::int64_t ClusterfileClient::set_view(FallsSet falls,
                                         std::int64_t view_pattern_size) {
  AccessCanary::Scope guard(canary_);
  maybe_refresh_placement();
  const PartitioningPattern& phys = *meta_.physical;
  // The view FALLS come straight from the application: reject malformed
  // input here, where the error names the caller's mistake, instead of
  // letting a bad set reach the intersection algebra (always on — a view is
  // set once and amortized over every access, paper table 1).
  PFM_CHECK(view_pattern_size >= 1, "set_view: view pattern size ",
            view_pattern_size, " < 1");
  validate_falls_set(falls);
  PFM_CHECK(set_extent(falls) <= view_pattern_size,
            "set_view: view FALLS extent ", set_extent(falls),
            " exceeds the view pattern size ", view_pattern_size);
  ViewState state;
  state.falls = std::move(falls);
  state.pattern_size = view_pattern_size;
  const PatternElement view_elem{state.falls, view_pattern_size,
                                 phys.displacement()};
  const std::int64_t new_view_id = static_cast<std::int64_t>(views_.size());

  // Replay geometry for the plan cache: over one joint file period
  // F = lcm(view period, physical period) the view advances by
  // `replay_period` bytes and subfile j by `sub_period[j]` bytes, after
  // which every intersection repeats exactly. Overflow (gigantic coprime
  // periods) simply disables caching for this view.
  const std::size_t count = phys.element_count();
  std::vector<std::int64_t> sub_period(count, 0);
  try {
    const std::int64_t joint = lcm64(view_pattern_size, phys.size());
    state.replay_period =
        mul_checked(set_size(state.falls), joint / view_pattern_size);
    for (std::size_t j = 0; j < count; ++j)
      sub_period[j] = mul_checked(set_size(phys.element(j)), joint / phys.size());
  } catch (const std::overflow_error&) {
    state.replay_period = 0;
  }

  Timer total;
  std::vector<TxReq> to_send;
  std::vector<std::size_t> req_target;  // request index -> target index
  {
    // t_i: intersections and projections only (paper table 1). Each
    // subfile's V∩S is independent of every other's, so the loop fans out
    // over the shared pool; the serial merge below restores ascending
    // subfile order for deterministic target/message ordering.
    Timer t;
    struct Slot {
      bool used = false;
      SubTarget target;
      Message msg;
    };
    std::vector<Slot> slots(count);
    ThreadPool::shared().parallel_for(count, [&](std::size_t j) {
      const Intersection x = intersect_nested(view_elem, phys.pattern_element(j));
      if (x.empty()) return;
      const Projection pv = project(x, view_elem);
      const Projection ps = project(x, phys.pattern_element(j));
      Slot& s = slots[j];
      s.target.subfile = j;
      s.target.io_node = meta_.io_nodes[j];
      s.target.replicas = meta_.replicas[j];
      s.target.proj_v = IndexSet(pv.falls, pv.period);
      s.target.sub_period_bytes = state.replay_period > 0 ? sub_period[j] : 0;
      s.target.proj_meta = serialize(ps.falls);
      s.target.proj_period = ps.period;

      s.msg.kind = MsgKind::kSetView;
      s.msg.dst_node = meta_.io_nodes[j];
      s.msg.subfile = static_cast<int>(j);
      s.msg.view_id = new_view_id;
      s.msg.meta = s.target.proj_meta;
      s.msg.v = ps.period;
      s.used = true;
    });
    for (Slot& s : slots) {
      if (!s.used) continue;
      // The view install fans out to every replica of the subfile, so a
      // backup can serve reads and absorb writes without a re-install.
      const std::size_t group = state.targets.size();
      for (const int node : s.target.replicas) {
        TxReq req;
        req.msg = s.msg;
        req.msg.dst_node = node;
        req.group = group;
        to_send.push_back(std::move(req));
        req_target.push_back(group);
      }
      state.targets.push_back(std::move(s.target));
    }
    t_i_us_ = t.elapsed_us();
  }
  {
    // Ship the projections through the reliable layer: a lost or corrupted
    // kSetView retransmits until acknowledged (servers re-install
    // idempotently), so a view is never half-set.
    const std::vector<SubTarget>& targets = state.targets;
    AccessTimings vt;
    transact(
        std::move(to_send), targets.size(), MsgKind::kAck, /*quorum=*/0,
        /*rebuild=*/
        [&](std::size_t i) {
          const SubTarget& st = targets[req_target[i]];
          Message msg;
          msg.kind = MsgKind::kSetView;
          msg.dst_node = st.io_node;
          msg.subfile = static_cast<int>(st.subfile);
          msg.view_id = new_view_id;
          msg.meta = st.proj_meta;
          msg.v = st.proj_period;
          return msg;
        },
        /*reinstall=*/[](std::size_t) { return std::nullopt; }, vt, nullptr);
  }
  t_view_total_us_ = total.elapsed_us();

  views_.push_back(std::move(state));
  // Conservative invalidation: cached plans never outlive the view set
  // they were derived under (DESIGN.md, "The access-plan layer").
  invalidate_plans();
  return new_view_id;
}

const ClusterfileClient::ViewState& ClusterfileClient::view_state(
    std::int64_t view_id) const {
  if (view_id < 0 || view_id >= static_cast<std::int64_t>(views_.size()))
    throw std::out_of_range("ClusterfileClient: bad view id");
  return views_[static_cast<std::size_t>(view_id)];
}

ClusterfileClient::AccessPlan ClusterfileClient::build_plan(
    const ViewState& state, std::int64_t v, std::int64_t w) const {
  const PartitioningPattern& phys = *meta_.physical;
  const ElementRef view_ref{&state.falls, phys.displacement(),
                            state.pattern_size};
  AccessPlan plan;
  plan.base_v = v;
  plan.length = w - v + 1;
  for (std::size_t k = 0; k < state.targets.size(); ++k) {
    const SubTarget& target = state.targets[k];
    // ONE traversal per target: runs, byte count and contiguity together
    // (formerly count_in + contiguous_in + separate run walks for the
    // gather and the fast path's lo hunt).
    RunList rl = target.proj_v.materialize_in(v, w);
    if (rl.bytes == 0) continue;
    const auto iv =
        map_interval(view_ref, phys.element_ref(target.subfile), v, w);
    if (!iv.has_value()) continue;
    PlanTarget pt;
    pt.target_index = k;
    pt.subfile = static_cast<int>(target.subfile);
    pt.io_node = target.io_node;
    pt.base_vs = iv->lo;
    pt.base_ws = iv->hi;
    pt.sub_period_bytes = target.sub_period_bytes;
    pt.runs = std::move(rl);
    plan.targets.push_back(std::move(pt));
  }
  return plan;
}

std::shared_ptr<const ClusterfileClient::AccessPlan>
ClusterfileClient::acquire_plan(const ViewState& state, std::int64_t view_id,
                                std::int64_t v, std::int64_t w,
                                std::int64_t& shift_periods, AccessTimings& t) {
  shift_periods = 0;
  const bool cacheable = state.replay_period > 0 && v >= 0;
  PlanKey key;
  if (cacheable) {
    key = PlanKey{view_id, v % state.replay_period, w - v};
    if (auto* cached = plan_cache_.get(key)) {
      const std::shared_ptr<const AccessPlan> plan = *cached;
      shift_periods = (v - plan->base_v) / state.replay_period;
      ++plan_hits_;
      t.plan_hits = 1;
      return plan;
    }
  }
  auto plan = std::make_shared<const AccessPlan>(build_plan(state, v, w));
  ++plan_misses_;
  t.plan_misses = 1;
  if (cacheable) plan_cache_.put(key, plan);
  return plan;
}

void ClusterfileClient::send_or_throw(Message msg) {
  const int dst = msg.dst_node;
  if (!net_.send(node_id_, std::move(msg)))
    throw std::runtime_error("ClusterfileClient: I/O node " +
                             std::to_string(dst) + " is unreachable");
}

void ClusterfileClient::seal(Message& msg, std::uint64_t req_id) {
  msg.req_id = req_id;
  if (net_.checksums_enabled()) stamp_checksum(msg);
}

std::chrono::nanoseconds RetryPolicy::timeout(int attempt) const {
  double ms = static_cast<double>(base_timeout.count()) *
              std::pow(backoff, attempt - 1);
  ms = std::min(ms, static_cast<double>(max_timeout.count()));
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(std::max(0.1, ms) * 1e6));
}

std::chrono::nanoseconds RetryPolicy::budget() const {
  std::chrono::nanoseconds total{0};
  for (int a = 1; a <= max_attempts; ++a) total += timeout(a);
  return total;
}

void ClusterfileClient::transact(
    std::vector<TxReq> reqs, std::size_t group_count, MsgKind expected,
    int quorum,
    const std::function<Message(std::size_t)>& rebuild,
    const std::function<std::optional<Message>(std::size_t)>& reinstall,
    AccessTimings& t, std::vector<Message>* replies) {
  const std::size_t n = reqs.size();
  if (replies != nullptr) replies->assign(n, Message{});
  t.per_subfile.assign(group_count, SubfileAccess{});

  // One delivery budget for the whole access: every deadline — retries,
  // failovers, view re-installs, straggler retransmits — is clipped to
  // `hard_deadline` (the summed backoff schedule), so a target's replica
  // chain burns one schedule total, never chain-length × schedule.
  const Clock::time_point start = Clock::now();
  const Clock::time_point hard_deadline = start + policy_.budget();

  /// Per-group (per-target) outcome accumulator: a group succeeds while at
  /// least one of its requests completes, degrades when a replica is lost
  /// along the way, and fails only when every request is abandoned.
  struct GroupState {
    int total = 0;
    int ok = 0;
    int failed = 0;
    int failovers = 0;
    int max_attempts = 1;
    int served_by = -1;  ///< last node that answered
    bool retried = false;
    bool timed_out = false;
    std::string error;  ///< first failure reason
  };
  std::vector<GroupState> groups(group_count);
  /// Created on a group's first demotion and shared with every straggler it
  /// sheds, so the first abandonment — and only the first — counts the
  /// group as quorum_short.
  std::vector<std::shared_ptr<bool>> group_short(group_count);

  /// In-flight request bookkeeping, keyed by req_id. An `aux` entry is a
  /// kSetView re-install launched to recover a primary request from
  /// kUnknownView; its `partner` is the paused primary's req_id (and vice
  /// versa while the primary waits). `io_node` is the node currently
  /// serving the request — a failover retargets it down `backups`, and
  /// `attempts` keeps counting across the move.
  struct Pend {
    std::size_t index = 0;
    std::size_t group = 0;
    bool is_aux = false;
    bool waiting_view = false;
    std::uint64_t partner = 0;
    int attempts = 1;
    int io_node = -1;
    std::vector<int> backups;
    Clock::time_point deadline;
  };
  std::unordered_map<std::uint64_t, Pend> pend;
  pend.reserve(n);

  const auto entry_deadline = [&](int attempt) {
    return std::min(Clock::now() + policy_.timeout(attempt), hard_deadline);
  };
  const auto make_request = [&](const Pend& p) {
    Message m;
    if (!p.is_aux) {
      m = rebuild(p.index);
    } else {
      std::optional<Message> r = reinstall(p.index);
      PFM_CHECK(r.has_value(), "transact: lost re-install template");
      m = std::move(*r);
    }
    // transact owns routing: after a failover the regenerated message goes
    // to the replica now serving the request, not the original target.
    m.dst_node = p.io_node;
    return m;
  };
  const auto fail_request = [&](std::uint64_t id, const std::string& why,
                                bool timed_out) {
    const auto it = pend.find(id);
    if (it == pend.end()) return;
    Pend& p = it->second;
    GroupState& g = groups[p.group];
    ++g.failed;
    g.max_attempts = std::max(g.max_attempts, p.attempts);
    if (g.error.empty()) {
      g.error = why;
      g.timed_out = timed_out;
    }
    pend.erase(it);
  };
  // Terminal outcome for a request on its current node: fail over to the
  // next backup replica while attempts and budget remain, otherwise record
  // the loss. Attempts carry across the move — the chain shares one
  // delivery schedule.
  const auto fail_or_failover = [&](std::uint64_t id, const std::string& why,
                                    bool timed_out) {
    const auto it = pend.find(id);
    if (it == pend.end()) return;
    Pend& p = it->second;
    GroupState& g = groups[p.group];
    g.max_attempts = std::max(g.max_attempts, p.attempts);
    if (p.backups.empty() || p.attempts >= policy_.max_attempts ||
        Clock::now() >= hard_deadline) {
      fail_request(id, why, timed_out);
      return;
    }
    ++g.failovers;
    ++t.rel.failovers;
    ++p.attempts;
    p.io_node = p.backups.front();
    p.backups.erase(p.backups.begin());
    p.waiting_view = false;
    Message msg = make_request(p);
    seal(msg, id);  // same req_id: a late reply from the old node is stale
    p.deadline = entry_deadline(p.attempts);
    send_or_throw(std::move(msg));
  };

  // Quorum met for group `gi`: demote its outstanding fan-out requests to
  // the background completion set. Each keeps its req_id (so servers dedup
  // a late original crossing a retransmit, and a late ack still matches),
  // its attempt count and its schedule; the retransmit copy is materialized
  // NOW, while the caller's buffer behind rebuild() is still alive. Aux
  // view re-installs of demoted primaries are dropped — a straggler that
  // lands on kUnknownView is abandoned to scrub instead of re-installing.
  const auto demote_group = [&](std::size_t gi) {
    std::vector<std::uint64_t> members;
    for (const auto& [id, p] : pend)
      if (p.group == gi) members.push_back(id);
    for (const std::uint64_t id : members) {
      const auto it = pend.find(id);
      if (it == pend.end()) continue;
      Pend& p = it->second;
      if (p.is_aux) {
        pend.erase(it);
        continue;
      }
      if (!group_short[gi]) group_short[gi] = std::make_shared<bool>(false);
      Straggler s;
      s.subfile = t.per_subfile[gi].subfile;
      s.io_node = p.io_node;
      s.attempts = p.attempts;
      s.deadline = p.waiting_view ? entry_deadline(p.attempts) : p.deadline;
      s.hard_deadline = hard_deadline;
      s.group_short = group_short[gi];
      Message m = make_request(p);
      seal(m, id);
      s.msg = std::move(m);
      stragglers_.emplace(id, std::move(s));
      ++t.stragglers;
      pend.erase(it);
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    Message msg = std::move(reqs[i].msg);
    const std::uint64_t id = next_req_id();
    Pend p;
    p.index = i;
    p.group = reqs[i].group;
    p.io_node = msg.dst_node;
    p.backups = std::move(reqs[i].backups);
    p.deadline = entry_deadline(1);
    GroupState& g = groups[p.group];
    ++g.total;
    SubfileAccess& s = t.per_subfile[p.group];
    s.subfile = msg.subfile;
    if (g.total == 1) s.io_node = msg.dst_node;  // the primary names the group
    seal(msg, id);
    pend.emplace(id, p);
    send_or_throw(std::move(msg));
  }

  Channel& inbox = net_.inbox(node_id_);
  while (!pend.empty()) {
    // The next actionable deadline, straggler retransmits included (they
    // ride along on whatever wait this access does anyway); primaries
    // paused behind a view re-install are driven by their aux request's
    // deadline instead.
    Clock::time_point next = straggler_next_deadline();
    for (const auto& [id, p] : pend)
      if (!p.waiting_view) next = std::min(next, p.deadline);
    const Clock::time_point now = Clock::now();

    if (next <= now) {
      straggler_handle_timeouts(now);
      std::vector<std::uint64_t> expired;
      for (const auto& [id, p] : pend)
        if (!p.waiting_view && p.deadline <= now) expired.push_back(id);
      for (const std::uint64_t id : expired) {
        const auto it = pend.find(id);
        if (it == pend.end()) continue;
        Pend& p = it->second;
        ++t.rel.timeouts;
        if (p.attempts >= policy_.max_attempts || now >= hard_deadline) {
          const std::string why =
              "I/O node " + std::to_string(p.io_node) + " unresponsive after " +
              std::to_string(p.attempts) + " attempts";
          if (p.is_aux) {
            const std::uint64_t parent = p.partner;
            pend.erase(it);
            fail_or_failover(parent, why, /*timed_out=*/true);
          } else {
            fail_or_failover(id, why, /*timed_out=*/true);
          }
          continue;
        }
        ++p.attempts;
        if (!p.is_aux && !p.backups.empty()) {
          // A backup is available: moving there beats hammering a node
          // that just missed a deadline — the chain shares one budget, so
          // spreading the attempts maximizes the replicas actually tried.
          // The chain is round-robin: the node that just timed out rejoins
          // the tail, so one dropped reply from a live node can't strand
          // the remaining attempts on a dead backup.
          GroupState& g = groups[p.group];
          ++g.failovers;
          ++t.rel.failovers;
          const int prev = p.io_node;
          p.io_node = p.backups.front();
          p.backups.erase(p.backups.begin());
          p.backups.push_back(prev);
          p.waiting_view = false;
        } else {
          ++t.rel.retries;
        }
        Message msg = make_request(p);
        seal(msg, id);  // same req_id: the server replays, never re-applies
        p.deadline = entry_deadline(p.attempts);
        send_or_throw(std::move(msg));
      }
      continue;
    }

    auto msg = inbox.receive_for(next - now);
    if (!msg.has_value()) {
      if (inbox.closed())
        throw std::runtime_error(
            "ClusterfileClient: network closed while waiting");
      continue;  // deadline pass happens at the top of the loop
    }

    if (!verify_checksum(*msg)) {
      // A corrupted reply: the request itself succeeded server-side, so
      // resend right away (idempotent) instead of waiting out the timer.
      ++t.rel.corruptions_detected;
      const auto it = pend.find(msg->req_id);
      if (it != pend.end() && !it->second.waiting_view &&
          it->second.attempts < policy_.max_attempts) {
        Pend& p = it->second;
        ++p.attempts;
        ++t.rel.retries;
        Message resend = make_request(p);
        seal(resend, msg->req_id);
        p.deadline = entry_deadline(p.attempts);
        send_or_throw(std::move(resend));
      } else if (it == pend.end()) {
        straggler_handle_corrupt_reply(msg->req_id);
      }
      continue;
    }

    const auto it = pend.find(msg->req_id);
    if (it == pend.end()) {
      // Not ours — unless a background straggler is waiting for it.
      if (straggler_handle_reply(std::move(*msg))) continue;
      // Duplicate or late reply for a request already completed (or one we
      // never sent): discard. This used to be a fatal logic_error.
      ++t.rel.stale_replies;
      continue;
    }
    Pend& p = it->second;

    if (msg->kind == MsgKind::kError) {
      if (msg->err == ErrCode::kUnknownView && !p.is_aux && !p.waiting_view &&
          p.attempts < policy_.max_attempts) {
        // The server lost its projections (crash/restart): re-install the
        // view, then resend the request once the re-install is acked.
        std::optional<Message> setv = reinstall(p.index);
        if (setv.has_value()) {
          ++t.rel.view_reinstalls;
          const std::uint64_t aux_id = next_req_id();
          Pend aux;
          aux.index = p.index;
          aux.group = p.group;
          aux.is_aux = true;
          aux.partner = msg->req_id;
          // The re-install goes to whichever replica is serving the
          // request right now, not the original primary.
          aux.io_node = p.io_node;
          aux.deadline = entry_deadline(1);
          p.waiting_view = true;
          p.partner = aux_id;
          Message m = std::move(*setv);
          m.dst_node = p.io_node;
          seal(m, aux_id);
          pend.emplace(aux_id, aux);
          send_or_throw(std::move(m));
          continue;
        }
      }
      if ((msg->err == ErrCode::kBadChecksum ||
           msg->err == ErrCode::kIoError) &&
          p.attempts < policy_.max_attempts) {
        // The server caught a corrupted request (resend it) or its storage
        // EIO'd transiently (errors are never reply-cached, so the resend
        // re-executes).
        if (msg->err == ErrCode::kBadChecksum) ++t.rel.corruptions_detected;
        ++p.attempts;
        ++t.rel.retries;
        Message resend = make_request(p);
        seal(resend, msg->req_id);
        p.deadline = entry_deadline(p.attempts);
        send_or_throw(std::move(resend));
        continue;
      }
      // Terminal for this replica — including kCorruptData, where a resend
      // would re-read the same rotten bytes: move to a backup if one is
      // left.
      const std::string why =
          "server reported " + std::string(to_string(msg->err)) + ": " + msg->meta;
      if (p.is_aux) {
        const std::uint64_t parent = p.partner;
        pend.erase(it);
        fail_or_failover(parent, why, /*timed_out=*/false);
      } else {
        fail_or_failover(msg->req_id, why, /*timed_out=*/false);
      }
      continue;
    }

    if (p.is_aux) {
      if (msg->kind != MsgKind::kAck) {
        ++t.rel.stale_replies;
        continue;
      }
      // View re-installed: resume the paused primary with a fresh attempt.
      const std::uint64_t parent = p.partner;
      pend.erase(it);
      const auto pit = pend.find(parent);
      if (pit == pend.end()) continue;
      Pend& pri = pit->second;
      pri.waiting_view = false;
      ++pri.attempts;
      ++t.rel.retries;
      Message resend = make_request(pri);
      seal(resend, parent);
      pri.deadline = entry_deadline(pri.attempts);
      send_or_throw(std::move(resend));
      continue;
    }

    if (msg->kind != expected) {
      ++t.rel.stale_replies;
      continue;
    }
    GroupState& g = groups[p.group];
    ++g.ok;
    g.max_attempts = std::max(g.max_attempts, p.attempts);
    if (p.attempts > 1) g.retried = true;
    g.served_by = p.io_node;
    if (replies != nullptr) (*replies)[p.index] = std::move(*msg);
    const std::size_t gi = p.group;
    pend.erase(it);
    if (quorum > 0 && g.ok >= std::min(quorum, g.total)) demote_group(gi);
  }

  // Collapse per-request outcomes into one status per group: an access is
  // kFailed only when a target lost *every* replica; losing some — or
  // serving a read from a backup — is kDegraded, correct data at a
  // reliability cost.
  for (std::size_t gi = 0; gi < group_count; ++gi) {
    const GroupState& g = groups[gi];
    SubfileAccess& s = t.per_subfile[gi];
    s.attempts = g.max_attempts;
    s.failovers = g.failovers;
    s.replicas_failed = g.failed;
    if (g.total == 0) continue;
    if (g.ok == 0) {
      s.status = AccessStatus::kFailed;
      s.timed_out = g.timed_out;
      s.error = g.error;
      ++t.rel.failures;
    } else if (g.failed > 0 || g.failovers > 0) {
      s.status = AccessStatus::kDegraded;
      if (g.served_by >= 0) s.io_node = g.served_by;
      s.error = g.error;
      ++t.rel.degraded;
      t.rel.replica_failures += g.failed;
    } else {
      s.status = g.retried ? AccessStatus::kRetried : AccessStatus::kOk;
    }
  }

  rel_ += t.rel;
  if (!allow_partial_) {
    for (const SubfileAccess& s : t.per_subfile) {
      if (s.status != AccessStatus::kFailed) continue;
      const std::string what =
          "ClusterfileClient: subfile " + std::to_string(s.subfile) + ": " +
          s.error;
      if (s.timed_out) throw TimeoutError(what);
      throw std::runtime_error(what);
    }
  }
}

ClusterfileClient::Clock::time_point
ClusterfileClient::straggler_next_deadline() const {
  Clock::time_point next = Clock::time_point::max();
  for (const auto& [id, s] : stragglers_) next = std::min(next, s.deadline);
  return next;
}

void ClusterfileClient::straggler_handle_timeouts(Clock::time_point now) {
  std::vector<std::uint64_t> expired;
  for (const auto& [id, s] : stragglers_)
    if (s.deadline <= now) expired.push_back(id);
  for (const std::uint64_t id : expired) {
    const auto it = stragglers_.find(id);
    if (it == stragglers_.end()) continue;
    Straggler& s = it->second;
    ++rel_.timeouts;
    if (s.attempts >= policy_.max_attempts || now >= s.hard_deadline) {
      straggler_abandon(id);
      continue;
    }
    ++s.attempts;
    ++rel_.retries;
    Message copy = s.msg;  // sealed: same req_id, checksum already stamped
    s.deadline = std::min(now + policy_.timeout(s.attempts), s.hard_deadline);
    // A closed destination inbox means the node crashed mid-straggler: no
    // ack can ever arrive, so hand the subfile to scrub instead of looping.
    if (!net_.send(node_id_, std::move(copy))) straggler_abandon(id);
  }
}

bool ClusterfileClient::straggler_handle_reply(Message&& msg) {
  const auto it = stragglers_.find(msg.req_id);
  if (it == stragglers_.end()) return false;
  Straggler& s = it->second;
  if (msg.kind == MsgKind::kError) {
    if ((msg.err == ErrCode::kBadChecksum || msg.err == ErrCode::kIoError) &&
        s.attempts < policy_.max_attempts && Clock::now() < s.hard_deadline) {
      // Transient server-side trouble: the retry schedule keeps going.
      if (msg.err == ErrCode::kBadChecksum) ++rel_.corruptions_detected;
      ++s.attempts;
      ++rel_.retries;
      Message copy = s.msg;
      s.deadline =
          std::min(Clock::now() + policy_.timeout(s.attempts), s.hard_deadline);
      if (!net_.send(node_id_, std::move(copy))) straggler_abandon(msg.req_id);
      return true;
    }
    // Terminal — kUnknownView included: the quorum already carried the
    // write, so instead of a re-install dance for a background copy the
    // replica is abandoned to scrub, which repairs it from a peer.
    straggler_abandon(msg.req_id);
    return true;
  }
  if (msg.kind != MsgKind::kAck) return false;
  ++stragglers_completed_;
  stragglers_.erase(it);
  return true;
}

bool ClusterfileClient::straggler_handle_corrupt_reply(std::uint64_t req_id) {
  const auto it = stragglers_.find(req_id);
  if (it == stragglers_.end()) return false;
  Straggler& s = it->second;
  if (s.attempts >= policy_.max_attempts || Clock::now() >= s.hard_deadline) {
    straggler_abandon(req_id);
    return true;
  }
  ++s.attempts;
  ++rel_.retries;
  Message copy = s.msg;
  s.deadline =
      std::min(Clock::now() + policy_.timeout(s.attempts), s.hard_deadline);
  if (!net_.send(node_id_, std::move(copy))) straggler_abandon(req_id);
  return true;
}

void ClusterfileClient::straggler_abandon(std::uint64_t req_id) {
  const auto it = stragglers_.find(req_id);
  if (it == stragglers_.end()) return;
  Straggler& s = it->second;
  ++stragglers_abandoned_;
  ++rel_.replica_failures;
  if (s.group_short && !*s.group_short) {
    *s.group_short = true;
    ++rel_.quorum_short;
  }
  // Deduplicated: the same (subfile, node) abandoned across many retries
  // (or many groups) owes exactly one scrub, and the debt set stays bounded
  // by subfiles × replicas instead of growing with the failure rate.
  const std::pair<int, int> owed{s.subfile, s.io_node};
  if (std::find(scrub_debt_.begin(), scrub_debt_.end(), owed) ==
      scrub_debt_.end())
    scrub_debt_.push_back(owed);
  stragglers_.erase(it);
}

void ClusterfileClient::drain_stragglers() {
  AccessCanary::Scope guard(canary_);
  Channel& inbox = net_.inbox(node_id_);
  while (!stragglers_.empty()) {
    const Clock::time_point next = straggler_next_deadline();
    const Clock::time_point now = Clock::now();
    if (next <= now) {
      straggler_handle_timeouts(now);
      continue;
    }
    auto msg = inbox.receive_for(next - now);
    if (!msg.has_value()) {
      if (inbox.closed()) {
        // The network is gone: no ack can arrive. Abandon everything so
        // the pending set empties and scrub knows what it owes.
        std::vector<std::uint64_t> ids;
        ids.reserve(stragglers_.size());
        for (const auto& [id, s] : stragglers_) ids.push_back(id);
        for (const std::uint64_t id : ids) straggler_abandon(id);
        return;
      }
      continue;
    }
    if (!verify_checksum(*msg)) {
      ++rel_.corruptions_detected;
      straggler_handle_corrupt_reply(msg->req_id);
      continue;
    }
    if (!straggler_handle_reply(std::move(*msg))) ++rel_.stale_replies;
  }
}

ClusterfileClient::AccessTimings ClusterfileClient::write(
    std::int64_t view_id, std::int64_t v, std::int64_t w,
    std::span<const std::byte> data) {
  AccessCanary::Scope guard(canary_);
  maybe_refresh_placement();
  if (v > w) throw std::invalid_argument("ClusterfileClient::write: v > w");
  if (static_cast<std::int64_t>(data.size()) < w - v + 1)
    throw std::invalid_argument("ClusterfileClient::write: short buffer");
  const ViewState& state = view_state(view_id);

  AccessTimings out;
  std::shared_ptr<const AccessPlan> plan;
  std::int64_t shift = 0;
  {
    // t_m: acquire the access plan — a cache replay on the paper's
    // repeated strided workloads, the full mapping pass otherwise.
    Timer t;
    plan = acquire_plan(state, view_id, v, w, shift, out);
    out.t_m_us = t.elapsed_us();
  }

  const auto make_write = [&](const PlanTarget& pt) {
    Message msg;
    msg.kind = MsgKind::kWrite;
    msg.dst_node = pt.io_node;
    msg.subfile = pt.subfile;
    msg.view_id = view_id;
    msg.v = pt.base_vs + shift * pt.sub_period_bytes;
    msg.w = pt.base_ws + shift * pt.sub_period_bytes;
    msg.contiguous = pt.runs.contiguous;
    msg.payload.resize(static_cast<std::size_t>(pt.runs.bytes));
    return msg;
  };

  // Build the requests; gathering is the t_g phase (a single untimed
  // memcpy on the contiguous fast path, as in the paper). Writes fan out to
  // every replica of their target: each gathers once, backups reuse the
  // primary's payload by copy.
  std::vector<TxReq> reqs;
  std::vector<std::size_t> req_target;  // request index -> plan target index
  reqs.reserve(plan->targets.size());
  for (std::size_t k = 0; k < plan->targets.size(); ++k) {
    const PlanTarget& pt = plan->targets[k];
    const std::vector<int>& reps =
        state.targets[pt.target_index].replicas;
    Message msg = make_write(pt);
    if (pt.runs.contiguous) {
      gather_runs(msg.payload, data, pt.runs);
    } else {
      Timer t;
      gather_runs(msg.payload, data, pt.runs);
      out.t_g_us += t.elapsed_us();
    }
    out.bytes += pt.runs.bytes;
    for (std::size_t r = 0; r < reps.size(); ++r) {
      TxReq req;
      req.msg = r + 1 < reps.size() ? msg : std::move(msg);
      req.msg.dst_node = reps[r];
      req.group = k;
      reqs.push_back(std::move(req));
      req_target.push_back(k);
    }
  }
  out.messages = static_cast<std::int64_t>(reqs.size());

  {
    // t_w: first request sent -> last acknowledgment received. Retransmits
    // re-gather from the caller's buffer (still live for the whole call) so
    // the fault-free path never copies a payload it doesn't have to.
    Timer t;
    transact(
        std::move(reqs), plan->targets.size(), MsgKind::kAck,
        /*quorum=*/write_quorum_,
        /*rebuild=*/
        [&](std::size_t i) {
          const PlanTarget& pt = plan->targets[req_target[i]];
          Message msg = make_write(pt);
          gather_runs(msg.payload, data, pt.runs);
          return msg;
        },
        /*reinstall=*/
        [&](std::size_t i) -> std::optional<Message> {
          const SubTarget& st =
              state.targets[plan->targets[req_target[i]].target_index];
          Message msg;
          msg.kind = MsgKind::kSetView;
          msg.dst_node = st.io_node;
          msg.subfile = static_cast<int>(st.subfile);
          msg.view_id = view_id;
          msg.meta = st.proj_meta;
          msg.v = st.proj_period;
          return msg;
        },
        out, nullptr);
    out.t_w_us = t.elapsed_us();
  }
  return out;
}

ClusterfileClient::AccessTimings ClusterfileClient::read(
    std::int64_t view_id, std::int64_t v, std::int64_t w,
    std::span<std::byte> out_buf) {
  AccessCanary::Scope guard(canary_);
  maybe_refresh_placement();
  if (v > w) throw std::invalid_argument("ClusterfileClient::read: v > w");
  if (static_cast<std::int64_t>(out_buf.size()) < w - v + 1)
    throw std::invalid_argument("ClusterfileClient::read: short buffer");
  const ViewState& state = view_state(view_id);

  AccessTimings out;
  std::shared_ptr<const AccessPlan> plan;
  std::int64_t shift = 0;
  {
    Timer t;
    plan = acquire_plan(state, view_id, v, w, shift, out);
    out.t_m_us = t.elapsed_us();
  }

  const auto make_read = [&](const PlanTarget& pt) {
    Message msg;
    msg.kind = MsgKind::kRead;
    msg.dst_node = pt.io_node;
    msg.subfile = pt.subfile;
    msg.view_id = view_id;
    msg.v = pt.base_vs + shift * pt.sub_period_bytes;
    msg.w = pt.base_ws + shift * pt.sub_period_bytes;
    return msg;
  };

  // One request per target, aimed at the primary, with the remaining
  // replicas as the failover chain: a read retargets to a backup when its
  // current node is given up on, completing kDegraded instead of kFailed.
  std::vector<TxReq> reqs;
  reqs.reserve(plan->targets.size());
  for (std::size_t k = 0; k < plan->targets.size(); ++k) {
    const PlanTarget& pt = plan->targets[k];
    const std::vector<int>& reps = state.targets[pt.target_index].replicas;
    TxReq req;
    req.msg = make_read(pt);
    req.group = k;
    req.backups.assign(reps.begin() + 1, reps.end());
    reqs.push_back(std::move(req));
  }
  out.messages = static_cast<std::int64_t>(reqs.size());

  std::vector<Message> replies;
  {
    Timer t;
    transact(
        std::move(reqs), plan->targets.size(), MsgKind::kReadReply,
        /*quorum=*/0,
        /*rebuild=*/
        [&](std::size_t i) { return make_read(plan->targets[i]); },
        /*reinstall=*/
        [&](std::size_t i) -> std::optional<Message> {
          const SubTarget& st = state.targets[plan->targets[i].target_index];
          Message msg;
          msg.kind = MsgKind::kSetView;
          msg.dst_node = st.io_node;
          msg.subfile = static_cast<int>(st.subfile);
          msg.view_id = view_id;
          msg.meta = st.proj_meta;
          msg.v = st.proj_period;
          return msg;
        },
        out, &replies);
    out.t_w_us = t.elapsed_us();
  }

  // Scatter every reply into the caller's buffer through the plan's run
  // lists (the t_g analog on the read path). transact returns replies in
  // request order, so reply i belongs to plan target i; failed targets
  // (allow-partial mode) zero-fill their destination ranges so the caller
  // sees deterministic bytes, never stale buffer contents (see read()).
  for (std::size_t i = 0; i < plan->targets.size(); ++i) {
    const PlanTarget& pt = plan->targets[i];
    if (out.per_subfile[i].status == AccessStatus::kFailed) {
      for (const MaterializedRun& run : pt.runs.runs)
        std::memset(out_buf.data() + run.rel_lo, 0,
                    static_cast<std::size_t>(run.len));
      continue;
    }
    const Message& reply = replies[i];
    PFM_DCHECK(static_cast<std::int64_t>(reply.payload.size()) == pt.runs.bytes,
               "read: subfile ", reply.subfile, " returned ",
               reply.payload.size(), " bytes, plan expects ", pt.runs.bytes);
    if (pt.runs.contiguous) {
      // Fast path mirror of the write: one copy, no scatter cost.
      scatter_runs(out_buf.subspan(0, static_cast<std::size_t>(w - v + 1)),
                   reply.payload, pt.runs);
    } else {
      Timer t;
      scatter_runs(out_buf.subspan(0, static_cast<std::size_t>(w - v + 1)),
                   reply.payload, pt.runs);
      out.t_g_us += t.elapsed_us();
    }
    out.bytes += static_cast<std::int64_t>(reply.payload.size());
  }
  return out;
}

}  // namespace pfm
