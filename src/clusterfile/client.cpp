#include "clusterfile/client.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "intersect/project.h"
#include "mapping/compose.h"
#include "util/arith.h"
#include "util/check.h"
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
    Network& net, int node_id,
    std::shared_ptr<const PartitioningPattern> physical, int write_quorum,
    std::shared_ptr<const PlacementDirectory> placement)
    : net_(net),
      node_id_(node_id),
      physical_(std::move(physical)),
      placement_(std::move(placement)),
      write_quorum_(write_quorum) {
  if (!physical_ || !placement_)
    throw std::invalid_argument("ClusterfileClient: no pattern or placement");
  if (placement_->subfile_count() != physical_->element_count())
    throw std::invalid_argument("ClusterfileClient: placement row count mismatch");
  if (write_quorum_ < 0)
    throw std::invalid_argument("ClusterfileClient: negative write quorum");
}

void ClusterfileClient::maybe_refresh_placement() {
  const std::int64_t epoch = placement_->epoch();
  if (epoch == placement_seen_) return;
  rows_ = placement_->snapshot();
  // A rebalance may have migrated a subfile slot off a node entirely. A
  // pending straggler aimed at the old holder would complete a write on a
  // copy the placement retired, and scrub debt against it would point scrub
  // at a replica that no longer exists — purge both. No divergence is lost:
  // the migration's catch-up sync carried everything the new holder missed.
  const auto retired = [&](int subfile, int node) {
    const std::vector<int>& reps = rows_[static_cast<std::size_t>(subfile)];
    return std::find(reps.begin(), reps.end(), node) == reps.end();
  };
  std::erase_if(scrub_debt_, [&](const std::pair<int, int>& debt) {
    return retired(debt.first, debt.second);
  });
  // Between accesses every in-flight entry is a detached straggler.
  std::erase_if(inflight_, [&](const auto& entry) {
    return retired(entry.second.request.subfile, entry.second.io_node);
  });
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
  const PartitioningPattern& phys = *physical_;
  // The view FALLS come straight from the application: reject malformed
  // input here, where the error names the caller's mistake, instead of
  // letting a bad set reach the intersection algebra (always on — a view is
  // set once and amortized over every access, paper table 1).
  PFM_CHECK(view_pattern_size >= 1, "set_view: view pattern size ",
            view_pattern_size, " < 1");
  // An empty view has no byte to read or write: an access through it would
  // move nothing yet return ok().
  if (falls.empty()) throw std::invalid_argument("set_view: empty view");
  validate_falls_set(falls);
  PFM_CHECK(set_extent(falls) <= view_pattern_size,
            "set_view: view FALLS extent ", set_extent(falls),
            " exceeds the view pattern size ", view_pattern_size);
  ViewState state;
  state.pattern_size = view_pattern_size;
  // The view's FALLS live in view_elem while the algebra reads them, then
  // move into the view state.
  PatternElement view_elem{std::move(falls), view_pattern_size,
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
        mul_checked(set_size(view_elem.falls), joint / view_pattern_size);
    for (std::size_t j = 0; j < count; ++j)
      sub_period[j] = mul_checked(set_size(phys.element(j)), joint / phys.size());
  } catch (const std::overflow_error&) {
    state.replay_period = 0;
  }

  {
    // t_i: intersections and projections only (paper table 1). PROJ_S is
    // kept in its wire form: every request to the target carries it.
    Timer t;
    for (std::size_t j = 0; j < count; ++j) {
      const PatternElement& sub = phys.pattern_element(j);
      const Intersection x = intersect_nested(view_elem, sub);
      if (x.empty()) continue;
      Projection pv = project(x, view_elem);
      const Projection ps = project(x, sub);
      SubTarget target;
      target.subfile = j;
      target.proj_v = IndexSet(std::move(pv.falls), pv.period);
      target.sub_period_bytes = state.replay_period > 0 ? sub_period[j] : 0;
      target.proj_s = encode_projection(ps.falls, ps.period);
      state.targets.push_back(std::move(target));
    }
    t_i_us_ = t.elapsed_us();
  }
  state.falls = std::move(view_elem.falls);

  views_.push_back(std::move(state));
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
  const PartitioningPattern& phys = *physical_;
  const ElementRef view_ref{&state.falls, phys.displacement(),
                            state.pattern_size};
  AccessPlan plan;
  plan.base_v = v;
  for (std::size_t k = 0; k < state.targets.size(); ++k) {
    const SubTarget& target = state.targets[k];
    // ONE traversal per target: runs, byte count and contiguity together.
    RunList rl = target.proj_v.materialize_in(v, w);
    if (rl.bytes == 0) continue;
    const auto iv =
        map_interval(view_ref, phys.element_ref(target.subfile), v, w);
    if (!iv.has_value()) continue;
    PlanTarget pt;
    pt.target_index = k;
    pt.base_vs = iv->lo;
    pt.base_ws = iv->hi;
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
  const bool cacheable = state.replay_period > 0;
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

struct ClusterfileClient::Access {
  /// Per-group (per-target) outcome accumulator: a group succeeds while at
  /// least one of its requests completes, degrades when a replica is lost
  /// along the way, and fails only when every request is abandoned.
  struct Group {
    int total = 0;
    int ok = 0;
    int failed = 0;
    int failovers = 0;
    int max_attempts = 1;
    int served_by = -1;  ///< last node that answered
    bool retried = false;
    bool timed_out = false;
    std::string error;  ///< first failure reason
    std::shared_ptr<bool> quorum_short;  ///< made when the group detaches
  };
  int quorum = 0;
  AccessTimings& t;
  std::vector<Message>* replies = nullptr;
  std::vector<Group> groups;
};

void ClusterfileClient::transact(std::vector<TxReq> reqs,
                                 std::size_t group_count, int quorum,
                                 AccessTimings& t,
                                 std::vector<Message>* replies) {
  if (replies != nullptr) replies->assign(reqs.size(), Message{});
  t.per_subfile.assign(group_count, SubfileAccess{});
  Access acc{quorum, t, replies, std::vector<Access::Group>(group_count)};

  // One delivery budget for the whole access: every deadline — retries,
  // failovers, straggler retransmits — is clipped to `hard_deadline` (the
  // summed backoff schedule), so a target's replica chain burns one
  // schedule total, never chain-length × schedule.
  const Clock::time_point hard_deadline = Clock::now() + policy_.budget();
  try {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::uint64_t id = next_req_id();
      InFlight& e = inflight_[id];
      e.index = i;
      e.group = reqs[i].group;
      e.io_node = reqs[i].msg.dst_node;
      e.backups = std::move(reqs[i].backups);
      e.hard_deadline = hard_deadline;
      e.request = std::move(reqs[i].msg);
      e.request.req_id = id;
      if (net_.checksums_enabled()) stamp_checksum(e.request);
      SubfileAccess& s = t.per_subfile[e.group];
      s.subfile = e.request.subfile;
      // The primary names the group.
      if (++acc.groups[e.group].total == 1) s.io_node = e.io_node;
      transmit(id, e);
    }
    pump(&acc);
  } catch (...) {
    // The access's own entries never outlive it; stragglers stay.
    std::erase_if(inflight_,
                  [](const auto& entry) { return !entry.second.detached; });
    throw;
  }

  // Collapse per-request outcomes into one status per group: an access is
  // kFailed only when a target lost *every* replica; losing some — or
  // serving a read from a backup — is kDegraded, correct data at a
  // reliability cost.
  for (std::size_t gi = 0; gi < group_count; ++gi) {
    const Access::Group& g = acc.groups[gi];
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

void ClusterfileClient::pump(Access* acc) {
  const auto counters = [&](const InFlight* e) -> ReliabilityCounters& {
    return (acc == nullptr || (e != nullptr && e->detached)) ? rel_
                                                              : acc->t.rel;
  };
  Channel& inbox = net_.inbox(node_id_);
  for (;;) {
    // The next actionable deadline.
    Clock::time_point next = Clock::time_point::max();
    bool owned = false;
    for (const auto& [id, e] : inflight_) {
      owned = owned || !e.detached;
      next = std::min(next, e.deadline);
    }
    if (acc != nullptr ? !owned : inflight_.empty()) return;
    const Clock::time_point now = Clock::now();

    if (next <= now) {
      std::vector<std::uint64_t> expired;
      for (const auto& [id, e] : inflight_)
        if (e.deadline <= now) expired.push_back(id);
      for (const std::uint64_t id : expired) {
        const auto it = inflight_.find(id);
        if (it == inflight_.end()) continue;
        InFlight& e = it->second;
        ReliabilityCounters& rel = counters(&e);
        ++rel.timeouts;
        if (e.attempts >= policy_.max_attempts || now >= e.hard_deadline) {
          give_up(id,
                  "I/O node " + std::to_string(e.io_node) +
                      " unresponsive after " + std::to_string(e.attempts) +
                      " attempts",
                  /*timed_out=*/true, acc);
          continue;
        }
        if (!e.backups.empty()) {
          // A backup is available: moving there beats hammering a node
          // that just missed a deadline — the chain shares one budget, so
          // spreading the attempts maximizes the replicas actually tried.
          // The chain is round-robin: the node that just timed out rejoins
          // the tail, so one dropped reply from a live node can't strand
          // the remaining attempts on a dead backup.
          ++acc->groups[e.group].failovers;
          ++rel.failovers;
          e.backups.push_back(e.io_node);
          e.io_node = e.backups.front();
          e.backups.erase(e.backups.begin());
        } else {
          ++rel.retries;
        }
        resend(id, e);
      }
      continue;
    }

    auto msg = inbox.receive_for(next - now);
    if (!msg.has_value()) {
      if (!inbox.closed()) continue;  // the deadline pass runs at the top
      if (acc != nullptr)
        throw std::runtime_error(
            "ClusterfileClient: network closed while waiting");
      // Draining with the network gone: no ack can arrive. Abandon
      // everything so the table empties and scrub knows what it owes.
      while (!inflight_.empty())
        give_up(inflight_.begin()->first, {}, false, nullptr);
      return;
    }
    const std::uint64_t id = msg->req_id;
    const auto it = inflight_.find(id);
    InFlight* e = it == inflight_.end() ? nullptr : &it->second;
    ReliabilityCounters& rel = counters(e);

    if (!verify_checksum(*msg)) {
      // A corrupted reply: the request itself succeeded server-side, so
      // resend right away (idempotent) instead of waiting out the timer.
      // With no attempt left the deadline gives up on it.
      ++rel.corruptions_detected;
      if (e != nullptr && e->attempts < policy_.max_attempts) {
        ++rel.retries;
        resend(id, *e);
      }
      continue;
    }
    if (e == nullptr) {
      // Duplicate or late reply for a request already completed (or one we
      // never sent): discard. This used to be a fatal logic_error.
      ++rel.stale_replies;
      continue;
    }

    if (msg->kind == MsgKind::kError) {
      if ((msg->err == ErrCode::kBadChecksum ||
           msg->err == ErrCode::kIoError) &&
          e->attempts < policy_.max_attempts) {
        // The server caught a corrupted request (resend it) or its storage
        // EIO'd transiently (errors are never reply-cached, so the resend
        // re-executes).
        if (msg->err == ErrCode::kBadChecksum) ++rel.corruptions_detected;
        ++rel.retries;
        resend(id, *e);
        continue;
      }
      // Terminal for this replica — including kCorruptData, where a resend
      // would re-read the same rotten bytes.
      give_up(id,
              "server reported " + std::string(to_string(msg->err)) + ": " +
                  msg->meta,
              /*timed_out=*/false, acc);
      continue;
    }

    if (msg->kind != (e->request.kind == MsgKind::kRead ? MsgKind::kReadReply
                                                        : MsgKind::kAck)) {
      ++rel.stale_replies;
      continue;
    }
    if (e->detached) {
      ++stragglers_completed_;
      inflight_.erase(it);
      continue;
    }
    const std::size_t gi = e->group;
    Access::Group& g = acc->groups[gi];
    ++g.ok;
    g.max_attempts = std::max(g.max_attempts, e->attempts);
    if (e->attempts > 1) g.retried = true;
    g.served_by = e->io_node;
    if (acc->replies != nullptr) (*acc->replies)[e->index] = std::move(*msg);
    inflight_.erase(it);
    if (acc->quorum == 0 || g.ok < std::min(acc->quorum, g.total)) continue;

    // Quorum met: detach the group's outstanding fan-out requests. Each
    // keeps its req_id (a late ack still matches), its attempt count, its
    // schedule and its sealed request, whose payload it owns a share of —
    // the caller's buffer may be gone before the straggler resolves.
    for (auto& [mid, m] : inflight_) {
      if (m.detached || m.group != gi) continue;
      if (!g.quorum_short) g.quorum_short = std::make_shared<bool>(false);
      m.group_short = g.quorum_short;
      m.detached = true;
      ++acc->t.stragglers;
    }
  }
}

void ClusterfileClient::transmit(std::uint64_t id, InFlight& e) {
  // The engine owns routing: after a failover the copy goes to the replica
  // now serving the request. Every attempt carries the same req_id, so the
  // server replays instead of re-applying and a late reply from an earlier
  // attempt is stale. The copy shares the sealed request's payload.
  Message msg = e.request;
  msg.dst_node = e.io_node;
  e.deadline = std::min(Clock::now() + policy_.timeout(e.attempts),
                        e.hard_deadline);
  if (net_.send(node_id_, std::move(msg))) return;
  if (!e.detached)
    throw std::runtime_error("ClusterfileClient: I/O node " +
                             std::to_string(e.io_node) + " is unreachable");
  give_up(id, {}, false, nullptr);
}

void ClusterfileClient::resend(std::uint64_t id, InFlight& e) {
  ++e.attempts;
  transmit(id, e);
}

void ClusterfileClient::give_up(std::uint64_t id, const std::string& why,
                                bool timed_out, Access* acc) {
  const auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  InFlight& e = it->second;
  if (e.detached) {
    ++stragglers_abandoned_;
    ++rel_.replica_failures;
    if (!*e.group_short) {
      *e.group_short = true;
      ++rel_.quorum_short;
    }
  } else {
    Access::Group& g = acc->groups[e.group];
    g.max_attempts = std::max(g.max_attempts, e.attempts);
    if (!e.backups.empty() && e.attempts < policy_.max_attempts &&
        Clock::now() < e.hard_deadline) {
      // Attempts carry across the move — the chain shares one schedule.
      ++g.failovers;
      ++acc->t.rel.failovers;
      e.io_node = e.backups.front();
      e.backups.erase(e.backups.begin());
      resend(it->first, e);
      return;
    }
    ++g.failed;
    if (g.error.empty()) {
      g.error = why;
      g.timed_out = timed_out;
    }
  }
  // Deduplicated: the same (subfile, node) abandoned across many retries
  // (or many groups) owes exactly one scrub, and the debt set stays bounded
  // by subfiles × replicas instead of growing with the failure rate.
  const std::pair<int, int> owed{e.request.subfile, e.io_node};
  if (e.request.kind == MsgKind::kWrite &&
      std::find(scrub_debt_.begin(), scrub_debt_.end(), owed) ==
          scrub_debt_.end())
    scrub_debt_.push_back(owed);
  inflight_.erase(it);
}

void ClusterfileClient::drain_stragglers() {
  AccessCanary::Scope guard(canary_);
  pump(nullptr);
}

ClusterfileClient::AccessTimings ClusterfileClient::write(
    std::int64_t view_id, std::int64_t v, std::int64_t w,
    std::span<const std::byte> data) {
  AccessCanary::Scope guard(canary_);
  maybe_refresh_placement();
  if (v < 0 || v > w)
    throw std::invalid_argument("ClusterfileClient::write: need 0 <= v <= w");
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

  // Build the requests; gathering is the t_g phase (a single untimed
  // memcpy on the contiguous fast path, as in the paper). Writes fan out to
  // every replica of their target: each target gathers once, and its
  // replicas' requests share that one payload.
  std::vector<TxReq> reqs;
  reqs.reserve(plan->targets.size());
  for (std::size_t k = 0; k < plan->targets.size(); ++k) {
    const PlanTarget& pt = plan->targets[k];
    const SubTarget& target = state.targets[pt.target_index];
    const std::vector<int>& reps = rows_[target.subfile];
    Message msg;
    msg.kind = MsgKind::kWrite;
    msg.subfile = static_cast<int>(target.subfile);
    msg.meta = target.proj_s;
    msg.v = pt.base_vs + shift * target.sub_period_bytes;
    msg.w = pt.base_ws + shift * target.sub_period_bytes;
    msg.contiguous = pt.runs.contiguous;
    if (pt.runs.contiguous) {
      msg.payload = gather_runs(data, pt.runs);
    } else {
      Timer t;
      msg.payload = gather_runs(data, pt.runs);
      out.t_g_us += t.elapsed_us();
    }
    out.bytes += pt.runs.bytes;
    for (std::size_t r = 0; r < reps.size(); ++r) {
      TxReq req;
      req.msg = r + 1 < reps.size() ? msg : std::move(msg);
      req.msg.dst_node = reps[r];
      req.group = k;
      reqs.push_back(std::move(req));
    }
  }
  out.messages = static_cast<std::int64_t>(reqs.size());

  {
    // t_w: first request sent -> last acknowledgment received.
    Timer t;
    transact(std::move(reqs), plan->targets.size(), write_quorum_, out,
             nullptr);
    out.t_w_us = t.elapsed_us();
  }
  return out;
}

ClusterfileClient::AccessTimings ClusterfileClient::read(
    std::int64_t view_id, std::int64_t v, std::int64_t w,
    std::span<std::byte> out_buf) {
  AccessCanary::Scope guard(canary_);
  maybe_refresh_placement();
  if (v < 0 || v > w)
    throw std::invalid_argument("ClusterfileClient::read: need 0 <= v <= w");
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

  // One request per target, aimed at the primary, with the remaining
  // replicas as the failover chain: a read retargets to a backup when its
  // current node is given up on, completing kDegraded instead of kFailed.
  std::vector<TxReq> reqs;
  reqs.reserve(plan->targets.size());
  for (std::size_t k = 0; k < plan->targets.size(); ++k) {
    const PlanTarget& pt = plan->targets[k];
    const SubTarget& target = state.targets[pt.target_index];
    const std::vector<int>& reps = rows_[target.subfile];
    TxReq req;
    req.msg.kind = MsgKind::kRead;
    req.msg.dst_node = reps[0];
    req.msg.subfile = static_cast<int>(target.subfile);
    req.msg.meta = target.proj_s;
    req.msg.v = pt.base_vs + shift * target.sub_period_bytes;
    req.msg.w = pt.base_ws + shift * target.sub_period_bytes;
    req.group = k;
    req.backups.assign(reps.begin() + 1, reps.end());
    reqs.push_back(std::move(req));
  }
  out.messages = static_cast<std::int64_t>(reqs.size());

  std::vector<Message> replies;
  {
    Timer t;
    transact(std::move(reqs), plan->targets.size(), /*quorum=*/0, out,
             &replies);
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
