// Fault-injection soak: the reliability layer (req_ids, checksums,
// retransmits, idempotent replay, failover) must deliver
// byte-identical results over a hostile wire — drops, duplicates, bit
// flips, delayed reordering, partitions and crashed servers — and the
// reliability counters must line up with what the injector actually did.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fault.h"
#include "clusterfile/fs.h"
#include "clusterfile/journal.h"
#include "clusterfile/recover.h"
#include "clusterfile/storage.h"
#include "layout/partitions2d.h"
#include "util/buffer.h"

namespace pfm {
namespace {

PartitioningPattern pattern2d(Partition2D p, std::int64_t n, std::int64_t parts) {
  auto elems = partition2d_all(p, n, n, parts);
  return make_pattern({elems.begin(), elems.end()});
}

/// A retry policy short enough to keep fault soaks fast but with enough
/// attempts that probabilistic faults cannot plausibly exhaust it.
RetryPolicy soak_policy() {
  RetryPolicy p;
  p.base_timeout = std::chrono::milliseconds(50);
  p.max_timeout = std::chrono::milliseconds(400);
  p.max_attempts = 8;
  return p;
}

/// FaultRule builder (avoids partial designated initializers, which GCC's
/// -Wmissing-field-initializers rejects under -Werror).
FaultRule make_rule(double drop, double duplicate = 0, double corrupt = 0,
                    double delay = 0, int delay_depth = 3) {
  FaultRule r;
  r.drop = drop;
  r.duplicate = duplicate;
  r.corrupt = corrupt;
  r.delay = delay;
  r.delay_depth = delay_depth;
  return r;
}

Message make_msg(int src, int dst, MsgKind kind, std::size_t payload = 0) {
  Message m;
  m.src_node = src;
  m.dst_node = dst;
  m.kind = kind;
  m.payload = make_pattern_buffer(payload, 7);
  return m;
}

// ---------------------------------------------------------------------------
// FaultInjector units
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameFaults) {
  FaultPlan plan;
  plan.seed = 42;
  plan.rules.push_back(make_rule(0.2, 0.2, 0.2, 0.2));
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 500; ++i) {
    const auto da = a.process(make_msg(0, 1, MsgKind::kWrite, 16));
    const auto db = b.process(make_msg(0, 1, MsgKind::kWrite, 16));
    ASSERT_EQ(da.size(), db.size()) << "diverged at message " << i;
    for (std::size_t k = 0; k < da.size(); ++k)
      EXPECT_EQ(da[k].payload, db[k].payload);
  }
  const auto ca = a.counters(), cb = b.counters();
  EXPECT_EQ(ca.dropped, cb.dropped);
  EXPECT_EQ(ca.duplicated, cb.duplicated);
  EXPECT_EQ(ca.corrupted, cb.corrupted);
  EXPECT_EQ(ca.delayed, cb.delayed);
  // With p = 0.2 each over 500 messages, every fault class fires.
  EXPECT_GT(ca.dropped, 0);
  EXPECT_GT(ca.duplicated, 0);
  EXPECT_GT(ca.corrupted, 0);
  EXPECT_GT(ca.delayed, 0);
}

// A corrupted message must not damage the copies that share its payload:
// the sender's retained request (what it retransmits) and the requests to
// sibling replicas.
TEST(FaultInjector, CorruptionLeavesSharedPayloadCopiesIntact) {
  FaultPlan plan;
  plan.rules.push_back(make_rule(0.0, 0.0, /*corrupt=*/1.0));
  FaultInjector inj(plan);
  Message retained = make_msg(0, 1, MsgKind::kWrite, 256);
  stamp_checksum(retained);
  const auto out = inj.process(retained);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(inj.counters().corrupted, 1);
  EXPECT_FALSE(verify_checksum(out[0]));
  EXPECT_TRUE(verify_checksum(retained));
  EXPECT_TRUE(equal_bytes(retained.payload, make_pattern_buffer(256, 7)));
}

TEST(FaultInjector, FirstMatchingRuleApplies) {
  FaultPlan plan;
  FaultRule to_one = make_rule(1.0);  // everything to node 1 dies
  to_one.dst = 1;
  plan.rules.push_back(to_one);
  plan.rules.push_back(make_rule(0.0));  // everything else is clean
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.process(make_msg(0, 1, MsgKind::kWrite)).empty());
  EXPECT_EQ(inj.process(make_msg(0, 2, MsgKind::kWrite)).size(), 1u);
  EXPECT_EQ(inj.counters().dropped, 1);
}

TEST(FaultInjector, KindFilterSelectsMessages) {
  FaultPlan plan;
  FaultRule r;
  r.kind = MsgKind::kAck;
  r.drop = 1.0;
  plan.rules.push_back(r);
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.process(make_msg(0, 1, MsgKind::kAck)).empty());
  EXPECT_EQ(inj.process(make_msg(0, 1, MsgKind::kWrite)).size(), 1u);
}

TEST(FaultInjector, DelayedMessageSlipsPastLaterSends) {
  FaultPlan plan;
  FaultRule r;
  r.kind = MsgKind::kRead;
  r.delay = 1.0;
  r.delay_depth = 2;
  plan.rules.push_back(r);
  FaultInjector inj(plan);
  // The read goes into limbo...
  EXPECT_TRUE(inj.process(make_msg(0, 1, MsgKind::kRead)).empty());
  EXPECT_EQ(inj.in_limbo(), 1u);
  // ...one later send passes it, the second flushes it out first-in-order.
  EXPECT_EQ(inj.process(make_msg(0, 1, MsgKind::kWrite)).size(), 1u);
  const auto out = inj.process(make_msg(0, 1, MsgKind::kWrite));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, MsgKind::kRead);  // the delayed message, now matured
  EXPECT_EQ(out[1].kind, MsgKind::kWrite);
  EXPECT_EQ(inj.in_limbo(), 0u);
  EXPECT_GT(inj.modeled_delay_us(), 0.0);
}

TEST(FaultInjector, PartitionsDropAndHeal) {
  FaultInjector inj(FaultPlan{});
  inj.isolate(3);
  EXPECT_FALSE(inj.delivers(0, 3));
  EXPECT_FALSE(inj.delivers(3, 0));
  EXPECT_TRUE(inj.process(make_msg(0, 3, MsgKind::kWrite)).empty());
  EXPECT_TRUE(inj.process(make_msg(3, 0, MsgKind::kAck)).empty());
  inj.restore(3);
  EXPECT_TRUE(inj.delivers(0, 3));
  EXPECT_EQ(inj.process(make_msg(0, 3, MsgKind::kWrite)).size(), 1u);

  inj.cut(1, 2);
  EXPECT_FALSE(inj.delivers(2, 1));
  EXPECT_TRUE(inj.delivers(1, 1));
  EXPECT_TRUE(inj.process(make_msg(1, 2, MsgKind::kWrite)).empty());
  inj.heal(1, 2);
  EXPECT_EQ(inj.process(make_msg(1, 2, MsgKind::kWrite)).size(), 1u);
  EXPECT_EQ(inj.counters().partition_dropped, 3);
  EXPECT_EQ(inj.counters().dropped, 0);  // partitions are counted separately
}

TEST(FaultInjector, ShutdownIsImmuneOnTheNetwork) {
  Network net(2);
  FaultPlan plan;
  plan.rules.push_back(make_rule(1.0));  // drop absolutely everything
  net.install_faults(std::make_shared<FaultInjector>(plan));
  ASSERT_TRUE(net.send(0, make_msg(0, 1, MsgKind::kWrite)));  // silently lost
  ASSERT_TRUE(net.send(0, make_msg(0, 1, MsgKind::kShutdown)));
  const auto got = net.inbox(1).receive();  // would hang if shutdown dropped
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, MsgKind::kShutdown);
  net.close_all();
}

TEST(Channel, ReceiveForTimesOutAndDelivers) {
  Channel ch;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(ch.receive_for(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(15));
  ASSERT_TRUE(ch.send(make_msg(0, 0, MsgKind::kAck)));
  const auto got = ch.receive_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, MsgKind::kAck);
  ch.close();
  EXPECT_FALSE(ch.receive_for(std::chrono::milliseconds(5)).has_value());
  EXPECT_TRUE(ch.closed());
}

// ---------------------------------------------------------------------------
// Protocol hardening regressions
// ---------------------------------------------------------------------------

// Regression: a stray acknowledgment used to kill the client with
// std::logic_error("unexpected message kind"); it must be discarded and
// counted, and the access must still succeed.
TEST(Reliability, StrayAckIsDiscardedNotFatal) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 8, 4));
  auto& client = fs.client(0);
  // Park a spurious ack (and a spurious read reply) in the client's inbox.
  ASSERT_TRUE(fs.network().send(5, make_msg(5, 0, MsgKind::kAck)));
  ASSERT_TRUE(fs.network().send(5, make_msg(5, 0, MsgKind::kReadReply, 4)));
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 8, 8, 4);
  const std::int64_t vid = client.set_view(views[0], 64);
  const Buffer data = make_pattern_buffer(16, 11);
  Buffer back(16);
  ASSERT_NO_THROW(client.write(vid, 0, 15, data));
  ASSERT_NO_THROW(client.read(vid, 0, 15, back));
  EXPECT_EQ(back, data);
  EXPECT_GE(client.reliability().stale_replies, 2);
  EXPECT_EQ(client.reliability().failures, 0);
}

// Regression: a crashed I/O node used to hang the client forever; it must
// surface as a TimeoutError naming the unresponsive node after the retries
// are exhausted — and the cluster must recover once the node restarts.
TEST(Reliability, DeadNodeTimesOutNamingItThenRecovers) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  RetryPolicy fast;
  fast.base_timeout = std::chrono::milliseconds(20);
  fast.max_timeout = std::chrono::milliseconds(60);
  fast.max_attempts = 3;
  client.set_retry_policy(fast);

  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 21);

  fs.crash_server(0);  // I/O node 4 serves subfile 0; the view touches it
  try {
    client.write(vid, 0, 63, data);
    FAIL() << "write through a dead node did not time out";
  } catch (const TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("I/O node 4"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("3 attempts"), std::string::npos)
        << e.what();
  }
  EXPECT_GE(client.reliability().timeouts, 2);
  EXPECT_GE(client.reliability().failures, 1);

  // Restart over the surviving storage. Requests carry their projections,
  // so the new server serves the first attempt of each: no retry, no error
  // reply. Only the dead-node phase needs the short timeouts; back on the
  // default policy a busy host cannot make a healthy request look lost.
  fs.restart_server(0);
  client.set_retry_policy(RetryPolicy{});
  const std::int64_t retries = client.reliability().retries;
  Buffer back(64);
  const auto w = client.write(vid, 0, 63, data);
  const auto r = client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
  EXPECT_TRUE(w.rel.all_zero());
  EXPECT_TRUE(r.rel.all_zero());
  EXPECT_EQ(client.reliability().retries, retries);
  EXPECT_EQ(fs.server_reliability().errors_sent, 0);
}

// allow-partial mode: the same dead node degrades to per-subfile statuses
// instead of throwing, and the healthy subfiles still complete.
TEST(Reliability, AllowPartialReportsFailedTargets) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  RetryPolicy fast;
  fast.base_timeout = std::chrono::milliseconds(20);
  fast.max_timeout = std::chrono::milliseconds(60);
  fast.max_attempts = 2;
  client.set_retry_policy(fast);
  client.set_allow_partial(true);

  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[1], 256);
  fs.crash_server(1);  // node 5 = subfile 1; views touch all four subfiles
  const Buffer data = make_pattern_buffer(64, 31);
  const auto t = client.write(vid, 0, 63, data);
  EXPECT_FALSE(t.ok());
  ASSERT_EQ(t.per_subfile.size(), 4u);
  int failed = 0;
  for (const auto& s : t.per_subfile) {
    if (s.status != AccessStatus::kFailed) continue;
    ++failed;
    EXPECT_EQ(s.io_node, 5);
    EXPECT_TRUE(s.timed_out);
    EXPECT_NE(s.error.find("I/O node 5"), std::string::npos) << s.error;
  }
  EXPECT_EQ(failed, 1);
}

/// A fault plan that delivers every error reply twice.
FaultPlan duplicate_errors() {
  FaultPlan plan;
  FaultRule rule;
  rule.kind = MsgKind::kError;
  rule.duplicate = 1.0;
  plan.rules.push_back(rule);
  return plan;
}

// A restarted server lost every in-memory projection, yet the requests
// after the restart carry their own: with every error reply duplicated on
// the wire, the restart still produces no error reply that a duplicate
// could turn into a failure.
TEST(Reliability, RestartUnderDuplicatedErrorsSendsNoErrorReply) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 22));

  fs.install_faults(duplicate_errors());
  fs.crash_server(0);
  fs.restart_server(0);  // node 4 lost its in-memory state
  const Buffer data = make_pattern_buffer(64, 23);
  const auto w = client.write(vid, 0, 63, data);
  EXPECT_TRUE(w.ok());
  EXPECT_TRUE(w.rel.all_zero());
  Buffer back(64);
  const auto r = client.read(vid, 0, 63, back);
  EXPECT_TRUE(r.rel.all_zero());
  EXPECT_EQ(back, data);
  EXPECT_EQ(fs.server_reliability().errors_sent, 0);
  EXPECT_EQ(fs.faults().counters().duplicated, 0);
}

TEST(Reliability, NoFaultPlanMeansZeroCountersEverywhere) {
  Clusterfile fs(ClusterConfig{}, pattern2d(Partition2D::kRowBlocks, 16, 4));
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    const std::int64_t vid =
        client.set_view(views[static_cast<std::size_t>(c)], 256);
    const Buffer data = make_pattern_buffer(64, 100 + static_cast<unsigned>(c));
    Buffer back(64);
    const auto w = client.write(vid, 0, 63, data);
    const auto r = client.read(vid, 0, 63, back);
    EXPECT_EQ(back, data);
    EXPECT_TRUE(w.rel.all_zero());
    EXPECT_TRUE(r.rel.all_zero());
    EXPECT_TRUE(w.ok());
  }
  EXPECT_TRUE(fs.client_reliability().all_zero());
  EXPECT_TRUE(fs.server_reliability().all_zero());
  EXPECT_EQ(fs.network().faults(), nullptr);
  EXPECT_FALSE(fs.network().checksums_enabled());
}

// ---------------------------------------------------------------------------
// Deterministic fault soak
// ---------------------------------------------------------------------------

struct SoakMix {
  const char* name;
  FaultRule rule;
};

const SoakMix kMixes[] = {
    {"drop", make_rule(0.05)},
    {"duplicate", make_rule(0, 0.10)},
    {"corrupt", make_rule(0, 0, 0.10)},
    {"delay", make_rule(0, 0, 0, 0.20, /*delay_depth=*/2)},
    {"storm", make_rule(0.03, 0.05, 0.05, 0.10)},
};

/// Runs the reference workload — every column-block view written from its
/// own client, then read back — and returns the final subfile images.
/// When `vids_out` is given, the per-client view ids are recorded so the
/// caller can issue further accesses (e.g. the soak's drain barriers).
std::vector<Buffer> run_workload(Clusterfile& fs, bool faulty,
                                 std::vector<std::int64_t>* vids_out = nullptr,
                                 const RetryPolicy* policy = nullptr) {
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  std::vector<Buffer> images;
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    if (faulty) client.set_retry_policy(policy ? *policy : soak_policy());
    const std::int64_t vid =
        client.set_view(views[static_cast<std::size_t>(c)], 256);
    if (vids_out) vids_out->push_back(vid);
    const Buffer data = make_pattern_buffer(64, 50 + static_cast<unsigned>(c));
    client.write(vid, 0, 63, data);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_EQ(back, data) << "read-back mismatch on client " << c;
  }
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const SubfileStorage& st = fs.subfile_storage(i);
    Buffer img(static_cast<std::size_t>(st.size()));
    if (!img.empty()) st.read(0, img);
    images.push_back(std::move(img));
  }
  return images;
}

TEST(FaultSoak, GridIsByteIdenticalToFaultFreeRun) {
  const PartitioningPattern physical =
      pattern2d(Partition2D::kRowBlocks, 16, 4);

  // The fault-free reference images.
  std::vector<Buffer> reference;
  {
    Clusterfile fs(ClusterConfig{}, physical);
    reference = run_workload(fs, /*faulty=*/false);
    ASSERT_TRUE(fs.client_reliability().all_zero());
  }

  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seeds.push_back(std::strtoull(env, nullptr, 10));

  // >= 20 (seed x mix) cells; every one must converge to identical bytes.
  for (const std::uint64_t seed : seeds) {
    for (const SoakMix& mix : kMixes) {
      SCOPED_TRACE(std::string("mix=") + mix.name +
                   " seed=" + std::to_string(seed));
      Clusterfile fs(ClusterConfig{}, physical);
      FaultPlan plan;
      plan.seed = seed;
      plan.rules.push_back(mix.rule);
      fs.install_faults(plan);

      std::vector<std::int64_t> vids;
      const std::vector<Buffer> images =
          run_workload(fs, /*faulty=*/true, &vids);
      ASSERT_EQ(images.size(), reference.size());
      for (std::size_t i = 0; i < images.size(); ++i)
        EXPECT_EQ(images[i], reference[i]) << "subfile " << i;

      const auto inj = fs.faults().counters();

      // Drain: a duplicate of a client's final exchange can still sit
      // unconsumed in its inbox (or as a not-yet-replayed request in a
      // server queue) when the workload returns. Swap in a clean wire and
      // run barrier reads — each server finishes replaying queued
      // duplicates before answering the barrier, and each client's
      // receive loop consumes every leftover reply (counted stale)
      // before its own. Only then is the duplicate accounting exact.
      fs.install_faults(FaultPlan{});
      for (int pass = 0; pass < 2; ++pass)
        for (int c = 0; c < 4; ++c) {
          Buffer scratch(64);
          fs.client(c).read(vids[static_cast<std::size_t>(c)], 0, 63,
                            scratch);
        }

      const ReliabilityCounters cli = fs.client_reliability();
      const ReliabilityCounters srv = fs.server_reliability();
      EXPECT_EQ(cli.failures, 0);
      // Every probabilistic loss must have cost at least one retransmit.
      if (mix.rule.duplicate == 0 && mix.rule.corrupt == 0 &&
          mix.rule.delay == 0) {
        EXPECT_GE(cli.retries, inj.dropped);
      }
      // Per-event accounting is airtight only when no fault can strand a
      // message: delay can leave copies in limbo past the end of the run,
      // and drop can eat the extra reply a replayed duplicate produced.
      if (mix.rule.delay == 0) {
        // Every bit flip the injector landed was caught by a checksum
        // somewhere (the byte-identical images above prove none got
        // through).
        EXPECT_GE(cli.corruptions_detected + srv.corruptions_detected,
                  inj.corrupted);
        // Every duplicate surfaced as a server-side suppression or a
        // client-side stale reply.
        if (mix.rule.drop == 0) {
          EXPECT_GE(srv.duplicates_suppressed + cli.stale_replies,
                    inj.duplicated);
        }
      }
    }
  }
}

TEST(FaultSoak, CrashRestartMidWorkloadStaysByteIdentical) {
  const PartitioningPattern physical =
      pattern2d(Partition2D::kRowBlocks, 16, 4);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const Buffer data_a = make_pattern_buffer(64, 71);
  const Buffer data_b = make_pattern_buffer(64, 72);

  // Reference: both writes on a healthy cluster.
  std::vector<Buffer> reference;
  {
    Clusterfile fs(ClusterConfig{}, physical);
    auto& client = fs.client(0);
    const std::int64_t v0 = client.set_view(views[0], 256);
    const std::int64_t v1 = client.set_view(views[1], 256);
    client.write(v0, 0, 63, data_a);
    client.write(v1, 0, 63, data_b);
    for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
      const SubfileStorage& st = fs.subfile_storage(i);
      Buffer img(static_cast<std::size_t>(st.size()));
      if (!img.empty()) st.read(0, img);
      reference.push_back(std::move(img));
    }
  }

  // Same workload with a crash/restart of I/O node 0 between the writes:
  // on a clean wire, where the restart must cost nothing at all, then under
  // the grid's duplicate and storm mixes.
  const auto run = [&](const FaultPlan* plan) {
    Clusterfile fs(ClusterConfig{}, physical);
    if (plan != nullptr) fs.install_faults(*plan);
    auto& client = fs.client(0);
    client.set_retry_policy(soak_policy());
    const std::int64_t v0 = client.set_view(views[0], 256);
    const std::int64_t v1 = client.set_view(views[1], 256);
    client.write(v0, 0, 63, data_a);
    fs.crash_server(0);
    fs.restart_server(0);  // in-memory state lost; storage survives
    client.write(v1, 0, 63, data_b);
    Buffer back(64);
    client.read(v0, 0, 63, back);
    EXPECT_EQ(back, data_a);
    client.read(v1, 0, 63, back);
    EXPECT_EQ(back, data_b);

    for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
      const SubfileStorage& st = fs.subfile_storage(i);
      Buffer img(static_cast<std::size_t>(st.size()));
      if (!img.empty()) st.read(0, img);
      EXPECT_EQ(img, reference[i]) << "subfile " << i;
    }
    EXPECT_EQ(client.reliability().failures, 0);
    if (plan == nullptr) {
      EXPECT_TRUE(client.reliability().all_zero());
      EXPECT_EQ(fs.server_reliability().errors_sent, 0);
    }
  };
  run(nullptr);

  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seeds.push_back(std::strtoull(env, nullptr, 10));
  for (const std::uint64_t seed : seeds) {
    for (const SoakMix& mix : kMixes) {
      if (std::string(mix.name) != "duplicate" &&
          std::string(mix.name) != "storm")
        continue;
      SCOPED_TRACE(std::string("mix=") + mix.name +
                   " seed=" + std::to_string(seed));
      FaultPlan plan;
      plan.seed = seed;
      plan.rules.push_back(mix.rule);
      run(&plan);
    }
  }
}

// ---------------------------------------------------------------------------
// Subfile replication
// ---------------------------------------------------------------------------

ClusterConfig replicated_config(int replication = 2) {
  ClusterConfig cfg;
  cfg.replication = replication;
  return cfg;
}

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.base_timeout = std::chrono::milliseconds(20);
  p.max_timeout = std::chrono::milliseconds(60);
  p.max_attempts = 3;
  return p;
}

/// Bytes of every replica of subfile i, read directly from its storage.
Buffer replica_image(Clusterfile& fs, std::size_t subfile, std::size_t r) {
  SubfileStorage& st = fs.replica_storage(subfile, r);
  Buffer img(static_cast<std::size_t>(st.size()));
  if (!img.empty()) st.read(0, img);
  return img;
}

TEST(Replication, WritesFanOutToEveryReplica) {
  Clusterfile fs(replicated_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 81);
  const auto t = client.write(vid, 0, 63, data);
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE(t.rel.all_zero());  // healthy fan-out costs no reliability work
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    ASSERT_EQ(fs.replica_nodes(i).size(), 2u);
    const Buffer primary = replica_image(fs, i, 0);
    EXPECT_FALSE(primary.empty());
    EXPECT_EQ(primary, replica_image(fs, i, 1)) << "subfile " << i;
  }
  // Both replicas agree on the write epoch too.
  ScrubReport rep = fs.scrub();
  EXPECT_TRUE(rep.clean());
  EXPECT_GT(rep.blocks_checked, 0);
}

TEST(Replication, ReadFailsOverToBackupWhenPrimaryDies) {
  Clusterfile fs(replicated_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 82);
  client.write(vid, 0, 63, data);

  fs.crash_server(0);  // node 4: primary of subfile 0, backup of subfile 3
  Buffer back(64);
  const auto t = client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);  // degraded, not wrong
  EXPECT_TRUE(t.ok());    // degraded is still a successful access
  EXPECT_GE(t.rel.failovers, 1);
  EXPECT_GE(t.rel.degraded, 1);
  EXPECT_EQ(t.rel.failures, 0);
  int degraded = 0;
  for (const auto& s : t.per_subfile) {
    if (s.status != AccessStatus::kDegraded) continue;
    ++degraded;
    if (s.failovers > 0) {
      // The access was answered by the backup, and says so.
      EXPECT_EQ(s.subfile, 0);
      EXPECT_EQ(s.io_node, fs.replica_nodes(0)[1]);
    }
  }
  EXPECT_GE(degraded, 1);

  // Writes degrade too: the live replica applies them, the dead one is
  // counted, and nothing throws.
  const Buffer data2 = make_pattern_buffer(64, 83);
  const auto w = client.write(vid, 0, 63, data2);
  EXPECT_EQ(w.rel.failures, 0);
  EXPECT_GE(w.rel.degraded, 1);
  EXPECT_GE(w.rel.replica_failures, 1);
  // Every replica the write gave up on owes its subfile to scrub: node 4
  // holds subfile 0's primary and subfile 3's backup.
  std::vector<int> debt = client.take_scrub_debt();
  std::sort(debt.begin(), debt.end());
  EXPECT_EQ(debt, (std::vector<int>{0, 3}));
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data2);
}

TEST(Replication, CrashResyncThenScrubIsClean) {
  Clusterfile fs(replicated_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 84));

  fs.crash_server(0);
  // Writes while node 4 is down: its replicas of subfiles 0 and 3 miss them.
  const Buffer data = make_pattern_buffer(64, 85);
  const auto w = client.write(vid, 0, 63, data);
  EXPECT_EQ(w.rel.failures, 0);
  EXPECT_GE(w.rel.degraded, 1);

  const ResyncStats rs = fs.restart_server(0);
  EXPECT_EQ(rs.failures, 0);
  EXPECT_GT(rs.subfiles, 0);
  EXPECT_GT(rs.bytes, 0);  // the missed ranges actually moved

  // Re-sync already converged the replicas; scrub finds nothing to repair.
  const ScrubReport rep = fs.scrub();
  EXPECT_TRUE(rep.clean()) << "divergent=" << rep.divergent_blocks
                           << " unreadable=" << rep.unreadable_blocks
                           << " unrepaired=" << rep.unrepaired_blocks;
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;

  // And the file still reads back correctly from the healed cluster.
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// The peer a restarted replica pulls from first answers kCorruptData: every
// read of its copy rots a bit, so its sync reply never leaves the peer. The
// re-sync moves on to the next peer and still converges.
TEST(Replication, ResyncPastARottenPeerConverges) {
  ClusterConfig cfg = replicated_config(3);
  // Subfile 0 lives on nodes 4, 5 and 6; replica 1 (node 5) rots.
  StorageFaultRule rot;
  rot.subfile = 0;
  rot.replica = 1;
  rot.op = StorageFaultRule::Op::kRead;
  rot.bit_rot = 1.0;
  cfg.storage_faults = StorageFaultPlan{};
  cfg.storage_faults->rules.push_back(rot);
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  // The view is subfile 0's whole row block, so every write supplies its
  // whole integrity block and no write reads the rotting copy.
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 86));

  fs.crash_server(0);  // node 4 misses the next write
  const Buffer data = make_pattern_buffer(64, 87);
  EXPECT_EQ(client.write(vid, 0, 63, data).rel.failures, 0);
  // Nodes 5 and 6 tie on epoch, so node 5 (placement order) is tried first.
  ASSERT_EQ(fs.replica_storage(0, 1).epoch(), fs.replica_storage(0, 2).epoch());

  const ResyncStats rs = fs.restart_server(0);
  EXPECT_EQ(rs.failures, 0);
  EXPECT_GT(rs.bytes, 0);
  EXPECT_GE(fs.server_reliability().errors_sent, 1);  // node 5's kCorruptData
  EXPECT_EQ(replica_image(fs, 0, 0), data);
  EXPECT_EQ(replica_image(fs, 0, 2), data);
  Buffer back(64);
  EXPECT_TRUE(client.read(vid, 0, 63, back).ok());
  EXPECT_EQ(back, data);
}

// The replicated side: restarting a primary, then a node that is also a
// backup, under duplicated error replies costs no error reply, failover or
// abandoned replica — a read must not move to a backup for nothing, and a
// write that returns ok() must not leave a live restarted replica behind.
TEST(Replication, RestartUnderDuplicatedErrorsLeavesNoReplicaBehind) {
  Clusterfile fs(replicated_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer before = make_pattern_buffer(64, 86);
  client.write(vid, 0, 63, before);
  fs.install_faults(duplicate_errors());

  fs.crash_server(0);
  fs.restart_server(0);  // node 4: primary of subfile 0
  Buffer back(64);
  const auto r = client.read(vid, 0, 63, back);
  EXPECT_EQ(back, before);
  EXPECT_TRUE(r.rel.all_zero());

  fs.crash_server(1);
  fs.restart_server(1);  // node 5: primary of subfile 1, backup of subfile 0
  const Buffer data = make_pattern_buffer(64, 87);
  const auto w = client.write(vid, 0, 63, data);
  EXPECT_TRUE(w.ok());
  EXPECT_TRUE(w.rel.all_zero());
  EXPECT_TRUE(client.take_scrub_debt().empty());
  EXPECT_EQ(fs.server_reliability().errors_sent, 0);

  fs.install_faults(FaultPlan{});
  EXPECT_TRUE(client.read(vid, 0, 63, back).ok());
  EXPECT_EQ(back, data);
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;
}

// Replication soak: 1% drop on the wire plus one permanently dead replica
// node. Every access must converge degraded-but-correct — byte-identical
// surviving replicas, zero failures, failover counters lit.
TEST(FaultSoak, ReplicatedClusterSurvivesDropsAndADeadReplica) {
  const PartitioningPattern physical =
      pattern2d(Partition2D::kRowBlocks, 16, 4);

  // Fault-free replicated reference.
  std::vector<Buffer> reference;
  {
    Clusterfile fs(replicated_config(), physical);
    reference = run_workload(fs, /*faulty=*/false);
    ASSERT_TRUE(fs.client_reliability().all_zero());
  }

  std::vector<std::uint64_t> seeds = {11, 12};
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seeds.push_back(std::strtoull(env, nullptr, 10));

  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Clusterfile fs(replicated_config(), physical);
    FaultPlan plan;
    plan.seed = seed;
    plan.rules.push_back(make_rule(0.01));
    fs.install_faults(plan);
    fs.crash_server(1);  // node 5 stays dead for the whole workload

    // The per-access budget is shared across the whole replica chain, and a
    // first-timeout failover hands an attempt to the dead backup whenever a
    // 1% drop eats a live node's reply. Five attempts leave the live node at
    // least three tries even after the dead replica burns its share, pushing
    // the loss probability back to ~drop^3 = 1e-6 per access.
    RetryPolicy fast = fast_policy();
    fast.max_attempts = 5;
    const std::vector<Buffer> images =
        run_workload(fs, /*faulty=*/true, nullptr, &fast);
    ASSERT_EQ(images.size(), reference.size());
    // Subfile 1's primary is the dead node: its image must come from the
    // surviving backup. Every other primary matches directly.
    for (std::size_t i = 0; i < images.size(); ++i) {
      if (fs.replica_nodes(i)[0] == 5) {
        EXPECT_EQ(replica_image(fs, i, 1), reference[i]) << "subfile " << i;
      } else {
        EXPECT_EQ(images[i], reference[i]) << "subfile " << i;
      }
    }
    const ReliabilityCounters cli = fs.client_reliability();
    EXPECT_EQ(cli.failures, 0);
    EXPECT_GT(cli.failovers, 0);   // reads rerouted around the dead primary
    EXPECT_GT(cli.degraded, 0);    // accesses completed on a partial set
    EXPECT_GT(cli.replica_failures, 0);  // the dead replica was accounted
  }
}

// Storage-fault soak: backup replicas tear writes silently; scrub must find
// every divergence via the CRC layer and repair it from the clean primary.
TEST(FaultSoak, ScrubRepairsTornBackupReplicas) {
  ClusterConfig cfg = replicated_config();
  StorageFaultPlan plan;
  plan.seed = 21;
  StorageFaultRule rule;
  rule.replica = 1;  // only backups tear; the primary stays authoritative
  rule.op = StorageFaultRule::Op::kWrite;
  rule.torn_write = 0.5;
  plan.rules.push_back(rule);
  cfg.storage_faults = plan;
  cfg.integrity_block = 64;  // small blocks so 64-byte writes span several

  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    const std::int64_t vid =
        client.set_view(views[static_cast<std::size_t>(c)], 256);
    client.write(vid, 0, 63,
                 make_pattern_buffer(64, 90 + static_cast<unsigned>(c)));
  }

  fs.disarm_storage_faults();
  const ScrubReport first = fs.scrub();
  // Torn backup blocks surface as unreadable (their CRC no longer matches)
  // and every one is repaired from the primary.
  EXPECT_GT(first.unreadable_blocks, 0) << "the tear rate injected nothing";
  EXPECT_EQ(first.repaired_blocks,
            first.unreadable_blocks + first.divergent_blocks);
  EXPECT_EQ(first.unrepaired_blocks, 0);

  const ScrubReport second = fs.scrub();
  EXPECT_TRUE(second.clean());
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;
}

// Without replication there is no backup to repair from, but corruption is
// still *detected*: the read errs (kCorruptData) instead of silently
// returning rotten bytes, and allow-partial zero-fills the lost ranges.
TEST(Replication, SingleCopyCorruptionIsDetectedNeverSilent) {
  ClusterConfig cfg;  // replication = 1
  StorageFaultPlan plan;
  plan.seed = 31;
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kRead;
  rule.bit_rot = 1.0;
  plan.rules.push_back(rule);
  cfg.storage_faults = plan;
  cfg.integrity_block = 64;

  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  // View = the physical layout, so the write is one contiguous run per
  // subfile covering its block whole: the integrity layer sums it straight
  // from the payload (a scatter write would read the old block bytes
  // through the rotting disk and poison the block; here the read path alone
  // must catch the rot, on the bytes it returns).
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 95);
  client.write(vid, 0, 63, data);

  Buffer back(64);
  EXPECT_THROW(client.read(vid, 0, 63, back), std::runtime_error);

  // allow-partial: the failed subfiles zero-fill their destination ranges —
  // no byte of the output is left uninitialized garbage.
  client.set_allow_partial(true);
  Buffer sentinel(64, std::byte{0xAB});
  const auto t = client.read(vid, 0, 63, sentinel);
  EXPECT_FALSE(t.ok());
  int failed = 0;
  for (const auto& s : t.per_subfile) {
    if (s.status != AccessStatus::kFailed) continue;
    ++failed;
    EXPECT_NE(s.error.find("CORRUPT_DATA"), std::string::npos) << s.error;
  }
  EXPECT_GT(failed, 0);
  for (std::byte b : sentinel)
    EXPECT_NE(b, std::byte{0xAB}) << "destination byte left unwritten";
}

// ---------------------------------------------------------------------------
// Bulk replicated requests: 16 KiB per access, three copies, the default
// 4 KiB integrity block. The CRC-32C work is whole blocks and 4 KiB message
// payloads, past the 256 bytes at which the fold kernel takes over from the
// crc32 instruction.
// ---------------------------------------------------------------------------

constexpr std::int64_t kBulkSide = 256;  // a 64 KiB file, 16 KiB subfiles

/// Each client writes its 16 KiB view of `views` and reads it back.
void write_and_read_bulk(Clusterfile& fs, Partition2D views) {
  const auto falls = partition2d_all(views, kBulkSide, kBulkSide, 4);
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    auto& client = fs.client(c);
    client.set_retry_policy(soak_policy());
    const std::int64_t vid = client.set_view(
        falls[static_cast<std::size_t>(c)], kBulkSide * kBulkSide);
    const Buffer data =
        make_pattern_buffer(16 * 1024, 60 + static_cast<unsigned>(c));
    const std::int64_t last = static_cast<std::int64_t>(data.size()) - 1;
    EXPECT_TRUE(client.write(vid, 0, last, data).ok());
    Buffer back(data.size());
    EXPECT_TRUE(client.read(vid, 0, last, back).ok());
    EXPECT_EQ(back, data);
  }
}

/// The second of two scrubs is clean and every copy matches the primary.
void expect_scrub_converges(Clusterfile& fs, const ScrubReport& first) {
  EXPECT_EQ(first.unrepaired_blocks, 0);
  EXPECT_EQ(first.repaired_blocks,
            first.unreadable_blocks + first.divergent_blocks);
  const ScrubReport second = fs.scrub();
  EXPECT_TRUE(second.clean());
  EXPECT_GT(second.blocks_checked, 0);
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    for (std::size_t r = 1; r < 3; ++r)
      EXPECT_EQ(replica_image(fs, i, r), replica_image(fs, i, 0))
          << "subfile " << i << " replica " << r;
}

// The corrupt wire mix on column-block views over row-block subfiles: each
// request scatters 4 KiB into every subfile, so message checksums cover
// 4 KiB payloads and the integrity layer re-sums partially written blocks.
// Every flipped message is caught; nothing corrupt reaches storage.
TEST(FaultSoak, CorruptWireOnBulkReplicatedRequests) {
  Clusterfile fs(replicated_config(3),
                 pattern2d(Partition2D::kRowBlocks, kBulkSide, 4));
  FaultPlan plan;
  plan.seed = 61;
  plan.rules.push_back(make_rule(0, 0, 0.10));  // kMixes' "corrupt"
  fs.install_faults(plan);
  write_and_read_bulk(fs, Partition2D::kColumnBlocks);

  const auto inj = fs.faults().counters();
  const ReliabilityCounters cli = fs.client_reliability();
  const ReliabilityCounters srv = fs.server_reliability();
  EXPECT_GT(inj.corrupted, 0);
  EXPECT_GE(cli.corruptions_detected + srv.corruptions_detected,
            inj.corrupted);
  EXPECT_EQ(cli.failures, 0);

  fs.install_faults(FaultPlan{});
  const ScrubReport first = fs.scrub();
  EXPECT_TRUE(first.clean());
  expect_scrub_converges(fs, first);
}

// Storage bit rot on primary reads, with views matching the subfiles: a
// write supplies whole blocks (the write path reads nothing), and each read
// of a primary flips a stored bit half the time. The block checksum turns
// the flip into CORRUPT_DATA, the read fails over to a backup, and scrub
// rewrites the rotten blocks from the backups.
TEST(FaultSoak, StorageBitRotOnBulkReplicatedReads) {
  ClusterConfig cfg = replicated_config(3);
  StorageFaultPlan plan;
  plan.seed = 62;
  StorageFaultRule rule;
  rule.replica = 0;
  rule.op = StorageFaultRule::Op::kRead;
  rule.bit_rot = 0.5;
  plan.rules.push_back(rule);
  cfg.storage_faults = plan;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, kBulkSide, 4));
  write_and_read_bulk(fs, Partition2D::kRowBlocks);

  const ReliabilityCounters cli = fs.client_reliability();
  EXPECT_EQ(cli.failures, 0);
  EXPECT_GT(cli.failovers, 0);
  EXPECT_GT(fs.server_reliability().errors_sent, 0);

  fs.disarm_storage_faults();
  const ScrubReport first = fs.scrub();
  EXPECT_GT(first.unreadable_blocks, 0);
  expect_scrub_converges(fs, first);
}

// ---------------------------------------------------------------------------
// Quorum writes (W-of-N acks, background stragglers)
// ---------------------------------------------------------------------------

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// W=1 with a dead replica: the write returns as soon as one live replica
// per target acks — it never waits out the dead node's retry schedule. The
// dead node's requests ride the straggler set, exhaust it, and land in the
// quorum_short / scrub-debt accounting; restart + re-sync + scrub converge
// the replicas afterwards.
TEST(Quorum, WriteQuorumOneCompletesWithDeadBackupAndScrubConverges) {
  ClusterConfig cfg = replicated_config();
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 96));
  client.drain_stragglers();  // seed write fully replicated before the crash
  ASSERT_TRUE(client.reliability().all_zero());

  fs.crash_server(1);  // node 5: primary of subfile 1, backup of subfile 0

  const Buffer data = make_pattern_buffer(64, 97);
  const auto start = std::chrono::steady_clock::now();
  const auto w = client.write(vid, 0, 63, data);
  const double ms = elapsed_ms(start);
  EXPECT_TRUE(w.ok());
  EXPECT_EQ(w.rel.failures, 0);
  // The full fan-out would wait the dead node's whole schedule
  // (20+40+60 = 120ms); at W=1 the live acks complete the write.
  EXPECT_LT(ms, 100.0) << "quorum write waited on the dead replica";
  EXPECT_GE(w.stragglers, 2);  // at least both node-5 requests demoted

  client.drain_stragglers();
  EXPECT_EQ(client.stragglers_pending(), 0u);
  EXPECT_GE(client.stragglers_abandoned(), 2);
  EXPECT_EQ(client.reliability().quorum_short, 2);  // one per short group
  EXPECT_GE(client.reliability().replica_failures, 2);
  EXPECT_EQ(client.reliability().failures, 0);

  // Abandonment left a repair debt naming exactly the touched subfiles.
  const std::vector<int> debt = client.take_scrub_debt();
  EXPECT_NE(std::find(debt.begin(), debt.end(), 0), debt.end());
  EXPECT_NE(std::find(debt.begin(), debt.end(), 1), debt.end());
  EXPECT_TRUE(client.take_scrub_debt().empty());  // take() drains

  // Repair path: restart pulls the missed writes, scrub finds nothing left.
  const ResyncStats rs = fs.restart_server(1);
  EXPECT_EQ(rs.failures, 0);
  EXPECT_GT(rs.subfiles, 0);
  const ScrubReport rep = fs.scrub();
  EXPECT_TRUE(rep.clean()) << "divergent=" << rep.divergent_blocks
                           << " unreadable=" << rep.unreadable_blocks;
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// A replica that applied the write but whose acks never arrive: the
// straggler retransmits hit the server's dedup cache, so the write is
// applied exactly once (equal epochs prove it) even though the client
// eventually abandons the straggler as unreachable.
TEST(Quorum, LateStragglerAckIsDedupedNotDoubleApplied) {
  ClusterConfig cfg = replicated_config();
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 98));
  client.drain_stragglers();

  // Node 5 keeps serving requests but every data ack it sends is lost.
  FaultPlan plan;
  plan.seed = 41;
  FaultRule mute_acks;
  mute_acks.src = 5;
  mute_acks.kind = MsgKind::kAck;
  mute_acks.drop = 1.0;
  plan.rules.push_back(mute_acks);
  fs.install_faults(plan);

  const Buffer data = make_pattern_buffer(64, 99);
  const auto w = client.write(vid, 0, 63, data);
  EXPECT_TRUE(w.ok());  // quorum came from the replicas whose acks survive
  client.drain_stragglers();
  EXPECT_GE(client.stragglers_abandoned(), 2);  // node 5 looked unreachable
  EXPECT_GE(client.reliability().quorum_short, 2);
  EXPECT_EQ(client.reliability().failures, 0);
  // Every straggler retransmit was replayed from the dedup cache, not
  // re-applied: node 5 saw each write exactly once.
  EXPECT_GE(fs.server_reliability().duplicates_suppressed, 1);
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    EXPECT_EQ(fs.replica_storage(i, 0).epoch(), fs.replica_storage(i, 1).epoch())
        << "subfile " << i;
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;
  }

  fs.install_faults(FaultPlan{});
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// The retry budget is per access, not per replica: a target whose entire
// replica chain is dead fails after ONE backoff schedule (20+40+60 =
// 120ms with fast_policy), not one schedule per replica tried.
TEST(Quorum, GroupSharesOneDeadlineAcrossReplicas) {
  Clusterfile fs(replicated_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  client.set_allow_partial(true);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 100);
  client.write(vid, 0, 63, data);

  // Subfile 0's whole replica set (nodes 4 and 5) goes dark.
  fs.crash_server(0);
  fs.crash_server(1);

  Buffer back(64, std::byte{0xCD});
  const auto start = std::chrono::steady_clock::now();
  const auto t = client.read(vid, 0, 63, back);
  const double ms = elapsed_ms(start);
  // One shared schedule: >= the full 120ms budget (the chain was really
  // tried), and well under the 240ms a per-replica schedule would burn.
  EXPECT_GE(ms, 100.0);
  EXPECT_LT(ms, 230.0) << "dead replica chain burned more than one schedule";

  const SubfileAccess* dead = nullptr;
  for (const auto& s : t.per_subfile)
    if (s.subfile == 0) dead = &s;
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->status, AccessStatus::kFailed);
  EXPECT_TRUE(dead->timed_out);
  EXPECT_EQ(dead->attempts, 3);   // the policy's attempts, across the chain
  EXPECT_GE(dead->failovers, 1);  // ... and the backup really was tried
  // Subfile 1 (primary dead, backup alive) still degrades over normally.
  EXPECT_GE(t.rel.degraded, 1);
  EXPECT_GE(t.rel.failovers, 1);
}

// W-of-N writes can leave a *live* peer behind as well, so a restarted
// replica must re-sync from the highest-epoch peer rather than the first
// live one in placement order — otherwise it adopts the lagging peer's
// state and the next read returns pre-write bytes while reporting ok().
TEST(Quorum, RestartResyncsFromTheHighestEpochPeer) {
  ClusterConfig cfg = replicated_config(/*replication=*/3);
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  // A row-block view congruent with the physical partition: the writes
  // touch subfile 0 only, whose replicas live on nodes 4, 5 and 6.
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 101));
  client.drain_stragglers();
  ASSERT_EQ(fs.replica_nodes(0), (std::vector<int>{4, 5, 6}));

  fs.crash_server(0);      // node 4 misses the next write ...
  fs.faults().isolate(5);  // ... and so does node 5: only node 6 applies it
  const Buffer data = make_pattern_buffer(64, 102);
  ASSERT_TRUE(client.write(vid, 0, 63, data).ok());
  client.drain_stragglers();  // node 5's straggler is abandoned
  fs.faults().restore(5);

  const ResyncStats rs = fs.restart_server(0);
  EXPECT_EQ(rs.failures, 0);
  EXPECT_GT(rs.bytes, 0);
  EXPECT_EQ(fs.replica_storage(0, 0).epoch(), fs.replica_storage(0, 2).epoch());
  EXPECT_EQ(replica_image(fs, 0, 0), replica_image(fs, 0, 2));
  Buffer back(64);
  const auto t = client.read(vid, 0, 63, back);
  EXPECT_TRUE(t.ok());
  EXPECT_EQ(back, data);
}

// The same authority rule holds for a relayout, which rebuilds every
// subfile from its current bytes: under W-of-N writes the primary can be
// the replica that missed an acknowledged write, so the relayout must read
// the highest-epoch live replica. Otherwise the new layout is built from
// the primary's pre-write bytes.
TEST(Quorum, RelayoutReadsTheHighestEpochReplica) {
  ClusterConfig cfg = replicated_config();
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());
  // A row-block view congruent with the physical partition: the writes
  // touch subfile 0 only, whose replicas live on nodes 4 and 5.
  const auto rows = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(rows[0], 256);
  client.write(vid, 0, 63, make_pattern_buffer(64, 105));
  client.drain_stragglers();
  ASSERT_EQ(fs.replica_nodes(0), (std::vector<int>{4, 5}));

  fs.faults().isolate(4);  // the primary misses the next write
  const Buffer data = make_pattern_buffer(64, 106);
  ASSERT_TRUE(client.write(vid, 0, 63, data).ok());
  client.drain_stragglers();
  ASSERT_EQ(client.stragglers_abandoned(), 1);
  Buffer back(64);
  ASSERT_TRUE(client.read(vid, 0, 63, back).ok());  // fails over to node 5
  ASSERT_EQ(back, data);
  fs.faults().restore(4);

  fs.relayout(pattern2d(Partition2D::kColumnBlocks, 16, 4), 256);
  auto& relaid = fs.client(0);
  const std::int64_t rvid = relaid.set_view(rows[0], 256);
  Buffer after(64);
  ASSERT_TRUE(relaid.read(rvid, 0, 63, after).ok());
  EXPECT_EQ(after, data);
}

// A repair (or a rebalance) can move a subfile slot off the node a pending
// straggler is aimed at. The placement refresh at the next access drops
// that straggler: it is neither completed nor abandoned and leaves its
// group not quorum-short, because the new holder got its copy from the data
// mover.
TEST(Quorum, PlacementRefreshPurgesStragglersOfRemovedHolders) {
  ClusterConfig cfg = replicated_config();
  cfg.write_quorum = 1;
  cfg.self_heal = true;
  cfg.ring_placement = true;
  // Only remove_node declares the isolated backup dead: the probes it
  // misses must not get there first.
  cfg.heartbeat.suspect_n = 1000;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  // A row-block view congruent with the physical partition: the write
  // touches subfile 0 only.
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const int backup = fs.replica_nodes(0)[1];
  fs.faults().isolate(backup);
  const Buffer data = make_pattern_buffer(64, 104);
  ASSERT_TRUE(client.write(vid, 0, 63, data).ok());
  ASSERT_EQ(client.stragglers_pending(), 1u);

  fs.remove_node(static_cast<std::size_t>(backup - fs.compute_nodes()));
  fs.await_repairs();
  const std::vector<int> nodes = fs.replica_nodes(0);
  ASSERT_EQ(std::count(nodes.begin(), nodes.end(), backup), 0);

  Buffer back(64);
  EXPECT_TRUE(client.read(vid, 0, 63, back).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(client.stragglers_pending(), 0u);
  EXPECT_EQ(client.stragglers_completed(), 0);
  EXPECT_EQ(client.stragglers_abandoned(), 0);
  EXPECT_EQ(client.reliability().quorum_short, 0);
}

// Fault-free W<N writes must look exactly like full fan-out once drained:
// clean counters, no abandonment, byte-identical replicas.
TEST(Quorum, FaultFreeQuorumWritesLeaveCountersClean) {
  ClusterConfig cfg = replicated_config();
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 101);
  const auto t = client.write(vid, 0, 63, data);
  EXPECT_TRUE(t.ok());
  for (const auto& s : t.per_subfile)
    EXPECT_EQ(s.status, AccessStatus::kOk) << "subfile " << s.subfile;
  EXPECT_GE(t.stragglers, 1);  // the quorum really did return early
  EXPECT_TRUE(t.rel.all_zero());

  client.drain_stragglers();
  EXPECT_EQ(client.stragglers_pending(), 0u);
  EXPECT_GE(client.stragglers_completed(), t.stragglers);
  EXPECT_EQ(client.stragglers_abandoned(), 0);
  EXPECT_TRUE(client.reliability().all_zero());
  EXPECT_TRUE(client.take_scrub_debt().empty());

  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1))
        << "subfile " << i;
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// Quorum soak: W in {1, 2} at replication 2 under 1% wire drop. After a
// drain barrier every cell must be byte-identical (both replicas) to the
// fault-free full-fan-out reference, with zero failures and zero
// abandoned stragglers — the sloppy ack policy changes latency, never
// bytes.
TEST(FaultSoak, QuorumGridIsByteIdenticalAfterDrain) {
  const PartitioningPattern physical =
      pattern2d(Partition2D::kRowBlocks, 16, 4);

  std::vector<Buffer> reference;
  {
    Clusterfile fs(replicated_config(), physical);
    reference = run_workload(fs, /*faulty=*/false);
    ASSERT_TRUE(fs.client_reliability().all_zero());
  }

  std::vector<std::uint64_t> seeds = {11, 12};
  if (const char* env = std::getenv("PFM_FAULT_SEED"); env && *env)
    seeds.push_back(std::strtoull(env, nullptr, 10));

  for (const int quorum : {1, 2}) {
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE("quorum=" + std::to_string(quorum) +
                   " seed=" + std::to_string(seed));
      ClusterConfig cfg = replicated_config();
      cfg.write_quorum = quorum;
      Clusterfile fs(cfg, physical);
      FaultPlan plan;
      plan.seed = seed;
      plan.rules.push_back(make_rule(0.01));
      fs.install_faults(plan);

      const auto views =
          partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
      for (int c = 0; c < 4; ++c) {
        auto& client = fs.client(c);
        client.set_retry_policy(soak_policy());
        const std::int64_t vid =
            client.set_view(views[static_cast<std::size_t>(c)], 256);
        const Buffer data =
            make_pattern_buffer(64, 50 + static_cast<unsigned>(c));
        client.write(vid, 0, 63, data);
        client.drain_stragglers();  // barrier: replicas settled before read
        Buffer back(64);
        client.read(vid, 0, 63, back);
        EXPECT_EQ(back, data) << "read-back mismatch on client " << c;
      }

      fs.drain_stragglers();
      EXPECT_EQ(fs.client_reliability().failures, 0);
      EXPECT_EQ(fs.stragglers_abandoned(), 0);
      if (quorum == 1) {
        EXPECT_GT(fs.stragglers_completed(), 0);
      }
      for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
        EXPECT_EQ(replica_image(fs, i, 0), reference[i]) << "subfile " << i;
        EXPECT_EQ(replica_image(fs, i, 1), reference[i]) << "subfile " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Self-healing: heartbeat failure detector + repair planner/scheduler
// ---------------------------------------------------------------------------

ClusterConfig self_heal_config() {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.self_heal = true;
  // Generous windows so a loaded CI machine cannot fake a missed pong.
  cfg.heartbeat.interval_ms = 30;
  cfg.heartbeat.timeout_ms = 20;
  cfg.heartbeat.suspect_n = 3;
  return cfg;
}

// A node whose link flaps (every other probe lost) oscillates between
// alive and suspect but must never be falsely declared dead: a single pong
// inside the suspicion window resets the miss counter.
TEST(SelfHeal, FlappingNodeNeverFalselyDeclaredDead) {
  Network net(2, NetParams{});
  std::atomic<bool> stop{false};
  std::thread responder([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto m = net.inbox(1).receive_for(std::chrono::milliseconds(20));
      if (!m.has_value()) continue;
      if (m->kind == MsgKind::kShutdown) break;
      if (m->kind != MsgKind::kPing) continue;
      if (m->v % 2 != 0) continue;  // the flap: drop every odd probe
      Message pong;
      pong.kind = MsgKind::kPong;
      pong.dst_node = 0;
      pong.v = m->v;
      net.send(1, std::move(pong));
    }
  });
  std::atomic<int> deaths{0};
  FailureDetector::Options opts;
  opts.interval_ms = 20;
  opts.timeout_ms = 10;
  opts.suspect_n = 4;  // > 1 consecutive losses the flap can produce
  FailureDetector det(net, 0, {1}, opts, [&](int) { ++deaths; });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  det.stop();
  stop.store(true, std::memory_order_release);
  responder.join();

  EXPECT_EQ(deaths.load(), 0);
  EXPECT_NE(det.health(1), NodeHealth::kDead);
  const FailureDetector::Counters c = det.counters();
  EXPECT_GT(c.pings_sent, 10);
  EXPECT_GT(c.pongs_received, 4);
  EXPECT_GT(c.suspect_events, 0);  // the flap is visible, just never fatal
  EXPECT_EQ(c.dead_declarations, 0);
}

// Fault-free cluster: probes flow, nothing is ever suspected dead, no
// repair runs, and the placement never moves.
TEST(SelfHeal, DetectorStaysQuietOnAHealthyCluster) {
  Clusterfile fs(self_heal_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 91);
  client.write(vid, 0, 63, data);
  // Several probe rounds elapse under (idle) foreground state.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  Buffer back(64);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);

  ASSERT_NE(fs.detector(), nullptr);
  const FailureDetector::Counters c = fs.detector()->counters();
  EXPECT_GT(c.pings_sent, 0);
  EXPECT_GT(c.pongs_received, 0);
  EXPECT_EQ(c.dead_declarations, 0);
  EXPECT_TRUE(fs.repair_reliability().all_zero());
  EXPECT_EQ(fs.placement_epoch(), 0);
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
}

// Operator override: mark_dead plans and executes repairs even though the
// node still answers probes; mark_alive lets it rejoin. The client keeps
// reading correct bytes throughout, re-aiming off the placement epoch.
TEST(SelfHeal, MarkDeadRepairsThenMarkAliveRejoins) {
  Clusterfile fs(self_heal_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(soak_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 92);
  client.write(vid, 0, 63, data);

  fs.detector()->mark_dead(4);  // hosts subfile 0 (primary) and 3 (backup)
  EXPECT_TRUE(fs.detector()->is_dead(4));
  fs.await_repairs();

  const ReliabilityCounters rc = fs.repair_reliability();
  EXPECT_EQ(rc.repairs_started, 2);
  EXPECT_EQ(rc.repairs_completed, 2);
  EXPECT_EQ(rc.repairs_failed, 0);
  EXPECT_GT(rc.bytes_re_replicated, 0);
  EXPECT_GT(fs.placement_epoch(), 0);
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    EXPECT_EQ(nodes.size(), 2u);
    EXPECT_EQ(std::count(nodes.begin(), nodes.end(), 4), 0)
        << "subfile " << i << " still placed on the dead node";
  }
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());

  // Reads go through the repaired placement, byte-identical.
  Buffer back(64);
  const auto t = client.read(vid, 0, 63, back);
  EXPECT_TRUE(t.ok());
  EXPECT_EQ(back, data);
  // The re-replicated pairs agree block by block.
  EXPECT_TRUE(fs.scrub().clean());

  // Rejoin: the override lifts and probing resumes; the node's stale
  // copies are in no placement, so writes and reads stay correct.
  fs.detector()->mark_alive(4);
  EXPECT_EQ(fs.detector()->health(4), NodeHealth::kAlive);
  const Buffer data2 = make_pattern_buffer(64, 93);
  client.write(vid, 0, 63, data2);
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data2);
  EXPECT_TRUE(fs.scrub().clean());
}

// End-to-end crash: missed pongs cross the suspicion threshold, the dead
// declaration fires the repair hook, and the node's subfiles come back to
// full replication on surviving nodes — no operator involved.
TEST(SelfHeal, CrashedNodeIsAutoDetectedAndRepaired) {
  Clusterfile fs(self_heal_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(soak_policy());
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  const Buffer data = make_pattern_buffer(64, 94);
  client.write(vid, 0, 63, data);

  fs.crash_server(1);  // node 5: subfile 1 primary, subfile 0 backup
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fs.repair_reliability().repairs_completed < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fs.await_repairs();

  EXPECT_TRUE(fs.detector()->is_dead(5));
  EXPECT_GE(fs.detector()->counters().dead_declarations, 1);
  const ReliabilityCounters rc = fs.repair_reliability();
  EXPECT_EQ(rc.repairs_completed, 2);
  EXPECT_EQ(rc.repairs_failed, 0);
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    EXPECT_EQ(std::count(nodes.begin(), nodes.end(), 5), 0)
        << "subfile " << i;
  }
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());

  Buffer back(64);
  const auto t = client.read(vid, 0, 63, back);
  EXPECT_TRUE(t.ok());
  EXPECT_EQ(back, data);

  // Rejoin over surviving storage: every subfile this node still hosts was
  // repaired away, so the re-sync has nothing to pull, and probing revives
  // the node automatically.
  const ResyncStats rs = fs.restart_server(1);
  EXPECT_EQ(rs.failures, 0);
  EXPECT_EQ(rs.subfiles, 0);
  const auto revive_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fs.detector()->is_dead(5) &&
         std::chrono::steady_clock::now() < revive_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(fs.detector()->is_dead(5));
  client.read(vid, 0, 63, back);
  EXPECT_EQ(back, data);
}

// ---------------------------------------------------------------------------
// Elastic membership: placement ring, live rebalance, decommission
// ---------------------------------------------------------------------------

ClusterConfig rebalance_config(int spares = 1) {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.self_heal = true;
  cfg.heartbeat.interval_ms = 30;
  cfg.heartbeat.timeout_ms = 20;
  cfg.heartbeat.suspect_n = 3;
  cfg.ring_placement = true;
  cfg.max_io_nodes = cfg.io_nodes + spares;
  // Small chunks: every subfile migration takes several pulls, so crash and
  // drop windows genuinely interleave with the bulk copy.
  cfg.rebalance_chunk = 16;
  cfg.repair_retry = soak_policy();
  return cfg;
}

/// Writes one pattern per client over the column-block views and returns
/// (vid, data) pairs for later byte-identical read-backs.
struct RebalanceWorkload {
  std::vector<std::int64_t> vids;
  std::vector<Buffer> data;
};

RebalanceWorkload write_workload(Clusterfile& fs) {
  const auto views = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  RebalanceWorkload w;
  for (int c = 0; c < 4; ++c) {
    auto& client = fs.client(c);
    client.set_retry_policy(soak_policy());
    w.vids.push_back(client.set_view(views[static_cast<std::size_t>(c)], 256));
    w.data.push_back(make_pattern_buffer(64, 120 + static_cast<unsigned>(c)));
    client.write(w.vids.back(), 0, 63, w.data.back());
  }
  return w;
}

void expect_byte_identical(Clusterfile& fs, const RebalanceWorkload& w,
                           const char* where) {
  for (int c = 0; c < 4; ++c) {
    Buffer back(64);
    const auto t = fs.client(c).read(w.vids[static_cast<std::size_t>(c)], 0,
                                     63, back);
    EXPECT_TRUE(t.ok()) << where << ": client " << c;
    EXPECT_EQ(back, w.data[static_cast<std::size_t>(c)])
        << where << ": client " << c;
  }
}

// Growing the cluster under a lossy wire: the new member absorbs its ring
// share through chunked, idempotent migrations while reads stay
// byte-identical, and the placement ends up referencing the new node.
TEST(Rebalance, AddNodeUnderDropStaysByteIdentical) {
  Clusterfile fs(rebalance_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  FaultPlan plan;
  plan.seed = 20260808;
  plan.rules.push_back(make_rule(0.01));
  fs.install_faults(plan);

  const int idx = fs.add_io_node();
  EXPECT_EQ(idx, 4);
  EXPECT_EQ(fs.ring_epoch(), 1);
  fs.await_rebalance();

  const RebalanceCounters rc = fs.rebalance_counters();
  EXPECT_GE(rc.migrations_completed, 1);
  EXPECT_EQ(rc.migrations_completed, rc.migrations_started);
  EXPECT_GT(rc.bytes_migrated, 0);

  // The new node actually owns part of the placement now.
  int on_new = 0;
  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    on_new += static_cast<int>(
        std::count(nodes.begin(), nodes.end(), fs.compute_nodes() + idx));
  }
  EXPECT_GE(on_new, 1);

  expect_byte_identical(fs, w, "post-add");
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
  // No repair ran: growth is a rebalance, not a failure.
  EXPECT_TRUE(fs.repair_reliability().all_zero());
  fs.install_faults(FaultPlan{});
  EXPECT_TRUE(fs.scrub().clean());
}

// Graceful shrink under the same lossy wire: every copy drains off the
// node, the node retires, and reads never see a wrong byte.
TEST(Rebalance, DecommissionUnderDropStaysByteIdentical) {
  Clusterfile fs(rebalance_config(/*spares=*/0),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  FaultPlan plan;
  plan.seed = 20260809;
  plan.rules.push_back(make_rule(0.01));
  fs.install_faults(plan);

  const int victim = fs.compute_nodes() + 1;
  fs.decommission_node(1);
  EXPECT_EQ(fs.ring_epoch(), 1);

  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    EXPECT_EQ(std::count(nodes.begin(), nodes.end(), victim), 0)
        << "subfile " << i << " still placed on the decommissioned node";
    EXPECT_EQ(nodes.size(), 2u) << "subfile " << i;
  }
  const std::vector<int> serving = fs.serving_io_indices();
  EXPECT_EQ(std::count(serving.begin(), serving.end(), 1), 0);

  expect_byte_identical(fs, w, "post-decommission");
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
  fs.install_faults(FaultPlan{});
  EXPECT_TRUE(fs.scrub().clean());
}

// Destination lost mid-migration: the new member is unreachable while the
// first migration wave runs (the dead-machine experience — pulls time
// out), and the add converges anyway once the node comes back, through
// await_rebalance's re-plan. Idempotence keeps completed moves from
// repeating.
TEST(Rebalance, DestinationCrashMidMigrationResumesToConvergence) {
  Clusterfile fs(rebalance_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  const int new_node = fs.compute_nodes() + 4;
  fs.faults().isolate(new_node);  // the destination is dark from the start
  const int idx = fs.add_io_node();
  ASSERT_EQ(idx, 4);
  fs.await_rebalance();
  // At least one migration died against the dark destination (counted,
  // terminal in the scheduler), and the placement kept serving without it.
  EXPECT_GE(fs.rebalance_counters().migrations_failed, 1);
  expect_byte_identical(fs, w, "destination dark");

  // The node restarts: re-plan from current placement and converge. The
  // detector revives the node on its next successful probe round, so poll —
  // a single await_rebalance can race the revival and fail all its rounds.
  fs.crash_server(static_cast<std::size_t>(idx));
  fs.restart_server(static_cast<std::size_t>(idx));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  int on_new = 0;
  for (;;) {
    fs.await_rebalance();
    on_new = 0;
    for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
      const std::vector<int> nodes = fs.replica_nodes(i);
      on_new += static_cast<int>(
          std::count(nodes.begin(), nodes.end(), new_node));
    }
    if (on_new >= 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "rebalance never placed anything on the restarted node";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(on_new, 1);
  expect_byte_identical(fs, w, "post-resume");
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
  EXPECT_TRUE(fs.scrub().clean());
}

// Source lost mid-drain: the draining node crashes before its copies are
// off. Migration falls over to the surviving replica as source (and the
// dead declaration hands anything left to the self-heal repair path), so
// the decommission still converges and retires the node.
TEST(Rebalance, SourceCrashMidDrainFallsBackAndConverges) {
  Clusterfile fs(rebalance_config(/*spares=*/0),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  const int victim = fs.compute_nodes() + 2;
  fs.crash_server(2);  // the future decommission target dies first
  fs.decommission_node(2);

  for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
    const std::vector<int> nodes = fs.replica_nodes(i);
    EXPECT_EQ(std::count(nodes.begin(), nodes.end(), victim), 0)
        << "subfile " << i;
  }
  const std::vector<int> serving = fs.serving_io_indices();
  EXPECT_EQ(std::count(serving.begin(), serving.end(), 2), 0);
  fs.await_repairs();
  expect_byte_identical(fs, w, "post-drain");
  EXPECT_TRUE(fs.under_replicated_subfiles().empty());
  EXPECT_TRUE(fs.scrub().clean());
}

// scrub() walks replica storage directly, so it must wait out every queued
// background copy — migrations as well as repairs. A scrub issued right
// after add_io_node() used to return while the migration workers were still
// filling and catching up the new copies.
TEST(Rebalance, ScrubWaitsForQueuedMigrations) {
  Clusterfile fs(rebalance_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  fs.add_io_node();
  const ScrubReport rep = fs.scrub();
  EXPECT_TRUE(rep.clean()) << "divergent=" << rep.divergent_blocks
                           << " unreadable=" << rep.unreadable_blocks
                           << " unrepaired=" << rep.unrepaired_blocks;
  const std::int64_t completed = fs.rebalance_counters().migrations_completed;
  EXPECT_GE(completed, 1);
  // Nothing was left for await_rebalance: every migration had landed.
  fs.await_rebalance();
  EXPECT_EQ(fs.rebalance_counters().migrations_completed, completed);
  expect_byte_identical(fs, w, "post-scrub");
}

// The fault-free control cell: a grow plus a shrink with a clean wire must
// leave every failure counter at zero — no repairs, no quorum shortfalls,
// no timeouts. Rebalancing is not allowed to look like a failure.
TEST(Rebalance, FaultFreeCellsStayCounterClean) {
  Clusterfile fs(rebalance_config(),
                 pattern2d(Partition2D::kRowBlocks, 16, 8));
  const RebalanceWorkload w = write_workload(fs);

  fs.add_io_node();
  fs.await_rebalance();
  fs.decommission_node(0);
  EXPECT_EQ(fs.ring_epoch(), 2);
  expect_byte_identical(fs, w, "fault-free");

  EXPECT_TRUE(fs.repair_reliability().all_zero());
  const ReliabilityCounters cli = fs.client_reliability();
  EXPECT_EQ(cli.failures, 0);
  EXPECT_EQ(cli.quorum_short, 0);
  EXPECT_EQ(cli.timeouts, 0);
  EXPECT_EQ(cli.corruptions_detected, 0);
  const ReliabilityCounters srv = fs.server_reliability();
  EXPECT_EQ(srv.corruptions_detected, 0);
  const RebalanceCounters rc = fs.rebalance_counters();
  EXPECT_EQ(rc.migrations_failed, 0);
  EXPECT_EQ(rc.migrations_started, rc.migrations_completed);
  EXPECT_TRUE(fs.scrub().clean());
}

// A source whose write log owes more bytes than the subfile holds sends the
// whole subfile instead: a full transfer, here in eight 16-byte chunks. Each
// 128-byte subfile is written only at its two ends and then rewritten at its
// head, so a full copy moves 128 bytes where a delta would move 32.
TEST(Rebalance, MigrationStreamsAFullCopyInChunks) {
  constexpr std::int64_t kSubfile = 128;  // a 32 x 32 matrix, 8 row blocks
  Clusterfile fs(rebalance_config(), pattern2d(Partition2D::kRowBlocks, 32, 8));
  const auto whole = partition2d_all(Partition2D::kRowBlocks, 32, 32, 1);
  auto& client = fs.client(0);
  client.set_retry_policy(soak_policy());
  const std::int64_t vid = client.set_view(whole[0], 1024);
  Buffer image(1024);  // the file as written, zeros in the holes
  const auto write_at = [&](std::int64_t off, unsigned seed) {
    const Buffer piece = make_pattern_buffer(16, seed);
    EXPECT_TRUE(client.write(vid, off, off + 15, piece).ok());
    std::copy(piece.begin(), piece.end(), image.begin() + off);
  };
  for (std::int64_t s = 0; s < 8; ++s) {
    write_at(s * kSubfile, 1);
    write_at(s * kSubfile + kSubfile - 16, 2);
  }
  // 32 bytes logged, then 16 more per rewrite: eight rewrites owe 160.
  for (unsigned k = 0; k < 8; ++k)
    for (std::int64_t s = 0; s < 8; ++s) write_at(s * kSubfile, 3 + k);

  fs.add_io_node();
  fs.await_rebalance();
  const RebalanceCounters rc = fs.rebalance_counters();
  ASSERT_GE(rc.migrations_completed, 1);
  EXPECT_EQ(rc.migrations_failed, 0);
  EXPECT_EQ(rc.bytes_migrated, rc.migrations_completed * kSubfile);

  Buffer back(1024);
  EXPECT_TRUE(client.read(vid, 0, 1023, back).ok());
  EXPECT_EQ(back, image);
  for (std::size_t i = 0; i < fs.subfile_count(); ++i)
    EXPECT_EQ(replica_image(fs, i, 0), replica_image(fs, i, 1)) << "subfile " << i;
  EXPECT_TRUE(fs.scrub().clean());
}

// Clusterfile shutdown used to close the network with quorum stragglers
// still pending, silently dropping them. The destructor now drains them
// (bounded by each straggler's remaining retry schedule): a backup that was
// merely unreachable at write time catches up before the cluster goes away.
TEST(Quorum, ShutdownDrainsPendingStragglersToDisk) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pfm_shutdown_drain";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    ClusterConfig cfg;
    cfg.replication = 2;
    cfg.write_quorum = 1;
    cfg.storage_dir = dir;
    Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    client.set_retry_policy(soak_policy());
    // A row-block view congruent with the physical partition: the write
    // touches subfile 0 only, whose replicas live on nodes 4 and 5.
    const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
    const std::int64_t vid = client.set_view(views[0], 256);
    fs.faults().isolate(5);  // backup unreachable, primary satisfies W=1
    client.write(vid, 0, 63, make_pattern_buffer(64, 95));
    EXPECT_GT(client.stragglers_pending(), 0u);
    fs.faults().restore(5);
    // No explicit drain: destruction must finish the straggler itself.
  }
  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream is(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  };
  const std::string primary = slurp(dir / "subfile_0.n4");
  const std::string backup = slurp(dir / "subfile_0.n5");
  EXPECT_FALSE(primary.empty());
  EXPECT_EQ(primary, backup);  // the drained straggler landed on disk
  std::filesystem::remove_all(dir);
}

// Two abandoned stragglers for the same subfile owe scrub one visit, not
// two: take_scrub_debt() is deduplicated (and thereby bounded by the
// subfile count, however many writes were abandoned).
TEST(Quorum, AbandonedStragglerScrubDebtIsDeduplicated) {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(fast_policy());  // small budget: abandon quickly
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  fs.faults().isolate(5);  // subfile 0's backup stays unreachable
  client.write(vid, 0, 63, make_pattern_buffer(64, 96));
  client.write(vid, 0, 63, make_pattern_buffer(64, 97));
  client.drain_stragglers();
  EXPECT_GE(client.stragglers_abandoned(), 2);
  const std::vector<int> debt = client.take_scrub_debt();
  EXPECT_EQ(debt, std::vector<int>{0});
  EXPECT_TRUE(client.take_scrub_debt().empty());  // take = transfer, once
  fs.faults().restore(5);
}

// A straggler owns its payload: the caller may reuse its buffer as soon as
// write() returns, and the retransmit that finally reaches the backup still
// carries the bytes that were written.
TEST(Quorum, StragglerOutlivesTheCallersBuffer) {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.write_quorum = 1;
  Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
  auto& client = fs.client(0);
  client.set_retry_policy(soak_policy());
  // A row-block view congruent with the physical partition: the write
  // touches subfile 0 only, whose replicas live on nodes 4 and 5.
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const std::int64_t vid = client.set_view(views[0], 256);
  fs.faults().isolate(5);  // the straggler's first attempt is lost
  const Buffer written = make_pattern_buffer(64, 106);
  Buffer data = written;
  ASSERT_TRUE(client.write(vid, 0, 63, data).ok());
  ASSERT_EQ(client.stragglers_pending(), 1u);
  std::fill(data.begin(), data.end(), std::byte{0xEE});

  fs.faults().restore(5);
  client.drain_stragglers();
  EXPECT_EQ(client.stragglers_completed(), 1);
  EXPECT_EQ(client.stragglers_abandoned(), 0);
  EXPECT_EQ(replica_image(fs, 0, 0), written);
  EXPECT_EQ(replica_image(fs, 0, 1), written);
  EXPECT_TRUE(fs.scrub().clean());
}

// ---------------------------------------------------------------------------
// Durable mount: cold-start recovery + storage reconciliation (recover.h)
// ---------------------------------------------------------------------------

/// A durable two-replica config rooted at `base` (metadata and storage in
/// sibling subdirectories).
ClusterConfig durable_cfg(const std::filesystem::path& base) {
  ClusterConfig cfg;
  cfg.replication = 2;
  cfg.storage_dir = base / "storage";
  cfg.metadata_dir = base / "meta";
  return cfg;
}

TEST(DurableMount, RemountServesBytesWrittenBeforeShutdown) {
  const auto base =
      std::filesystem::temp_directory_path() / "pfm_mount_roundtrip";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const Buffer data = make_pattern_buffer(64, 21);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_TRUE(fs.mount_report().durable);
    EXPECT_FALSE(fs.mount_report().mounted);  // fresh create
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    client.write(vid, 0, 63, data);
    fs.sync_metadata();
  }
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    const MountReport& rep = fs.mount_report();
    EXPECT_TRUE(rep.mounted);
    EXPECT_EQ(rep.copies_missing, 0);
    EXPECT_EQ(rep.sync_failures, 0);
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_TRUE(equal_bytes(back, data));
  }
  std::filesystem::remove_all(base);
}

TEST(DurableMount, CrashPointBeforeShutdownStillRecovers) {
  const auto base = std::filesystem::temp_directory_path() / "pfm_mount_crash";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const Buffer data = make_pattern_buffer(64, 22);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    client.write(vid, 0, 63, data);
    fs.sync_metadata();  // the write's size/placement reach the journal
    // Freeze the metadata layer at the very next durability barrier: every
    // later durable write (including the destructor's checkpoint) is
    // dropped, exactly as a SIGKILL there would. The size-growing write
    // below gives sync_metadata a mutation to journal, whose fsync is that
    // barrier.
    client.write(vid, 64, 127, make_pattern_buffer(64, 33));
    arm_crash_after_syncs(1);
    EXPECT_THROW(fs.sync_metadata(), SimulatedCrash);
  }
  arm_crash_after_syncs(0);  // "reboot"
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_TRUE(fs.mount_report().mounted);
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_TRUE(equal_bytes(back, data));
  }
  std::filesystem::remove_all(base);
}

TEST(DurableMount, MissingBackupCopyIsReportedAndRowReaimed) {
  const auto base =
      std::filesystem::temp_directory_path() / "pfm_mount_missing";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const Buffer data = make_pattern_buffer(64, 23);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    client.write(vid, 0, 63, data);
    fs.sync_metadata();
  }
  // Subfile 0's backup (node 5) vanished with its disk.
  std::filesystem::remove(base / "storage" / "subfile_0.n5");
  std::filesystem::remove(base / "storage" / "subfile_0.n5.epoch");
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_GE(fs.mount_report().copies_missing, 1);
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_TRUE(equal_bytes(back, data));  // the surviving primary serves
  }
  std::filesystem::remove_all(base);
}

TEST(DurableMount, OrphanedHigherEpochCopyBecomesTheAuthority) {
  const auto base = std::filesystem::temp_directory_path() / "pfm_mount_orphan";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const Buffer data = make_pattern_buffer(64, 24);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    client.write(vid, 0, 63, data);
    fs.sync_metadata();
  }
  // Simulate a placement the metadata never recorded: subfile 0's primary
  // copy now lives on node 6 (unrecorded) with a *newer* epoch than the
  // recorded backup on node 5 — the mount must adopt it as the authority
  // rather than trust the stale recorded row.
  const auto storage = base / "storage";
  std::filesystem::rename(storage / "subfile_0.n4", storage / "subfile_0.n6");
  std::filesystem::rename(storage / "subfile_0.n4.epoch",
                          storage / "subfile_0.n6.epoch");
  {
    FileStorage bump(storage / "subfile_0.n6", /*preserve=*/true);
    bump.set_epoch(bump.epoch() + 10);
  }
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_GE(fs.mount_report().orphans_adopted, 1);
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_TRUE(equal_bytes(back, data));
  }
  std::filesystem::remove_all(base);
}

// A durable relayout commits its new layout and its size with one journal
// append (one durability barrier), and a remount serves the bytes through
// the committed layout.
TEST(DurableMount, RelayoutCommitsWithOneJournalAppend) {
  const auto base =
      std::filesystem::temp_directory_path() / "pfm_mount_relayout";
  std::filesystem::remove_all(base);
  const auto rows = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const auto whole = make_pattern_buffer(256, 25);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const std::int64_t vid = client.set_view(rows[k], 256);
      client.write(vid, 0, 63,
                   std::span<const std::byte>(whole).subspan(64 * k, 64));
    }
    // Nothing synced since the mount: the record still holds size 0 and
    // the row layout, so the commit changes both.
    const std::int64_t before = durability_barriers();
    fs.relayout(pattern2d(Partition2D::kColumnBlocks, 16, 4), 256);
    EXPECT_EQ(durability_barriers() - before, 1);
    fs.sync_metadata();  // nothing left to record
    EXPECT_EQ(durability_barriers() - before, 1);
    // That one record holds the new layout and the relayout's size.
    const Journal::Replay journal = Journal::replay_file(
        base / "meta" / MetadataManager::kJournalName);
    ASSERT_FALSE(journal.records.empty());
    MetadataManager last;
    last.apply_journal_record(journal.records.back());
    const FileRecord& rec = last.lookup(last.list().front());
    EXPECT_EQ(rec.size, 256);
    EXPECT_EQ(rec.subfile_falls,
              pattern2d(Partition2D::kColumnBlocks, 16, 4).elements());
  }
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_TRUE(fs.mount_report().mounted);
    EXPECT_EQ(fs.physical().elements(),
              pattern2d(Partition2D::kColumnBlocks, 16, 4).elements());
    auto& client = fs.client(0);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const std::int64_t vid = client.set_view(rows[k], 256);
      Buffer back(64);
      client.read(vid, 0, 63, back);
      EXPECT_TRUE(equal_bytes(
          back, std::span<const std::byte>(whole).subspan(64 * k, 64)))
          << "row block " << k;
    }
  }
  std::filesystem::remove_all(base);
}

// Draining a node that holds one copy: the copy worker's commit after the
// migration changes the size (a write not yet synced), the placement and
// the membership (the ring epoch the decommission bumped) together, and
// commits them as one journal record. Recording the node retired at the end
// of the drain is the only other record.
TEST(DurableMount, DrainCommitsSizePlacementAndMembershipAsOneRecord) {
  const auto base = std::filesystem::temp_directory_path() / "pfm_mount_drain";
  std::filesystem::remove_all(base);
  ClusterConfig cfg;
  cfg.ring_placement = true;
  cfg.storage_dir = base / "storage";
  cfg.metadata_dir = base / "meta";
  const auto rows = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  const auto whole = make_pattern_buffer(256, 26);
  {
    Clusterfile fs(cfg, pattern2d(Partition2D::kRowBlocks, 16, 4));
    // With one copy per subfile, only the drained node's copies move.
    int lone = -1;
    for (const int idx : fs.serving_io_indices()) {
      int held = 0;
      for (std::size_t i = 0; i < fs.subfile_count(); ++i)
        if (fs.replica_nodes(i)[0] == fs.compute_nodes() + idx) ++held;
      if (held == 1) lone = idx;
    }
    ASSERT_GE(lone, 0) << "no I/O node holds exactly one copy";
    auto& client = fs.client(0);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const std::int64_t vid = client.set_view(rows[k], 256);
      client.write(vid, 0, 63,
                   std::span<const std::byte>(whole).subspan(64 * k, 64));
    }
    const std::int64_t before = durability_barriers();
    fs.decommission_node(static_cast<std::size_t>(lone));
    EXPECT_EQ(fs.rebalance_counters().migrations_completed, 1);
    EXPECT_EQ(durability_barriers() - before, 2);
    fs.sync_metadata();  // nothing left to record
    EXPECT_EQ(durability_barriers() - before, 2);
    const std::int64_t vid = client.set_view(rows[0], 256);
    Buffer back(64);
    client.read(vid, 0, 63, back);
    EXPECT_TRUE(
        equal_bytes(back, std::span<const std::byte>(whole).first(64)));
  }
  std::filesystem::remove_all(base);
}

// pfm_fsck --repair records what a mount would reconcile to: the orphaned
// higher-epoch copy becomes subfile 0's primary under the next placement
// epoch, and a second check no longer reports the orphan.
TEST(DurableMount, FsckRepairRecordsTheReconciledPlacement) {
  const auto base = std::filesystem::temp_directory_path() / "pfm_fsck_repair";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    const std::int64_t vid = client.set_view(views[0], 256);
    client.write(vid, 0, 63, make_pattern_buffer(64, 27));
    fs.sync_metadata();
  }
  const auto storage = base / "storage";
  std::filesystem::rename(storage / "subfile_0.n4", storage / "subfile_0.n6");
  std::filesystem::rename(storage / "subfile_0.n4.epoch",
                          storage / "subfile_0.n6.epoch");
  {
    FileStorage bump(storage / "subfile_0.n6", /*preserve=*/true);
    bump.set_epoch(bump.epoch() + 10);
  }
  const auto orphaned = [](const FsckReport& rep) {
    return std::count_if(rep.warnings.begin(), rep.warnings.end(),
                         [](const std::string& w) {
                           return w.find("not in the recorded placement") !=
                                  std::string::npos;
                         });
  };
  FsckOptions opts;
  opts.metadata_dir = base / "meta";
  opts.storage_dir = storage;
  EXPECT_EQ(orphaned(run_fsck(opts)), 1);
  opts.repair = true;
  const FsckReport repaired = run_fsck(opts);
  EXPECT_TRUE(repaired.errors.empty());
  MetadataManager meta;
  meta.recover_from(opts.metadata_dir);
  ASSERT_EQ(meta.count(), 1u);
  const FileRecord& rec = meta.lookup(meta.list().front());
  EXPECT_EQ(rec.replica_nodes[0][0], 6);
  EXPECT_EQ(rec.placement_epoch, 1);
  opts.repair = false;
  EXPECT_EQ(orphaned(run_fsck(opts)), 0);
  std::filesystem::remove_all(base);
}

// After a clean shutdown both copies of every subfile have the same epoch
// and size. Such a tie keeps the recorded row: fsck --repair has no
// placement to record, and a remount brings back every row, primary first,
// and the placement epoch as recorded. Subfile 3's row {7, 4} is the case
// that a lowest-node tie-break turns round.
TEST(DurableMount, CleanRemountKeepsEveryRecordedRow) {
  const auto base = std::filesystem::temp_directory_path() / "pfm_mount_rows";
  std::filesystem::remove_all(base);
  const auto views = partition2d_all(Partition2D::kRowBlocks, 16, 16, 4);
  std::vector<std::vector<int>> rows;
  std::int64_t placement_epoch = -1;
  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    auto& client = fs.client(0);
    for (std::size_t k = 0; k < views.size(); ++k) {
      const std::int64_t vid = client.set_view(views[k], 256);
      client.write(vid, 0, 63,
                   make_pattern_buffer(64, 28 + static_cast<unsigned>(k)));
    }
    for (std::size_t i = 0; i < fs.subfile_count(); ++i)
      rows.push_back(fs.replica_nodes(i));
    placement_epoch = fs.placement_epoch();
  }
  ASSERT_TRUE(std::any_of(rows.begin(), rows.end(), [](const auto& row) {
    return row.front() != *std::min_element(row.begin(), row.end());
  })) << "every primary is its row's lowest node: nothing to turn round";

  FsckOptions opts;
  opts.metadata_dir = base / "meta";
  opts.storage_dir = base / "storage";
  opts.repair = true;
  const FsckReport rep = run_fsck(opts);
  EXPECT_TRUE(rep.errors.empty());
  for (const std::string& r : rep.repairs)
    EXPECT_EQ(r.find("reconciled placement"), std::string::npos) << r;

  {
    Clusterfile fs(durable_cfg(base),
                   pattern2d(Partition2D::kRowBlocks, 16, 4));
    EXPECT_TRUE(fs.mount_report().mounted);
    for (std::size_t i = 0; i < fs.subfile_count(); ++i)
      EXPECT_EQ(fs.replica_nodes(i), rows[i]) << "subfile " << i;
    EXPECT_EQ(fs.placement_epoch(), placement_epoch);
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace pfm
