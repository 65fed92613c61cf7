// Tests for the runtime lock-order tracker (util/lockdep.h), the annotated
// mutex wrapper (util/mutex.h) and the AccessCanary, plus the regression
// for the lock-order bug lockdep surfaced in NodeLoop::stop.
//
// Everything that asserts a *failure* branches on lockdep::kLockdepEnabled:
// in release builds the hooks compile away and there is nothing to observe.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/channel.h"
#include "cluster/message.h"
#include "cluster/network.h"
#include "cluster/node.h"
#include "util/check.h"
#include "util/lockdep.h"
#include "util/lru.h"
#include "util/mutex.h"

namespace pfm {
namespace {

#if PFM_LOCKDEP_ON
class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override { lockdep::reset_for_test(); }
  void TearDown() override { lockdep::reset_for_test(); }
};

TEST_F(LockdepTest, ConsistentOrderIsQuiet) {
  Mutex a("test::a"), b("test::b");
  for (int i = 0; i < 3; ++i) {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lockdep::held_count(), 0u);
}

// The ISSUE's self-test: seed a deliberate A->B / B->A inversion and demand
// the failure message carries BOTH acquisition stacks — the stack recorded
// when A->B was established and the stack at the inverted B->A acquisition.
TEST_F(LockdepTest, TwoMutexInversionReportsBothStacks) {
  Mutex a("test::inv_a"), b("test::inv_b");
  {
    MutexLock la(a);
    MutexLock lb(b);  // establishes a -> b
  }
  try {
    MutexLock lb(b);
    MutexLock la(a);  // inverts: b -> a
    FAIL() << "lock-order inversion was not detected";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("lock-order inversion"), std::string::npos) << msg;
    // The inverted acquisition's own stack...
    EXPECT_NE(msg.find("test::inv_b -> test::inv_a"), std::string::npos)
        << msg;
    // ...and the stack snapshotted when the established order was recorded.
    EXPECT_NE(msg.find("test::inv_a -> test::inv_b"), std::string::npos)
        << msg;
  }
  // The throwing acquisition never took the lock; unwind released `b`.
  EXPECT_EQ(lockdep::held_count(), 0u);
}

TEST_F(LockdepTest, ThreeLockCycleIsDetected) {
  Mutex a("test::c3_a"), b("test::c3_b"), c("test::c3_c");
  {
    MutexLock la(a);
    MutexLock lb(b);  // a -> b
  }
  {
    MutexLock lb(b);
    MutexLock lc(c);  // b -> c
  }
  EXPECT_THROW(
      {
        MutexLock lc(c);
        MutexLock la(a);  // c -> a closes the cycle
      },
      ContractViolation);
}

TEST_F(LockdepTest, SameClassReacquisitionIsReported) {
  // Two *instances* sharing a class: holding both is an unordered pair.
  Mutex first("test::same_class");
  Mutex second("test::same_class");
  EXPECT_THROW(
      {
        MutexLock l1(first);
        MutexLock l2(second);
      },
      ContractViolation);
}

// CondVar hands the std::mutex to std::condition_variable for the sleep;
// lockdep must see it released and re-acquired, leaving the held stack as
// it was.
TEST_F(LockdepTest, NotifiedWaitKeepsTheHeldStackExact) {
  Mutex mu("test::cv_notified");
  CondVar cv;
  bool ready = false;
  std::thread notifier;
  {
    MutexLock lock(mu);
    // Started under the lock, the notifier can set `ready` only once the
    // wait below has released mu, so the loop waits at least once.
    notifier = std::thread([&] {
      MutexLock notifier_lock(mu);
      ready = true;
      cv.notify_one();
    });
    while (!ready) cv.wait(lock);
    EXPECT_EQ(lockdep::held_count(), 1u);
  }
  EXPECT_EQ(lockdep::held_count(), 0u);
  notifier.join();
}

TEST_F(LockdepTest, TimedOutWaitKeepsTheHeldStackExact) {
  Mutex mu("test::cv_timeout");
  CondVar cv;
  {
    MutexLock lock(mu);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
    while (cv.wait_until(lock, deadline) != std::cv_status::timeout) {
    }
    EXPECT_EQ(lockdep::held_count(), 1u);
  }
  EXPECT_EQ(lockdep::held_count(), 0u);
}

TEST_F(LockdepTest, InversionAfterAWaitIsReported) {
  Mutex a("test::wait_inv_a"), b("test::wait_inv_b");
  CondVar cv;
  {
    MutexLock la(a);
    MutexLock lb(b);  // establishes a -> b
  }
  try {
    MutexLock lb(b);
    cv.wait_until(lb, std::chrono::steady_clock::now());
    MutexLock la(a);  // inverts: b -> a, with b re-held by the wait
    FAIL() << "lock-order inversion after a wait was not detected";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test::wait_inv_b -> test::wait_inv_a"),
              std::string::npos)
        << msg;
  }
  EXPECT_EQ(lockdep::held_count(), 0u);
}

TEST_F(LockdepTest, BlockingChannelOpUnderLockIsRejected) {
  Mutex mu("test::held_over_channel");
  Channel ch(4);
  Message m;
  {
    MutexLock lock(mu);
    try {
      ch.send(std::move(m));
      FAIL() << "Channel::send under a pfm::Mutex was not rejected";
    } catch (const ContractViolation& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("Channel::send"), std::string::npos) << msg;
      EXPECT_NE(msg.find("test::held_over_channel"), std::string::npos) << msg;
    }
  }
  // Without the lock the same op is fine.
  EXPECT_NO_THROW(ch.send(Message{}));
}

TEST_F(LockdepTest, AccessCanaryCatchesConcurrentEntry) {
  LruCache<int, int> cache(16);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  // Hammer the documented-single-threaded cache from two threads; the
  // canary must turn the contract violation into ContractViolation throws
  // (at least one — exact interleaving is scheduler-dependent).
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20000 && !stop.load(); ++i) {
        try {
          cache.put(t * 100000 + i, i);
          (void)cache.get(i);
        } catch (const ContractViolation&) {
          ++violations;
          stop = true;
        }
      }
    });
  for (auto& th : threads) th.join();
  // Single-threaded use never trips it.
  LruCache<int, int> solo(4);
  solo.put(1, 1);
  EXPECT_NE(solo.get(1), nullptr);
  // Two threads racing 20k mutations each essentially always overlap, but
  // don't make the test flaky on a pathological scheduler: just require
  // that nothing *crashed* and report the common case.
  if (violations.load() == 0)
    GTEST_LOG_(WARNING) << "canary race did not interleave on this run";
}

// Regression for the bug this pass surfaced (and fixed) in NodeLoop::stop:
// the old code sent the kShutdown message while holding the mutex that
// guards thread_. Channel::send can block when the inbox is full — blocking
// on a channel while holding a pfm::Mutex is exactly what
// PFM_LOCKDEP_ASSERT_UNLOCKED rejects, and here it was a real deadlock:
// stop() parked inside send() with stop_mu_ held while the loop thread it
// was about to join could be stuck too. The fixed stop() sends before
// locking; this test deadlocked (then ContractViolation'd) on the old code.
TEST_F(LockdepTest, NodeLoopStopHoldsNoLockAcrossSend) {
  Network net(2);
  std::atomic<int> handled{0};
  NodeLoop loop(net, 0, [&](Message&&) { ++handled; });
  // Keep the loop busy so stop() races real traffic; under the old code the
  // kShutdown send ran with stop_mu_ held, which lockdep turns into a
  // deterministic ContractViolation here (and which deadlocked for real
  // whenever the inbox was full and the drainer was the blocked thread).
  for (int i = 0; i < 64; ++i) {
    Message m;
    m.kind = MsgKind::kAck;
    m.dst_node = 0;
    net.send(0, std::move(m));
  }
  loop.stop();  // must neither throw (lockdep) nor hang (deadlock)
  EXPECT_GE(handled.load(), 0);
}

// stop() is also idempotent and must not leave a stale kShutdown behind for
// a successor loop sharing the inbox (the restart path reuses inboxes).
TEST_F(LockdepTest, NodeLoopStopIsSingleShot) {
  Network net(1);
  std::atomic<int> handled{0};
  {
    NodeLoop loop(net, 0, [&](Message&&) { ++handled; });
    loop.stop();
    loop.stop();  // second stop: no second kShutdown queued
  }
  // A fresh loop over the same inbox must keep running (no stale shutdown).
  NodeLoop again(net, 0, [&](Message&&) { ++handled; });
  Message m;
  m.kind = MsgKind::kAck;
  m.dst_node = 0;
  net.send(0, std::move(m));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  again.stop();
  EXPECT_GE(handled.load(), 1);
}

#else  // !PFM_LOCKDEP_ON

TEST(LockdepTest, CompiledOut) {
  // Release build: the hooks are no-ops; just assert the constant agrees.
  EXPECT_FALSE(lockdep::kLockdepEnabled);
}

#endif  // PFM_LOCKDEP_ON

}  // namespace
}  // namespace pfm
