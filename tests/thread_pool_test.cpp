// ThreadPool, LruCache and MoveQueue unit tests. Run under the tsan preset
// in CI: the pool's caller-participation contract, the concurrent
// parallel_for use (four bench clients over one shared pool) and the
// background copy queue's worker bound and counters are exactly the shapes
// TSan can falsify.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clusterfile/mover.h"
#include "util/lru.h"
#include "util/thread_pool.h"

namespace pfm {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPool, ZeroWorkersRunInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const auto caller = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.parallel_for(64, [&](std::size_t) {
    // No workers: everything must execute on the calling thread, so plain
    // (unsynchronized) state is safe here by construction.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 64u);
}

TEST(ThreadPool, EmptyAndSingletonLoops) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "n=0 must not invoke"; });
  std::atomic<int> ran{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, FirstExceptionPropagatesAndLoopQuiesces) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(256,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Remaining indices may be skipped after the exception, but nothing runs
  // after parallel_for returned; the counter is stable now.
  const int after = ran.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(ran.load(), after);
}

TEST(ThreadPool, ConcurrentParallelForFromManyThreads) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr std::size_t kN = 512;
  std::vector<std::atomic<std::int64_t>> sums(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.parallel_for(kN, [&](std::size_t i) {
        sums[c].fetch_add(static_cast<std::int64_t>(i) + 1);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c)
    EXPECT_EQ(sums[c].load(), static_cast<std::int64_t>(kN) * (kN + 1) / 2);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // set_view inside the collective layer nests parallel_for inside a pool
  // task; caller participation keeps that deadlock-free even when every
  // worker is busy with the outer loop.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 64);
}

TEST(ThreadPool, SharedPoolIsUsableAndStable) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> ran{0};
  a.parallel_for(32, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, std::string> lru(2);
  lru.put(1, "one");
  lru.put(2, "two");
  ASSERT_NE(lru.get(1), nullptr);  // refresh 1; 2 is now LRU
  lru.put(3, "three");             // evicts 2
  EXPECT_EQ(lru.get(2), nullptr);
  ASSERT_NE(lru.get(1), nullptr);
  EXPECT_EQ(*lru.get(1), "one");
  ASSERT_NE(lru.get(3), nullptr);
  EXPECT_EQ(lru.evictions(), 1);
  EXPECT_EQ(lru.size(), 2u);
}

TEST(LruCache, OverwriteRefreshesWithoutEviction) {
  LruCache<int, int> lru(2);
  lru.put(1, 10);
  lru.put(2, 20);
  lru.put(1, 11);  // overwrite, no eviction, 1 most recent
  EXPECT_EQ(lru.evictions(), 0);
  lru.put(3, 30);  // evicts 2
  EXPECT_EQ(lru.get(2), nullptr);
  ASSERT_NE(lru.get(1), nullptr);
  EXPECT_EQ(*lru.get(1), 11);
}

TEST(LruCache, ZeroCapacityDisablesCaching) {
  LruCache<int, int> lru(0);
  lru.put(1, 10);
  EXPECT_EQ(lru.get(1), nullptr);
  EXPECT_EQ(lru.size(), 0u);
}

TEST(LruCache, SetCapacityShrinksFromLruEnd) {
  LruCache<int, int> lru(4);
  for (int k = 1; k <= 4; ++k) lru.put(k, k);
  lru.set_capacity(2);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.evictions(), 2);
  EXPECT_EQ(lru.get(1), nullptr);
  EXPECT_EQ(lru.get(2), nullptr);
  ASSERT_NE(lru.get(3), nullptr);
  ASSERT_NE(lru.get(4), nullptr);
  lru.clear();
  EXPECT_EQ(lru.size(), 0u);
}

TEST(LruCache, HammeredThroughPoolUnderExternalLock) {
  // The client owns its cache single-threaded; a shared cache requires an
  // external lock. This is the locked pattern, hammered through the pool so
  // TSan checks the claim that LruCache itself needs no internal state.
  LruCache<int, int> lru(8);
  std::mutex mu;
  ThreadPool pool(4);
  pool.parallel_for(2000, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    const int key = static_cast<int>(i % 16);
    if (int* hit = lru.get(key)) {
      EXPECT_EQ(*hit, key * 3);
    } else {
      lru.put(key, key * 3);
    }
  });
  EXPECT_LE(lru.size(), 8u);
  EXPECT_GT(lru.evictions(), 0);
}

// ---------------------------------------------------------------------------
// MoveQueue: the bounded background queue of repairs and migrations
// ---------------------------------------------------------------------------

MoveTask move_task(MoveKind kind, int subfile) {
  MoveTask t;
  t.kind = kind;
  t.subfile = subfile;
  return t;
}

/// Holds every task inside the execute hook until opened, counting how
/// many run at once.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  int peak = 0;
  bool open = false;

  bool pass() {
    std::unique_lock<std::mutex> lock(mu);
    peak = std::max(peak, ++running);
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
    --running;
    return true;
  }
  bool wait_running(int n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return running == n; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

TEST(MoveQueue, RunsNoMoreTasksAtOnceThanTheWorkerBound) {
  Gate gate;
  MoveQueue q([&](const MoveTask&, MoveStats*) { return gate.pass(); });
  std::vector<MoveTask> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back(
        move_task(i % 2 ? MoveKind::kRepair : MoveKind::kMigration, i));
  q.enqueue(std::move(tasks));
  const bool filled = gate.wait_running(MoveQueue::kWorkers);
  // Every worker is parked inside a task: a pool wider than the bound would
  // start another one within this window.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t pending = q.pending();
  gate.release();
  q.await_idle();
  EXPECT_TRUE(filled);
  EXPECT_EQ(pending, 8u);  // queued + executing, both kinds
  EXPECT_EQ(gate.peak, MoveQueue::kWorkers);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.counters(MoveKind::kRepair).completed, 4);
  EXPECT_EQ(q.counters(MoveKind::kMigration).completed, 4);
}

TEST(MoveQueue, KeepsCountersPerKind) {
  MoveQueue q([](const MoveTask& t, MoveStats* s) {
    if (t.subfile == 99) throw std::runtime_error("copy threw");
    if (t.subfile < 0) return false;
    s->bulk_bytes = 10 * t.subfile;
    s->catchup_bytes = 1;
    return true;
  });
  q.enqueue({move_task(MoveKind::kRepair, 1), move_task(MoveKind::kRepair, 2),
             move_task(MoveKind::kRepair, -1),
             move_task(MoveKind::kMigration, 3),
             move_task(MoveKind::kMigration, 99)});
  q.await_idle();
  const MoveCounters r = q.counters(MoveKind::kRepair);
  EXPECT_EQ(r.started, 3);
  EXPECT_EQ(r.completed, 2);
  EXPECT_EQ(r.failed, 1);
  EXPECT_EQ(r.bytes.bulk_bytes, 30);  // completed tasks only
  EXPECT_EQ(r.bytes.catchup_bytes, 2);
  const MoveCounters m = q.counters(MoveKind::kMigration);
  EXPECT_EQ(m.started, 2);
  EXPECT_EQ(m.completed, 1);
  EXPECT_EQ(m.failed, 1);  // the throw is a failure, not a dead worker
  EXPECT_EQ(m.bytes.bulk_bytes, 30);
  EXPECT_EQ(m.bytes.catchup_bytes, 1);
}

TEST(MoveQueue, StopCountsDroppedTasksAsFailedUnderTheirKind) {
  Gate gate;
  MoveQueue q([&](const MoveTask&, MoveStats*) { return gate.pass(); });
  // The two repairs occupy both workers; the rest stays queued.
  q.enqueue({move_task(MoveKind::kRepair, 0), move_task(MoveKind::kRepair, 1),
             move_task(MoveKind::kMigration, 2),
             move_task(MoveKind::kMigration, 3),
             move_task(MoveKind::kMigration, 4),
             move_task(MoveKind::kRepair, 5), move_task(MoveKind::kRepair, 6)});
  const bool filled = gate.wait_running(MoveQueue::kWorkers);
  // stop() drops the queue at once, then joins the workers it is waiting
  // out; run it aside until only the executing tasks remain pending.
  std::thread stopper([&] { q.stop(); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (q.pending() > static_cast<std::size_t>(MoveQueue::kWorkers) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.release();
  stopper.join();
  EXPECT_TRUE(filled);
  MoveCounters r = q.counters(MoveKind::kRepair);
  MoveCounters m = q.counters(MoveKind::kMigration);
  EXPECT_EQ(r.started, 2);
  EXPECT_EQ(r.completed, 2);  // in-flight tasks finish
  EXPECT_EQ(r.failed, 2);
  EXPECT_EQ(m.started, 0);
  EXPECT_EQ(m.failed, 3);

  // Enqueue after stop: nothing runs, every task counts failed.
  q.enqueue({move_task(MoveKind::kRepair, 7),
             move_task(MoveKind::kMigration, 8),
             move_task(MoveKind::kMigration, 9)});
  r = q.counters(MoveKind::kRepair);
  m = q.counters(MoveKind::kMigration);
  EXPECT_EQ(r.failed, 3);
  EXPECT_EQ(m.failed, 5);
  EXPECT_EQ(r.started + m.started, 2);
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace pfm
