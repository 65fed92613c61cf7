// LruCache and MoveQueue unit tests. Run under the tsan preset in CI: the
// externally locked cache hammered from several threads and the background
// copy queue's worker bound and counters are exactly the shapes TSan can
// falsify.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clusterfile/mover.h"
#include "util/lru.h"

namespace pfm {
namespace {

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

TEST(LruCache, HammeredFromThreadsUnderExternalLock) {
  // The client owns its cache single-threaded; a shared cache requires an
  // external lock. This is the locked pattern, hammered from four threads
  // so TSan checks the claim that LruCache itself needs no internal state.
  LruCache<int, int> lru(8);
  std::mutex mu;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::lock_guard<std::mutex> lock(mu);
        const int key = (t * kOpsPerThread + i) % 16;
        if (int* hit = lru.get(key)) {
          EXPECT_EQ(*hit, key * 3);
        } else {
          lru.put(key, key * 3);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
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
