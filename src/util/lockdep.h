// Runtime lock-order tracking ("lockdep") for debug builds — the dynamic
// half of the concurrency-correctness pass (DESIGN.md "Concurrency &
// analysis"). TSan finds data races but not lock-order inversions that never
// actually deadlock during the run; lockdep records the acquisition graph as
// it happens and fails fast on the first cycle.
//
// Every pfm::Mutex (util/mutex.h) belongs to a *lock class*, interned by the
// name given at construction. On each acquisition the tracker:
//
//   1. pushes the class on a thread-local held stack,
//   2. records an edge (held class -> acquired class) in a global graph,
//   3. PFM_CHECK-fails if the new edge closes a cycle, reporting BOTH
//      acquisition stacks: the current thread's held stack and the held
//      stack snapshotted when the reverse path was first recorded.
//
// Blocking primitives that must never be entered with a lock held
// (Channel::send/receive/receive_for) call
// PFM_LOCKDEP_ASSERT_UNLOCKED at entry: blocking on a channel while holding
// a pfm::Mutex stalls every thread that needs that lock for an unbounded
// time and is a deadlock when the lock-holder is what drains the channel
// (the NodeLoop::stop regression in tests/lockdep_test.cpp).
//
// Cost when PFM_LOCKDEP=OFF: zero — the hooks compile away. When ON
// (default in Debug builds), the common path (no other lock held, or edge
// already seen by this thread) touches only thread-local state.
#pragma once

#include <atomic>
#include <cstddef>

#include "util/check.h"

#if defined(PFM_LOCKDEP_ENABLED) && PFM_LOCKDEP_ENABLED
#define PFM_LOCKDEP_ON 1
#else
#define PFM_LOCKDEP_ON 0
#endif

namespace pfm::lockdep {

/// True when the lockdep hooks are compiled in (CMake -DPFM_LOCKDEP=ON,
/// default in Debug builds). Tests branch on this like kDcheckEnabled.
inline constexpr bool kLockdepEnabled = PFM_LOCKDEP_ON == 1;

#if PFM_LOCKDEP_ON

/// Interned lock class; one per distinct Mutex name. Distinct instances
/// that share a name share ordering constraints, so two same-class locks
/// held together are reported as an unordered pair — give nestable locks
/// distinct names.
struct LockClass;

/// Returns the interned class for `name` (nullptr -> "pfm::Mutex").
const LockClass* intern_class(const char* name);

/// Order check before a (possibly blocking) acquisition: verifies that no
/// held->c edge closes a cycle and records the new edges. Throws
/// ContractViolation (via PFM_CHECK) on an inversion.
void note_acquire(const LockClass* c);

/// Records c as held by this thread (after the underlying lock succeeded).
void note_held(const LockClass* c);

/// Removes the most recent occurrence of c from this thread's held stack.
void note_release(const LockClass* c);

/// PFM_CHECK-fails when this thread holds any pfm::Mutex: `what` names the
/// blocking operation about to be entered.
void check_no_locks_held(const char* what);

/// Number of pfm::Mutexes this thread currently holds (test aid).
std::size_t held_count();

/// Clears the global acquisition graph and invalidates per-thread edge
/// caches so test cases start from a clean slate. The calling thread must
/// hold no pfm::Mutex.
void reset_for_test();

#endif  // PFM_LOCKDEP_ON

}  // namespace pfm::lockdep

#if PFM_LOCKDEP_ON
#define PFM_LOCKDEP_ASSERT_UNLOCKED(what) \
  ::pfm::lockdep::check_no_locks_held(what)
#else
#define PFM_LOCKDEP_ASSERT_UNLOCKED(what) ((void)0)
#endif

namespace pfm {

/// Debug-build concurrency canary for structures that are documented as
/// externally synchronized or single-threaded by convention (LruCache, the
/// Clusterfile client, MetadataManager). Each mutating entry point opens an
/// AccessCanary::Scope; two overlapping scopes mean two threads are inside
/// the structure at once — a violated synchronization contract that would
/// otherwise surface only as a heisenbug. Compiles to nothing when lockdep
/// is off.
class AccessCanary {
 public:
  explicit AccessCanary(const char* name) { (void)name; init(name); }

  class Scope {
   public:
    explicit Scope([[maybe_unused]] AccessCanary& canary) {
#if PFM_LOCKDEP_ON
      canary_ = &canary;
      const int prev = canary.depth_.fetch_add(1, std::memory_order_acq_rel);
      PFM_CHECK(prev == 0, "concurrent unsynchronized access to ",
                canary.name_,
                " (documented single-threaded / externally locked)");
#endif
    }
    ~Scope() {
#if PFM_LOCKDEP_ON
      canary_->depth_.fetch_sub(1, std::memory_order_acq_rel);
#endif
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
#if PFM_LOCKDEP_ON
    AccessCanary* canary_ = nullptr;
#endif
  };

 private:
  void init([[maybe_unused]] const char* name) {
#if PFM_LOCKDEP_ON
    name_ = name;
#endif
  }
#if PFM_LOCKDEP_ON
  std::atomic<int> depth_{0};
  const char* name_ = "structure";
#endif
};

}  // namespace pfm
