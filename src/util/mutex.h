// Annotated mutex wrapper: the only lock type the repository uses outside
// leaf infrastructure (tools/lint/pfm_lint.py rejects naked std::mutex).
//
// pfm::Mutex carries the Clang thread-safety CAPABILITY attribute, so
// GUARDED_BY/REQUIRES annotations on the structures it protects are
// compiler-enforced in the -Wthread-safety CI job, and it feeds every
// acquisition into the runtime lockdep tracker (util/lockdep.h) in debug
// builds. The name passed at construction is the lock *class* for lockdep
// ordering — give every distinct lock role a distinct name.
//
// Waiting uses pfm::CondVar with the explicit-loop idiom:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.wait(lock);
//
// (never the predicate-lambda overloads: Clang's analysis cannot see the
// capability inside the lambda). Each CondVar waits with one Mutex, as
// std::condition_variable requires.
#pragma once

#include <chrono>
#include <condition_variable>  // pfm-lint: allow(raw-mutex)
#include <mutex>               // pfm-lint: allow(raw-mutex)

#include "util/lockdep.h"
#include "util/thread_annotations.h"

namespace pfm {

class PFM_CAPABILITY("mutex") Mutex {
 public:
  /// `name` identifies the lock class for lockdep and diagnostics; nullptr
  /// falls back to the shared "pfm::Mutex" class.
  explicit Mutex(const char* name = nullptr) {
    (void)name;
#if PFM_LOCKDEP_ON
    class_ = lockdep::intern_class(name);
#endif
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PFM_ACQUIRE() {
#if PFM_LOCKDEP_ON
    lockdep::note_acquire(class_);
#endif
    mu_.lock();
#if PFM_LOCKDEP_ON
    lockdep::note_held(class_);
#endif
  }

  void unlock() PFM_RELEASE() {
    // Release the lockdep record first: once mu_ is free, a thread waiting
    // to destroy the owner (Channel::~Channel) may free this object.
#if PFM_LOCKDEP_ON
    lockdep::note_release(class_);
#endif
    mu_.unlock();
  }

  bool try_lock() PFM_TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
#if PFM_LOCKDEP_ON
    if (ok) lockdep::note_held(class_);
#endif
    return ok;
  }

 private:
  friend class CondVar;

  // CondVar's wait hands mu_ to std::condition_variable, which unlocks it
  // for the sleep and re-locks it before returning. These tell lockdep the
  // same, so the held stack stays exact across the wait.
  void note_sleep() {
#if PFM_LOCKDEP_ON
    lockdep::note_release(class_);
#endif
  }
  void note_wake() {
#if PFM_LOCKDEP_ON
    lockdep::note_acquire(class_);
    lockdep::note_held(class_);
#endif
  }

  std::mutex mu_;  // pfm-lint: allow(raw-mutex) — the wrapper itself
#if PFM_LOCKDEP_ON
  const lockdep::LockClass* class_ = nullptr;
#endif
};

/// RAII critical section over pfm::Mutex (std::lock_guard analog that the
/// thread-safety analysis understands as a scoped capability).
class PFM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PFM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PFM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

/// Condition variable bound to pfm::Mutex. Built on std::condition_variable
/// over the Mutex's own std::mutex: std::condition_variable_any would take a
/// second internal mutex on every wait and notify. A wait adopts the locked
/// std::mutex for its duration, and lockdep sees the lock released for the
/// sleep and re-acquired after. As std::condition_variable requires, each
/// CondVar waits with one Mutex: every thread waiting on it at the same time
/// holds the same Mutex.
class CondVar {
 public:
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically releases `lock` and blocks; the lock is re-held on return.
  /// Use with an explicit `while (!predicate)` loop.
  void wait(MutexLock& lock) {
    std::unique_lock<std::mutex> held(lock.mu_.mu_, std::adopt_lock);
    lock.mu_.note_sleep();
    cv_.wait(held);
    held.release();  // the MutexLock still owns the re-held lock
    lock.mu_.note_wake();
  }

  template <class Clock, class Dur>
  std::cv_status wait_until(MutexLock& lock,
                            const std::chrono::time_point<Clock, Dur>& tp) {
    std::unique_lock<std::mutex> held(lock.mu_.mu_, std::adopt_lock);
    lock.mu_.note_sleep();
    const std::cv_status status = cv_.wait_until(held, tp);
    held.release();
    lock.mu_.note_wake();
    return status;
  }

 private:
  std::condition_variable cv_;  // pfm-lint: allow(raw-mutex)
};

}  // namespace pfm
