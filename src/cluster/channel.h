// Bounded MPSC channel: the in-memory interconnect of the simulated cluster.
// One channel is one node's inbox; senders block when the channel is full
// (back-pressure stands in for finite network buffers).
//
// Locking: every member but the notifier count is guarded by mu_
// (pfm::Mutex, so the guards are compiler-enforced under -Wthread-safety and
// ordered by lockdep). The blocking entry points assert via lockdep that the
// calling thread holds no pfm::Mutex — a thread that blocks on a full/empty
// channel while holding a lock stalls every thread needing that lock for an
// unbounded time, and deadlocks outright when the lock-holder is what drains
// the channel.
//
// Wake rule: a handoff notifies only a parked peer (a receiver waiting on an
// empty inbox, a sender waiting on a full one), and only after releasing
// mu_, so the woken thread never preempts the notifier just to block on the
// lock it still holds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>

#include "cluster/message.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pfm {

class Channel {
 public:
  explicit Channel(std::size_t capacity = 1024);

  /// Closes the channel and waits for every thread blocked in send/receive
  /// to leave before the mutex and queue are destroyed. Without this drain a
  /// sender blocked on a full channel races the owner's teardown: close()
  /// wakes it, but it still touches the condition variable and mutex on its
  /// way out (the destructor-vs-in-flight-send race TSan flags). The drain
  /// also waits out a peer that completed a handoff and is past its unlock
  /// but not yet done notifying.
  ~Channel();

  /// Blocks while the channel is full. Returns false if the channel was
  /// closed (message dropped). Must be called with no pfm::Mutex held.
  bool send(Message msg) PFM_EXCLUDES(mu_);

  /// Blocks until a message arrives or the channel is closed and drained;
  /// nullopt on closed-and-empty. Must be called with no pfm::Mutex held.
  std::optional<Message> receive() PFM_EXCLUDES(mu_);

  /// receive() with a deadline: nullopt when `timeout` elapses with the
  /// channel still empty, or when it is closed and drained (callers that
  /// need to distinguish the two check closed()). The reliable Clusterfile
  /// request layer blocks here instead of in receive(), so a lost reply
  /// surfaces as a timeout to retry rather than a hang.
  std::optional<Message> receive_for(std::chrono::nanoseconds timeout)
      PFM_EXCLUDES(mu_);

  /// Non-blocking receive; nullopt when empty (even if open).
  std::optional<Message> try_receive() PFM_EXCLUDES(mu_);

  /// Unblocks all senders and receivers; subsequent sends are dropped.
  void close() PFM_EXCLUDES(mu_);

  bool closed() const PFM_EXCLUDES(mu_);
  std::size_t pending() const PFM_EXCLUDES(mu_);
  /// Threads blocked in send / in receive or receive_for. Read under mu_,
  /// so a thread counted here is inside its condition wait: tests wait on
  /// these instead of sleeping and hoping their threads have parked.
  std::size_t parked_senders() const PFM_EXCLUDES(mu_);
  std::size_t parked_receivers() const PFM_EXCLUDES(mu_);

 private:
  /// RAII parked count, held across a condition wait.
  class ParkScope;
  /// Notifies a parked peer once the caller's lock is released.
  class DeferredWake;

  /// Pops the front message (nullopt when empty) and arms `wake` for a
  /// parked sender.
  std::optional<Message> pop(DeferredWake& wake) PFM_REQUIRES(mu_);

  mutable Mutex mu_{"Channel::mu"};
  CondVar not_full_;
  CondVar not_empty_;
  CondVar drained_;  ///< signals the parked counts reaching 0 once closed
  std::deque<Message> queue_ PFM_GUARDED_BY(mu_);
  std::size_t capacity_;
  std::size_t parked_receivers_ PFM_GUARDED_BY(mu_) = 0;
  std::size_t parked_senders_ PFM_GUARDED_BY(mu_) = 0;
  /// Threads past their unlock that still have to notify; raised under mu_.
  std::atomic<int> notifiers_{0};
  bool closed_ PFM_GUARDED_BY(mu_) = false;
};

}  // namespace pfm
