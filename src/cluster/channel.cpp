#include "cluster/channel.h"

#include <thread>

#include "util/lockdep.h"

namespace pfm {

/// Counts the enclosing thread in `parked` while it blocks on a condition
/// variable, and wakes the destructor's drain wait when the last parked
/// thread leaves a closed channel. Constructed and destroyed under mu_.
class Channel::ParkScope {
 public:
  ParkScope(Channel& ch, std::size_t& parked) PFM_REQUIRES(ch.mu_)
      : ch_(ch), parked_(parked) {
    ++parked_;
  }
  ~ParkScope() PFM_REQUIRES(ch_.mu_) {
    --parked_;
    if (ch_.closed_ && ch_.parked_receivers_ + ch_.parked_senders_ == 0)
      ch_.drained_.notify_all();
  }
  ParkScope(const ParkScope&) = delete;
  ParkScope& operator=(const ParkScope&) = delete;

 private:
  Channel& ch_;
  std::size_t& parked_;
};

/// A wake-up armed under mu_ and delivered after unlocking. Declared before
/// the MutexLock, it is destroyed after the lock releases mu_, so the woken
/// peer finds mu_ free instead of preempting the notifier only to block on
/// it. From arm() until its notify returns it counts itself in notifiers_,
/// so the destructor cannot free the condition variable under it.
class Channel::DeferredWake {
 public:
  explicit DeferredWake(Channel& ch) : ch_(ch) {}
  ~DeferredWake() {
    if (cv_ == nullptr) return;
    cv_->notify_one();
    --ch_.notifiers_;
  }
  /// Called under mu_, so the destructor's drain sees the count.
  void arm(CondVar& cv) {
    cv_ = &cv;
    ++ch_.notifiers_;
  }
  DeferredWake(const DeferredWake&) = delete;
  DeferredWake& operator=(const DeferredWake&) = delete;

 private:
  Channel& ch_;
  CondVar* cv_ = nullptr;
};

Channel::Channel(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Channel::~Channel() {
  {
    MutexLock lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
    // Senders and receivers woken by the close still re-lock mu_ and read
    // state inside their wait loop; destroying the synchronization objects
    // under them would be a use-after-free. Wait until they have all left.
    while (parked_receivers_ + parked_senders_ != 0) drained_.wait(lock);
  }
  // A peer whose handoff has completed may still be inside its notify.
  while (notifiers_ != 0) std::this_thread::yield();
}

bool Channel::send(Message msg) {
  PFM_LOCKDEP_ASSERT_UNLOCKED("Channel::send");
  DeferredWake wake(*this);
  MutexLock lock(mu_);
  {
    ParkScope park(*this, parked_senders_);
    while (!closed_ && queue_.size() >= capacity_) not_full_.wait(lock);
  }
  if (closed_) return false;
  queue_.push_back(std::move(msg));
  if (parked_receivers_ != 0) wake.arm(not_empty_);
  return true;
}

std::optional<Message> Channel::receive() {
  PFM_LOCKDEP_ASSERT_UNLOCKED("Channel::receive");
  DeferredWake wake(*this);
  MutexLock lock(mu_);
  {
    ParkScope park(*this, parked_receivers_);
    while (!closed_ && queue_.empty()) not_empty_.wait(lock);
  }
  return pop(wake);  // nullopt: closed and drained
}

std::optional<Message> Channel::receive_for(std::chrono::nanoseconds timeout) {
  PFM_LOCKDEP_ASSERT_UNLOCKED("Channel::receive_for");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  DeferredWake wake(*this);
  MutexLock lock(mu_);
  {
    ParkScope park(*this, parked_receivers_);
    while (!closed_ && queue_.empty()) {
      if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout)
        break;
    }
  }
  return pop(wake);  // nullopt: timed out, or closed and drained
}

std::optional<Message> Channel::try_receive() {
  DeferredWake wake(*this);
  MutexLock lock(mu_);
  return pop(wake);
}

std::optional<Message> Channel::pop(DeferredWake& wake) {
  if (queue_.empty()) return std::nullopt;
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  if (parked_senders_ != 0) wake.arm(not_full_);
  return msg;
}

void Channel::close() {
  MutexLock lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool Channel::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

std::size_t Channel::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

std::size_t Channel::parked_senders() const {
  MutexLock lock(mu_);
  return parked_senders_;
}

std::size_t Channel::parked_receivers() const {
  MutexLock lock(mu_);
  return parked_receivers_;
}

}  // namespace pfm
