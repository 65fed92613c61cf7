#include "clusterfile/placement.h"

#include <stdexcept>

namespace pfm {

PlacementDirectory::PlacementDirectory(std::vector<std::vector<int>> replicas,
                                       std::int64_t epoch) {
  for (const auto& reps : replicas)
    if (reps.empty())
      throw std::invalid_argument("PlacementDirectory: empty replica list");
  if (epoch < 0)
    throw std::invalid_argument("PlacementDirectory: negative epoch");
  epoch_.store(epoch, std::memory_order_release);
  MutexLock lock(mu_);
  replicas_ = std::move(replicas);
}

std::size_t PlacementDirectory::subfile_count() const {
  MutexLock lock(mu_);
  return replicas_.size();
}

std::vector<int> PlacementDirectory::replicas_of(std::size_t subfile) const {
  MutexLock lock(mu_);
  if (subfile >= replicas_.size())
    throw std::out_of_range("PlacementDirectory::replicas_of: bad subfile");
  return replicas_[subfile];
}

int PlacementDirectory::primary_of(std::size_t subfile) const {
  MutexLock lock(mu_);
  if (subfile >= replicas_.size())
    throw std::out_of_range("PlacementDirectory::primary_of: bad subfile");
  return replicas_[subfile][0];
}

std::vector<std::vector<int>> PlacementDirectory::snapshot() const {
  MutexLock lock(mu_);
  return replicas_;
}

std::vector<std::vector<int>> PlacementDirectory::snapshot_with_epoch(
    std::int64_t* epoch) const {
  MutexLock lock(mu_);
  // Under mu_: update() bumps the epoch only after releasing the lock, so a
  // table read here is never newer than the epoch reported with it — the
  // persister may under-version a racing update (recorded next round), but
  // never over-version.
  *epoch = epoch_.load(std::memory_order_acquire);
  return replicas_;
}

void PlacementDirectory::update(std::size_t subfile,
                                std::vector<int> replicas) {
  {
    MutexLock lock(mu_);
    if (subfile >= replicas_.size())
      throw std::out_of_range("PlacementDirectory::update: bad subfile");
    if (replicas.empty())
      throw std::invalid_argument("PlacementDirectory: empty replica list");
    replicas_[subfile] = std::move(replicas);
  }
  // Publish after the table is consistent: a reader seeing the new epoch
  // must also see the new list.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace pfm
