// Bounded least-recently-used cache, the backing store of the Clusterfile
// client's access-plan cache (DESIGN.md, "The access-plan layer") and of
// the I/O server's cache of parsed projections. Not internally
// synchronized: each client owns one instance and is, like the rest of the
// client, single-threaded per instance; callers that share one must lock
// around it, as IoServer does under its mutex. Lockdep builds enforce that
// contract with an AccessCanary — two threads inside a mutating operation
// at once fail a PFM_CHECK instead of silently corrupting the list/index
// pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/lockdep.h"

namespace pfm {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  /// A capacity of 0 disables the cache: get always misses, put is a no-op.
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return order_.size(); }
  std::int64_t evictions() const { return evictions_; }

  /// Shrinks/grows the bound; evicts from the LRU end when shrinking.
  void set_capacity(std::size_t capacity) {
    AccessCanary::Scope guard(canary_);
    capacity_ = capacity;
    trim();
  }

  /// Pointer to the cached value (marked most recently used), or nullptr.
  /// The pointer is invalidated by the next put/clear/set_capacity.
  Value* get(const Key& key) {
    AccessCanary::Scope guard(canary_);  // get mutates recency order too
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts or overwrites; the entry becomes most recently used. Evicts
  /// from the LRU end when over capacity.
  void put(Key key, Value value) {
    AccessCanary::Scope guard(canary_);
    if (capacity_ == 0) return;
    if (const auto it = index_.find(key); it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(std::move(key), std::move(value));
    index_.emplace(order_.front().first, order_.begin());
    trim();
  }

  void clear() {
    AccessCanary::Scope guard(canary_);
    order_.clear();
    index_.clear();
  }

 private:
  void trim() {
    while (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  std::size_t capacity_;
  std::list<std::pair<Key, Value>> order_;  ///< front = most recently used
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      index_;
  std::int64_t evictions_ = 0;
  AccessCanary canary_{"LruCache"};
};

}  // namespace pfm
