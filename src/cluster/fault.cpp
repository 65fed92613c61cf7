#include "cluster/fault.h"

#include <algorithm>

namespace pfm {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

const FaultRule* FaultInjector::match(const Message& msg) const {
  for (const FaultRule& r : plan_.rules) {
    if (r.src >= 0 && r.src != msg.src_node) continue;
    if (r.dst >= 0 && r.dst != msg.dst_node) continue;
    if (r.kind.has_value() && *r.kind != msg.kind) continue;
    return &r;
  }
  return nullptr;
}

void FaultInjector::flip_random_bit(Message& msg) {
  // Header fields are treated as reliable (the wire model's 64-byte header
  // stands in for a protected transport header); corruption hits the data
  // bytes the checksum covers. A message with neither meta nor payload has
  // nothing to corrupt. The payload may be shared with the sender's
  // retained request and sibling replicas' requests: mutable_bytes() flips
  // the bit in this message's own copy only.
  const std::size_t meta_bits = msg.meta.size() * 8;
  const std::size_t payload_bits = msg.payload.size() * 8;
  const std::size_t total = meta_bits + payload_bits;
  if (total == 0) return;
  const auto bit = static_cast<std::size_t>(
      rng_.uniform(0, static_cast<std::int64_t>(total) - 1));
  if (bit < meta_bits) {
    msg.meta[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(msg.meta[bit / 8]) ^ (1u << (bit % 8)));
  } else {
    const std::size_t b = bit - meta_bits;
    msg.payload.mutable_bytes()[b / 8] ^=
        static_cast<std::byte>(1u << (b % 8));
  }
  ++counters_.corrupted;
}

std::vector<Message> FaultInjector::process(Message msg) {
  MutexLock lock(mu_);
  std::vector<Message> out;

  // Every offered message ages the limbo queue by one delivery slot;
  // matured messages are delivered ahead of it (they were sent earlier).
  for (auto it = limbo_.begin(); it != limbo_.end();) {
    if (--it->remaining <= 0) {
      out.push_back(std::move(it->msg));
      it = limbo_.erase(it);
    } else {
      ++it;
    }
  }

  const int src = msg.src_node;
  const int dst = msg.dst_node;
  const bool partitioned =
      isolated_.count(src) > 0 || isolated_.count(dst) > 0 ||
      cuts_.count({std::min(src, dst), std::max(src, dst)}) > 0;
  if (partitioned) {
    ++counters_.partition_dropped;
    return out;
  }

  const FaultRule* rule = match(msg);
  if (rule == nullptr) {
    out.push_back(std::move(msg));
    return out;
  }
  if (rule->drop > 0 && rng_.chance(rule->drop)) {
    ++counters_.dropped;
    return out;
  }
  if (rule->corrupt > 0 && rng_.chance(rule->corrupt)) flip_random_bit(msg);
  const bool duplicate = rule->duplicate > 0 && rng_.chance(rule->duplicate);
  if (rule->delay > 0 && rng_.chance(rule->delay)) {
    ++counters_.delayed;
    modeled_delay_us_ += rule->delay_model_us;
    if (duplicate) {
      ++counters_.duplicated;
      out.push_back(msg);  // the duplicate goes through, the original lags
    }
    limbo_.push_back({std::move(msg), std::max(1, rule->delay_depth)});
    return out;
  }
  if (duplicate) {
    ++counters_.duplicated;
    out.push_back(msg);
  }
  out.push_back(std::move(msg));
  return out;
}

void FaultInjector::isolate(int node) {
  MutexLock lock(mu_);
  isolated_.insert(node);
}

void FaultInjector::restore(int node) {
  MutexLock lock(mu_);
  isolated_.erase(node);
}

void FaultInjector::cut(int a, int b) {
  MutexLock lock(mu_);
  cuts_.insert({std::min(a, b), std::max(a, b)});
}

void FaultInjector::heal(int a, int b) {
  MutexLock lock(mu_);
  cuts_.erase({std::min(a, b), std::max(a, b)});
}

bool FaultInjector::delivers(int src, int dst) const {
  MutexLock lock(mu_);
  return isolated_.count(src) == 0 && isolated_.count(dst) == 0 &&
         cuts_.count({std::min(src, dst), std::max(src, dst)}) == 0;
}

FaultInjector::Counters FaultInjector::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

void FaultInjector::reset_counters() {
  MutexLock lock(mu_);
  counters_ = Counters{};
  modeled_delay_us_ = 0.0;
}

std::size_t FaultInjector::in_limbo() const {
  MutexLock lock(mu_);
  return limbo_.size();
}

double FaultInjector::modeled_delay_us() const {
  MutexLock lock(mu_);
  return modeled_delay_us_;
}

}  // namespace pfm
