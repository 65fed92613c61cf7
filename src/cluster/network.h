// The simulated interconnect: routes messages between node inboxes and
// accounts modeled wire time (substitute for the paper's Myrinet; see
// DESIGN.md). Delivery itself is an in-memory move — the CPU costs the
// paper measures (intersection, mapping, gather/scatter) stay real, while
// per-message latency and bandwidth are charged to a simulated clock that
// benchmarks may report alongside measured time.
//
// A FaultInjector (cluster/fault.h) can be installed to make delivery
// hostile on demand: drops, duplicates, corruption, delayed reordering and
// scripted partitions. With none installed, send() pays one relaxed atomic
// load over the fault-free path. Installing an injector also enables
// per-message checksums (checksums_enabled) so corruption is detectable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/channel.h"
#include "cluster/fault.h"
#include "util/mutex.h"

namespace pfm {

/// Analytic cost model of the wire: time(msg) = latency + bytes/bandwidth.
struct NetParams {
  double latency_us = 10.0;        ///< per-message latency (Myrinet-class)
  double bandwidth_mbps = 100.0;   ///< MB/s payload bandwidth

  double wire_time_us(std::int64_t bytes) const {
    return latency_us + static_cast<double>(bytes) / bandwidth_mbps;
  }
};

class Network {
 public:
  Network(int node_count, NetParams params = {});
  ~Network();

  int node_count() const { return static_cast<int>(inboxes_.size()); }
  const NetParams& params() const { return params_; }

  /// Assigns node endpoints to physical machines (paper section 8.1: the
  /// compute and I/O node sets "may or may not overlap"). Messages between
  /// endpoints on the same machine cost no modeled wire time. By default
  /// every endpoint is its own machine. machine_of.size() must equal
  /// node_count().
  void set_machines(std::vector<int> machine_of);
  int machine_of(int node) const;

  /// Delivers msg to its dst_node inbox; stamps src. Returns false when the
  /// destination inbox is closed. Accumulates modeled wire time. With a
  /// fault injector installed the message may instead be dropped (returns
  /// true — silent loss is the point), duplicated, corrupted or delayed;
  /// kShutdown messages are immune so teardown always completes.
  bool send(int src, Message msg);

  /// The inbox of one node (servers block on it).
  Channel& inbox(int node);

  /// Installs (or replaces) a fault injector; nullptr uninstalls. Not safe
  /// to call concurrently with itself, but safe against in-flight send()s.
  void install_faults(std::shared_ptr<FaultInjector> injector);
  /// The installed injector, or nullptr.
  FaultInjector* faults() const {
    return fault_.load(std::memory_order_acquire);
  }
  /// Senders stamp and receivers verify CRC-32C checksums when true: an
  /// injector is installed.
  bool checksums_enabled() const {
    return fault_.load(std::memory_order_acquire) != nullptr;
  }

  /// Total modeled wire time across all messages so far, in microseconds
  /// (includes the modeled penalty of injector-delayed messages).
  double simulated_wire_us() const;
  /// Messages and payload bytes offered to the wire (for the benchmark
  /// reports; fault-injected duplicates and drops do not change the count).
  std::int64_t messages_sent() const { return messages_.load(); }
  std::int64_t bytes_sent() const { return bytes_.load(); }
  void reset_accounting();

  /// Closes every inbox (shutdown).
  void close_all();

 private:
  std::vector<std::unique_ptr<Channel>> inboxes_;
  NetParams params_;
  std::vector<int> machine_of_;
  std::atomic<std::int64_t> messages_{0};
  std::atomic<std::int64_t> bytes_{0};
  std::atomic<std::int64_t> wire_ns_{0};  ///< modeled, in nanoseconds
  /// Ownership, guarded so install_faults can replace the injector while
  /// send()s are in flight: each sender pins its own shared_ptr copy
  /// (copied under fault_mu_, held only for the copy) for the duration of
  /// process(), and the old injector dies only when the last in-flight
  /// sender lets go. `fault_` stays a raw pointer so the fault-free fast
  /// path is still one atomic load, never a lock.
  mutable Mutex fault_mu_{"Network.fault"};
  std::shared_ptr<FaultInjector> fault_owner_ PFM_GUARDED_BY(fault_mu_);
  std::atomic<FaultInjector*> fault_{nullptr};
};

}  // namespace pfm
