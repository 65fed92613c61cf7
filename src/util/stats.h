// Small descriptive-statistics helper for benchmark repetitions.
//
// The paper reports means of 10 repetitions and notes the standard deviation
// stayed within 4% of the mean; the table binaries reproduce that protocol.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pfm {

/// Reliability counters of the Clusterfile request layer (DESIGN.md
/// "Failure model"). Clients and I/O servers each fill the fields that
/// apply to their side; Clusterfile and the bench JSON sum them with
/// operator+=. With no fault plan installed every field must stay zero —
/// tests assert all_zero() to prove the reliable path adds no traffic.
struct ReliabilityCounters {
  std::int64_t retries = 0;               ///< requests resent (any reason)
  std::int64_t timeouts = 0;              ///< reply deadlines that expired
  std::int64_t stale_replies = 0;         ///< duplicate/late replies discarded
  std::int64_t corruptions_detected = 0;  ///< checksum mismatches caught
  std::int64_t duplicates_suppressed = 0; ///< retransmits answered from cache
  std::int64_t failures = 0;              ///< targets failed after all retries
  std::int64_t errors_sent = 0;           ///< kError replies a server issued
  std::int64_t failovers = 0;             ///< requests retargeted to a backup
                                          ///< replica after the current node
                                          ///< was given up on
  std::int64_t degraded = 0;              ///< accesses that completed without
                                          ///< a full healthy replica set
  std::int64_t replica_failures = 0;      ///< replica requests abandoned while
                                          ///< the access still succeeded
  std::int64_t quorum_short = 0;          ///< quorum writes whose straggler
                                          ///< set was abandoned before every
                                          ///< replica acked (groups, not
                                          ///< requests; scrub owes a repair)
  std::int64_t repairs_started = 0;       ///< subfile re-replications begun
                                          ///< by the self-healing layer
  std::int64_t repairs_completed = 0;     ///< re-replications that restored a
                                          ///< replica to full epoch parity
  std::int64_t repairs_failed = 0;        ///< re-replications abandoned after
                                          ///< the shared retry budget
  std::int64_t bytes_re_replicated = 0;   ///< payload bytes copied onto
                                          ///< replacement replicas

  ReliabilityCounters& operator+=(const ReliabilityCounters& o);
  bool all_zero() const;
};

/// Accumulates samples and reports mean / stddev / min / max.
class Stats {
 public:
  void add(double x) { samples_.push_back(x); }

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double stddev() const;
  double min() const;
  double max() const;
  /// stddev / mean, or 0 when the mean is 0.
  double rel_stddev() const;

  /// The p-th percentile (p in [0, 100]) with linear interpolation between
  /// order statistics; 0 for an empty sample set. percentile(50) is the
  /// median — the robust center the bench JSON reports alongside p95.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace pfm
