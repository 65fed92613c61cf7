#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pfm {

ReliabilityCounters& ReliabilityCounters::operator+=(
    const ReliabilityCounters& o) {
  retries += o.retries;
  timeouts += o.timeouts;
  stale_replies += o.stale_replies;
  corruptions_detected += o.corruptions_detected;
  duplicates_suppressed += o.duplicates_suppressed;
  failures += o.failures;
  errors_sent += o.errors_sent;
  failovers += o.failovers;
  degraded += o.degraded;
  replica_failures += o.replica_failures;
  quorum_short += o.quorum_short;
  repairs_started += o.repairs_started;
  repairs_completed += o.repairs_completed;
  repairs_failed += o.repairs_failed;
  bytes_re_replicated += o.bytes_re_replicated;
  return *this;
}

bool ReliabilityCounters::all_zero() const {
  return retries == 0 && timeouts == 0 && stale_replies == 0 &&
         corruptions_detected == 0 && duplicates_suppressed == 0 &&
         failures == 0 && errors_sent == 0 && failovers == 0 &&
         degraded == 0 && replica_failures == 0 && quorum_short == 0 &&
         repairs_started == 0 && repairs_completed == 0 &&
         repairs_failed == 0 && bytes_re_replicated == 0;
}

double Stats::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Stats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Stats::min() const {
  if (samples_.empty()) throw std::logic_error("Stats::min on empty");
  return *std::min_element(samples_.begin(), samples_.end());
}

double Stats::max() const {
  if (samples_.empty()) throw std::logic_error("Stats::max on empty");
  return *std::max_element(samples_.begin(), samples_.end());
}

double Stats::rel_stddev() const {
  const double m = mean();
  return m == 0.0 ? 0.0 : stddev() / m;
}

double Stats::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("Stats::percentile: p outside [0, 100]");
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

}  // namespace pfm
