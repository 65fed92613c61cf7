// Machine-readable bench output: every table/ablation binary can dump a
// BENCH_<name>.json next to its human-readable table so the perf trajectory
// is comparable across PRs (median/p95 µs, bytes, plan-cache hit rates).
// Deliberately tiny — a build-a-tree-and-dump writer, no external JSON
// dependency; CI's bench-smoke step validates the output parses.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace pfm::bench {

class Json {
 public:
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }
  static Json number(double v) {
    Json j(Kind::kNumber);
    j.num_ = std::isfinite(v) ? v : 0.0;  // JSON has no NaN/Inf
    return j;
  }
  static Json integer(std::int64_t v) {
    Json j(Kind::kInteger);
    j.int_ = v;
    return j;
  }
  static Json string(std::string v) {
    Json j(Kind::kString);
    j.str_ = std::move(v);
    return j;
  }
  static Json boolean(bool v) {
    Json j(Kind::kBool);
    j.bool_ = v;
    return j;
  }
  /// {"mean":..,"median":..,"p95":..,"stddev":..} of a sample set.
  static Json summary(const Stats& s) {
    Json j = object();
    j.set("mean", number(s.mean()));
    j.set("median", number(s.median()));
    j.set("p95", number(s.percentile(95)));
    j.set("stddev", number(s.stddev()));
    return j;
  }

  Json& set(std::string key, Json value) {
    if (kind_ != Kind::kObject) throw std::logic_error("Json::set: not an object");
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Json& push(Json value) {
    if (kind_ != Kind::kArray) throw std::logic_error("Json::push: not an array");
    elements_.push_back(std::move(value));
    return *this;
  }

  std::string dump() const {
    std::string out;
    write(out, 0);
    out.push_back('\n');
    return out;
  }

 private:
  enum class Kind { kObject, kArray, kNumber, kInteger, kString, kBool };
  explicit Json(Kind kind) : kind_(kind) {}

  static void escape(std::string& out, const std::string& s) {
    out.push_back('"');
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    out.push_back('"');
  }

  void write(std::string& out, int depth) const {
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    const std::string pad1(static_cast<std::size_t>(depth + 1) * 2, ' ');
    switch (kind_) {
      case Kind::kObject: {
        if (members_.empty()) { out += "{}"; return; }
        out += "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out += pad1;
          escape(out, members_[i].first);
          out += ": ";
          members_[i].second.write(out, depth + 1);
          if (i + 1 < members_.size()) out += ",";
          out += "\n";
        }
        out += pad + "}";
        return;
      }
      case Kind::kArray: {
        if (elements_.empty()) { out += "[]"; return; }
        out += "[\n";
        for (std::size_t i = 0; i < elements_.size(); ++i) {
          out += pad1;
          elements_[i].write(out, depth + 1);
          if (i + 1 < elements_.size()) out += ",";
          out += "\n";
        }
        out += pad + "]";
        return;
      }
      case Kind::kNumber: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", num_);
        out += buf;
        return;
      }
      case Kind::kInteger: out += std::to_string(int_); return;
      case Kind::kString: escape(out, str_); return;
      case Kind::kBool: out += bool_ ? "true" : "false"; return;
    }
  }

  Kind kind_;
  double num_ = 0;
  std::int64_t int_ = 0;
  bool bool_ = false;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> elements_;
};

/// Every ReliabilityCounters field under its own name: the per-side
/// (client, server, repair) counter objects of the soak benches.
inline Json counters_json(const ReliabilityCounters& r) {
  Json j = Json::object();
  j.set("retries", Json::integer(r.retries));
  j.set("timeouts", Json::integer(r.timeouts));
  j.set("stale_replies", Json::integer(r.stale_replies));
  j.set("corruptions_detected", Json::integer(r.corruptions_detected));
  j.set("duplicates_suppressed", Json::integer(r.duplicates_suppressed));
  j.set("failures", Json::integer(r.failures));
  j.set("errors_sent", Json::integer(r.errors_sent));
  j.set("failovers", Json::integer(r.failovers));
  j.set("degraded", Json::integer(r.degraded));
  j.set("replica_failures", Json::integer(r.replica_failures));
  j.set("quorum_short", Json::integer(r.quorum_short));
  j.set("repairs_started", Json::integer(r.repairs_started));
  j.set("repairs_completed", Json::integer(r.repairs_completed));
  j.set("repairs_failed", Json::integer(r.repairs_failed));
  j.set("bytes_re_replicated", Json::integer(r.bytes_re_replicated));
  return j;
}

/// BENCH_<name>.json in $PFM_BENCH_JSON_DIR (default: the working
/// directory). Prints the path so bench logs reference their artifact.
inline std::filesystem::path write_bench_json(const std::string& name,
                                              const Json& j) {
  std::filesystem::path dir = ".";
  if (const char* env = std::getenv("PFM_BENCH_JSON_DIR")) dir = env;
  const std::filesystem::path path = dir / ("BENCH_" + name + ".json");
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_bench_json: cannot open " +
                                     path.string());
  out << j.dump();
  std::printf("bench JSON: %s\n", path.string().c_str());
  return path;
}

}  // namespace pfm::bench
