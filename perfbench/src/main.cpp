// Closed-loop Clusterfile benchmark.
//
//   pfm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir>
//
// One process builds a cluster of 4 I/O nodes holding one 1024 x 1024 byte
// matrix and drives it through the public ClusterfileClient API from 2
// closed-loop client threads (each a compute node that issues its next call
// only when the previous one returned). The calls come from a seeded
// generator; every read is compared with a shadow copy of the file.
//
// Workloads (why each exists is in BENCHMARK.json):
//   strided_mismatch  row-block views over square-block subfiles, 16 KiB
//                     reads and writes replayed from warm plans.
//   replicated_bulk   matched row blocks, 256 KiB reads and writes,
//                     replication 3 with write quorum 2 behind the CRC32C
//                     integrity layer.
//   view_churn        set_view of a seeded column-block, square-block or
//                     block-cyclic view, then a 4 KiB read through it (and
//                     on one step in four a 4 KiB write). A fixed number of
//                     steps runs per cluster, on fresh clusters until the
//                     time is up, because neither clients nor servers ever
//                     release a view.
//
// What is measured. On a shared virtual machine the wall time of a call
// depends on the host: its other tenants took 2-5x of this benchmark's
// speed for minutes at a time, and with the cluster's threads spread over
// idle cores each call pays for waking them, a cost that changed by up to half
// with the load on the other cores. So the process runs on one core (every
// hand-off between threads is a switch on that core, and the core is never
// idle while the loop runs), the window is cut into phases in which every
// client makes the same number of calls of one kind, and a phase's cost is
// the process CPU time it took (all threads; the guest kernel leaves out
// the time the host stole). The end-to-end figures are the CPU time per
// call of each kind, a low percentile over the window's phases (see
// kReportedPercentile), scaled to a reference core speed (see end_to_end).
// Wall-clock rates and latencies are printed as context only.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced phases within the window, replays the traced phases' inputs
// through the layers one at a time (replay.h), and prints the per-layer
// metrics, the tracing overhead (traced against untraced phases), and a
// span dump path. The last stdout line is the result object; the lines
// before it give the run context. Exit codes: 0 ok, 1 a correctness check
// failed, 2 bad usage, 3 a build that must not report (Debug, DCHECK,
// lockdep or sanitizer).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clusterfile/fs.h"
#include "core.h"
#include "replay.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// setup_s is the process CPU time of one set-up (cluster, seeded matrix,
/// initial views). Set-up is bound by memory traffic, and other tenants of
/// the host slowed it by up to 80% in stretches of seconds, so a run times
/// one set-up every kSetupPeriod seconds of its window (each on the quiet
/// core between two phases, torn down at once) and reports their
/// kReportedPercentile.
constexpr double kSetupPeriod = 0.2;
/// The view sample of an I/O workload: set_view phases spread evenly over
/// the window, each of kViewsPerPhase calls per client on a second compute
/// node the client thread also drives (so the I/O node's plan cache stays
/// warm). Their number is fixed, and views are never released, so what a
/// run holds does not depend on the loop's speed.
constexpr int kViewPhases = 50;
constexpr int kViewsPerPhase = 10;
/// Untimed closed-loop work before a timed window, so the window does not
/// start on cold caches or a heap that is still growing.
constexpr double kWarmupSeconds = 2.0;
/// Generated reads (and writes) per client of an I/O workload, cycled.
constexpr std::size_t kRingOps = std::size_t{1} << 13;
/// The shared ThreadPool's size, pinned: its default follows the core
/// count, and set_view fans out over it.
constexpr const char* kPoolThreads = "2";
/// Traced run: the spans each client keeps (a ring written on every traced
/// call, the dump holding the last ones), and the inputs kept for the
/// replay.
constexpr std::size_t kSpanRing = std::size_t{1} << 16;
constexpr std::size_t kMaxRecorded = 2000;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
/// CPU time of every thread the process has run, ended ones included.
double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// Restricts the calling thread, and so every thread it starts later, to
/// the highest-numbered core it may run on (the low ones take most device
/// interrupts). Returns that core, or -1 when the mask could not be read.
int pin_to_one_core() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int core = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &set)) core = i;
  if (core < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? core : -1;
}

// --- arguments and run context --------------------------------------------

struct Args {
  Workload workload = Workload::kStridedMismatch;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::filesystem::path work_dir;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have[5] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    const auto number = [&](std::uint64_t& out) {
      const auto [p, ec] =
          std::from_chars(val.data(), val.data() + val.size(), out);
      return ec == std::errc{} && p == val.data() + val.size();
    };
    std::uint64_t n = 0;
    if (key == "--workload") {
      const auto w = parse_workload(val);
      if (!w) return std::nullopt;
      a.workload = *w;
      have[0] = true;
    } else if (key == "--seed") {
      if (!number(a.seed)) return std::nullopt;
      have[1] = true;
    } else if (key == "--seconds") {
      if (!number(n) || n < 1 || n > 600) return std::nullopt;
      a.seconds = static_cast<int>(n);
      have[2] = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return std::nullopt;
      a.trace = val == "1";
      have[3] = true;
    } else if (key == "--work-dir") {
      a.work_dir = val;
      have[4] = true;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1) return std::nullopt;
  for (const bool h : have)
    if (!h) return std::nullopt;
  return a;
}

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

// --- output ----------------------------------------------------------------

std::string number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + number(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

/// The machine's aggregate CPU time counters (/proc/stat), in clock ticks:
/// the share a virtual machine's host took (steal) is part of the context a
/// run reports.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;

  static CpuTicks now() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    CpuTicks t;
    std::uint64_t v = 0;
    // user nice system idle iowait irq softirq steal; guest time is
    // already part of user.
    for (int i = 0; i < 8 && in >> v; ++i) {
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }
  CpuTicks operator-(const CpuTicks& o) const {
    return {total - o.total, steal - o.steal};
  }
  double steal_share() const {
    return total > 0 ? static_cast<double>(steal) / static_cast<double>(total) : 0;
  }
};

/// The kind of file system `dir` is on, as far as the run context needs it.
std::string fs_type(const std::filesystem::path& dir) {
  struct statfs st{};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0xef53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683e: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

double peak_rss_mb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- per-client execution --------------------------------------------------

/// One trace span: [start, start + dur) µs since the run's epoch; `parent`
/// is the SpanRing index of the call's span (-1 for a call span), `call`
/// numbers the client call the span belongs to.
struct Span {
  const char* name = "";
  double start_us = 0;
  double dur_us = 0;
  std::int64_t parent = -1;
  std::int64_t call = 0;
};

/// A client's spans: a ring touched up front and written on every traced
/// call, so tracing costs the same throughout a run and holds its last
/// `capacity` spans.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity) : v_(capacity) {}
  /// Returns the span's index, which `parent` refers to.
  std::int64_t add(const Span& s) {
    v_[static_cast<std::size_t>(n_) % v_.size()] = s;
    return n_++;
  }
  std::int64_t added() const { return n_; }
  /// Calls fn(span) for the retained spans whose parent is retained too.
  template <typename Fn>
  void for_each(Fn fn) const {
    const std::int64_t first =
        std::max<std::int64_t>(0, n_ - static_cast<std::int64_t>(v_.size()));
    for (std::int64_t i = first; i < n_; ++i) {
      const Span& s = v_[static_cast<std::size_t>(i) % v_.size()];
      if (s.parent < 0 || s.parent >= first) fn(s);
    }
  }

 private:
  std::vector<Span> v_;
  std::int64_t n_ = 0;
};

/// Counters a client keeps over a run; the logs of all clients fold into
/// one with +=.
struct Counters {
  // Measured calls, and every call including warm-up.
  std::int64_t reads = 0, writes = 0, views = 0;
  std::int64_t all_calls = 0, all_user_bytes = 0, all_read_messages = 0;
  std::int64_t failed = 0, mismatches = 0;
  // Sums over measured calls (µs), from AccessTimings and the view timers.
  double t_m = 0, t_w = 0, t_g_read = 0, t_g_write = 0, t_i = 0, ship = 0;
  double read_lat = 0, write_lat = 0, view_lat = 0;
  double read_covered = 0, write_covered = 0, view_covered = 0;
  std::int64_t plan_hits = 0, plan_misses = 0, stragglers = 0;

  Counters& operator+=(const Counters& o) {
    reads += o.reads, writes += o.writes, views += o.views;
    all_calls += o.all_calls, all_user_bytes += o.all_user_bytes;
    all_read_messages += o.all_read_messages;
    failed += o.failed, mismatches += o.mismatches;
    t_m += o.t_m, t_w += o.t_w, t_g_read += o.t_g_read;
    t_g_write += o.t_g_write, t_i += o.t_i, ship += o.ship;
    read_lat += o.read_lat, write_lat += o.write_lat, view_lat += o.view_lat;
    read_covered += o.read_covered, write_covered += o.write_covered;
    view_covered += o.view_covered;
    plan_hits += o.plan_hits, plan_misses += o.plan_misses;
    stragglers += o.stragglers;
    return *this;
  }
};

/// Everything one client thread observed in a run (cache-line aligned: the
/// two clients' logs sit side by side and are written on every call).
struct alignas(64) ClientLog {
  explicit ClientLog(std::size_t span_capacity) : spans(span_capacity) {}
  Counters n;
  std::int64_t phase_calls = 0;  ///< calls made in the current phase
  // Traced phases only.
  SpanRing spans;
  std::vector<RecordedView> rec_views;
  std::vector<RecordedAccess> rec_accesses;
};

/// The FALLS of every view the workloads set, built once.
class ViewCatalog {
 public:
  ViewCatalog() {
    add(io_view());
    for (const Grid2D& g : churn_shapes()) add(g);
  }
  const pfm::FallsSet& falls(const Grid2D& shape, std::int64_t elem) const {
    for (const auto& [g, sets] : entries_)
      if (g == shape) return sets.at(static_cast<std::size_t>(elem));
    throw std::out_of_range("ViewCatalog: unknown view shape");
  }

 private:
  void add(const Grid2D& g) {
    std::vector<pfm::FallsSet> sets;
    for (std::int64_t e = 0; e < g.parts(); ++e) sets.push_back(g.falls(e));
    entries_.emplace_back(g, std::move(sets));
  }
  std::vector<std::pair<Grid2D, std::vector<pfm::FallsSet>>> entries_;
};

pfm::FallsSet whole_file() { return {pfm::make_falls(0, kFileBytes - 1, kFileBytes, 1)}; }

/// A view a client set: its partition element and the id the client gave it.
struct ViewRef {
  Grid2D shape;
  std::int64_t elem = 0;
  std::int64_t id = -1;
};

/// Makes one client's calls, timing each around the ClusterfileClient call
/// alone and checking it against the shadow. A call that throws counts as
/// failed.
class ClientRunner {
 public:
  ClientRunner(pfm::ClusterfileClient& client, Shadow& shadow,
               const ViewCatalog& catalog,
               const std::vector<pfm::Buffer>* payloads, ClientLog& log,
               Clock::time_point epoch)
      : client_(client),
        shadow_(shadow),
        catalog_(catalog),
        payloads_(payloads),
        log_(log),
        epoch_(epoch) {}

  /// Calls of an unmeasured phase are checked but not logged (warm-up).
  void set_phase(bool measuring, bool traced) {
    measuring_ = measuring;
    traced_ = measuring && traced;
  }

  ViewRef set_view(const Op& op) {
    ViewRef v{op.shape, op.elem, -1};
    guarded([&] { v.id = do_set_view(op); });
    return v;
  }
  void read(const ViewRef& v, const Op& op) {
    guarded([&] { do_read(v, op); });
  }
  void write(const ViewRef& v, const Op& op) {
    guarded([&] { do_write(v, op); });
  }

 private:
  template <typename Fn>
  void guarded(Fn fn) {
    ++log_.n.all_calls;
    ++log_.phase_calls;
    try {
      fn();
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  void fail(const std::string& why) {
    if (log_.n.failed++ == 0) std::cerr << "perfbench: call failed: " << why << "\n";
  }

  std::int64_t span(const char* name, Clock::time_point start, double dur_us,
                    std::int64_t parent) {
    return log_.spans.add(
        {name, us_between(epoch_, start), dur_us, parent, log_.n.all_calls});
  }

  /// Child spans of a read or write, laid end to end from the call start
  /// in the order the client runs the phases.
  void access_spans(const char* call, Clock::time_point t0, double lat,
                    const pfm::ClusterfileClient::AccessTimings& t,
                    bool is_write) {
    const std::int64_t parent = span(call, t0, lat, -1);
    auto at = t0;
    const auto child = [&](const char* name, double us) {
      span(name, at, us, parent);
      at += to_duration(us / 1e6);
    };
    child("client.plan", t.t_m_us);
    if (is_write) child("client.gather", t.t_g_us);
    child("client.wait", t.t_w_us);
    if (!is_write) child("client.scatter", t.t_g_us);
  }

  std::int64_t do_set_view(const Op& op) {
    pfm::FallsSet falls = catalog_.falls(op.shape, op.elem);
    const auto t0 = Clock::now();
    const std::int64_t id = client_.set_view(std::move(falls), kFileBytes);
    const double lat = us_between(t0, Clock::now());
    if (!measuring_) return id;
    const double t_i = client_.last_view_set_us();
    const double total = client_.last_view_total_us();
    Counters& n = log_.n;
    ++n.views;
    n.t_i += t_i;
    n.ship += total - t_i;
    n.view_lat += lat;
    n.view_covered += total;
    if (!traced_) return id;
    const std::int64_t parent = span("client.set_view", t0, lat, -1);
    span("client.t_i", t0, t_i, parent);
    span("client.view_ship", t0 + to_duration(t_i / 1e6), total - t_i, parent);
    if (log_.rec_views.size() < kMaxRecorded)
      log_.rec_views.push_back({op.shape, op.elem, t_i});
    return id;
  }

  void record(const ViewRef& v, const Op& op, bool is_write,
              Clock::time_point t0,
              const pfm::ClusterfileClient::AccessTimings& t, double lat) {
    Counters& n = log_.n;
    n.all_user_bytes += op.length;
    if (!is_write) n.all_read_messages += t.messages;
    if (!measuring_) return;
    const double covered = t.t_m_us + t.t_g_us + t.t_w_us;
    if (is_write) {
      ++n.writes;
      n.t_g_write += t.t_g_us;
      n.write_lat += lat;
      n.write_covered += covered;
      n.stragglers += t.stragglers;
    } else {
      ++n.reads;
      n.t_g_read += t.t_g_us;
      n.read_lat += lat;
      n.read_covered += covered;
    }
    n.t_m += t.t_m_us;
    n.t_w += t.t_w_us;
    n.plan_hits += t.plan_hits;
    n.plan_misses += t.plan_misses;
    if (!traced_) return;
    access_spans(is_write ? "client.write" : "client.read", t0, lat, t, is_write);
    if (log_.rec_accesses.size() < kMaxRecorded)
      log_.rec_accesses.push_back({v.shape, v.elem, op.offset, op.length, is_write});
  }

  void do_read(const ViewRef& v, const Op& op) {
    buf_.resize(static_cast<std::size_t>(op.length));
    const auto t0 = Clock::now();
    const auto t = client_.read(v.id, op.offset, op.offset + op.length - 1, buf_);
    const double lat = us_between(t0, Clock::now());
    if (!t.ok()) return fail("read: a target failed");
    if (!shadow_.matches(v.shape, v.elem, op.offset, buf_)) {
      if (log_.n.mismatches++ == 0)
        std::cerr << "perfbench: read at view offset " << op.offset
                  << " differs from the shadow copy\n";
    }
    record(v, op, false, t0, t, lat);
  }

  void do_write(const ViewRef& v, const Op& op) {
    // view_churn rewrites the bytes the file already holds, so reads
    // racing a write of the other client stay verifiable.
    std::span<const std::byte> data;
    if (payloads_ != nullptr) {
      data = (*payloads_)[op.payload];
    } else {
      buf_.resize(static_cast<std::size_t>(op.length));
      shadow_.expected(v.shape, v.elem, op.offset, buf_);
      data = buf_;
    }
    const auto t0 = Clock::now();
    const auto t = client_.write(v.id, op.offset, op.offset + op.length - 1, data);
    const double lat = us_between(t0, Clock::now());
    if (!t.ok()) return fail("write: a target failed");
    if (payloads_ != nullptr) shadow_.apply(v.shape, v.elem, op.offset, data);
    record(v, op, true, t0, t, lat);
  }

  pfm::ClusterfileClient& client_;
  Shadow& shadow_;
  const ViewCatalog& catalog_;
  const std::vector<pfm::Buffer>* payloads_;  ///< null: content-preserving
  ClientLog& log_;
  Clock::time_point epoch_;
  bool measuring_ = false;
  bool traced_ = false;
  pfm::Buffer buf_;
};

// --- clusters --------------------------------------------------------------

std::unique_ptr<pfm::Clusterfile> make_cluster(const WorkloadSpec& spec,
                                               const pfm::Buffer& image,
                                               const ViewCatalog& catalog) {
  pfm::ClusterConfig cfg;
  // Compute nodes [0, kClients) run the I/O; the I/O workloads install
  // their view sample on nodes [kClients, 2 * kClients).
  cfg.compute_nodes = 2 * kClients;
  cfg.io_nodes = kIoNodes;
  cfg.replication = spec.replication;
  cfg.write_quorum = spec.write_quorum;
  std::vector<pfm::FallsSet> elems;
  for (std::int64_t e = 0; e < spec.physical.parts(); ++e)
    elems.push_back(spec.physical.falls(e));
  auto fs = std::make_unique<pfm::Clusterfile>(
      cfg, pfm::PartitioningPattern(std::move(elems), 0));
  // Seed the whole matrix, so no read ever reaches past a subfile's
  // written extent, then install every client's initial view.
  pfm::ClusterfileClient& seeder = fs->client(0);
  const std::int64_t whole = seeder.set_view(whole_file(), kFileBytes);
  if (!seeder.write(whole, 0, kFileBytes - 1, image).ok())
    throw std::runtime_error("seeding the matrix failed");
  fs->drain_stragglers();
  for (int c = 0; c < kClients; ++c)
    fs->client(c).set_view(catalog.falls(io_view(), c), kFileBytes);
  return fs;
}

/// Cluster-wide counters a window reads as deltas.
struct ClusterCounters {
  std::int64_t messages = 0, wire_bytes = 0, server_writes = 0;
  double scatter_us = 0, gather_us = 0;

  static ClusterCounters of(pfm::Clusterfile& fs) {
    ClusterCounters c;
    c.messages = fs.network().messages_sent();
    c.wire_bytes = fs.network().bytes_sent();
    // Static placement: subfile i's primary is I/O node i, so the primaries
    // of the kIoNodes subfiles are the kIoNodes servers.
    for (std::size_t i = 0; i < fs.subfile_count(); ++i) {
      const pfm::IoServer& s = fs.server_for(i);
      c.scatter_us += s.scatter_us();
      c.gather_us += s.gather_us();
      c.server_writes += s.writes_served();
    }
    return c;
  }
  ClusterCounters operator-(const ClusterCounters& o) const {
    return {messages - o.messages, wire_bytes - o.wire_bytes,
            server_writes - o.server_writes, scatter_us - o.scatter_us,
            gather_us - o.gather_us};
  }
  ClusterCounters& operator+=(const ClusterCounters& o) {
    messages += o.messages;
    wire_bytes += o.wire_bytes;
    server_writes += o.server_writes;
    scatter_us += o.scatter_us;
    gather_us += o.gather_us;
    return *this;
  }
};

/// End-of-cluster correctness: stragglers drained with none abandoned,
/// counter-clean reliability on this fault-free run, the whole file read
/// back equal to the shadow, and (replicated) a clean scrub. Returns the
/// number of failed checks.
struct FinishReport {
  int failed_checks = 0;
  double drain_us = 0;
  std::int64_t retries = 0, timeouts = 0;
};

FinishReport finish_cluster(pfm::Clusterfile& fs, const WorkloadSpec& spec,
                            const Shadow& shadow) {
  FinishReport r;
  const auto check = [&](bool ok, const char* what) {
    if (ok) return;
    ++r.failed_checks;
    std::cerr << "perfbench: check failed: " << what << "\n";
  };
  const auto t0 = Clock::now();
  fs.drain_stragglers();
  r.drain_us = us_between(t0, Clock::now());
  check(fs.stragglers_abandoned() == 0, "abandoned quorum stragglers");
  const pfm::ReliabilityCounters crel = fs.client_reliability();
  const pfm::ReliabilityCounters srel = fs.server_reliability();
  r.retries = crel.retries;
  r.timeouts = crel.timeouts;
  check(crel.all_zero(), "client reliability counters not all zero");
  check(srel.all_zero(), "server reliability counters not all zero");
  try {
    pfm::ClusterfileClient& c0 = fs.client(0);
    const std::int64_t vid = c0.set_view(whole_file(), kFileBytes);
    pfm::Buffer back(static_cast<std::size_t>(kFileBytes));
    const bool ok = c0.read(vid, 0, kFileBytes - 1, back).ok();
    check(ok && back == shadow.bytes(), "whole-file read-back differs");
  } catch (const std::exception&) {
    check(false, "whole-file read-back threw");
  }
  if (spec.replication > 1) check(fs.scrub().clean(), "scrub found divergence");
  return r;
}

// --- windows ---------------------------------------------------------------

struct Inputs {
  Args args;
  WorkloadSpec spec;
  ViewCatalog catalog;
  pfm::Buffer image;
  std::vector<std::vector<Op>> reads, writes;      ///< I/O workloads
  std::vector<std::vector<pfm::Buffer>> payloads;  ///< I/O workloads
  Clock::time_point epoch;
};

/// A run's timed window: its measured phases, the reference kernel's CPU
/// time beside each, the set-ups timed between them, the per-client logs,
/// and what the window saw of the cluster (or, for view_churn, of its
/// clusters).
struct Window {
  explicit Window(bool traced) {
    logs.reserve(kClients);
    for (int c = 0; c < kClients; ++c) logs.emplace_back(traced ? kSpanRing : 0);
  }

  std::vector<PhaseStat> phases;
  std::vector<double> kernel_us;
  std::vector<double> setup_s;
  Clock::time_point next_setup;  ///< when the next set-up is due
  std::vector<ClientLog> logs;
  double drain_us = 0;  ///< mean straggler drain per cluster
  ClusterCounters counters;
  std::int64_t failed_checks = 0;
  std::int64_t retries = 0, timeouts = 0;

  double measured_seconds() const {
    double s = 0;
    for (const PhaseStat& p : phases) s += p.wall_s;
    return s;
  }
};

/// What every client does next.
struct Phase {
  OpKind kind = OpKind::kRead;
  bool measured = false;
  bool traced = false;
  bool stop = false;
};

/// The phase protocol both windows share: the clients run the same phase
/// between two arrivals at a barrier, whose completion step (run by the
/// last client to arrive, while the others wait) closes the phase and asks
/// `next` for the following one. Closing a measured phase records its
/// process CPU time, wall time and calls, after draining the stragglers of
/// a write phase (their replica writes belong to it), then times the
/// reference kernel and, when one is due, a set-up on the now quiet core.
class Phaser {
 public:
  Phaser(pfm::Clusterfile& fs, Window& w, const Inputs& in,
         std::function<Phase()> next)
      : fs_(fs), w_(w), in_(in), next_(std::move(next)),
        sync_(kClients, Step{this}) {}

  /// Waits for every client; returns the phase to run next.
  Phase arrive() {
    sync_.arrive_and_wait();
    return cur_;
  }

 private:
  struct Step {
    Phaser* p;
    void operator()() noexcept { p->step(); }
  };

  void step() noexcept {
    try {
      if (cur_.kind == OpKind::kWrite) fs_.drain_stragglers();
      const double cpu = process_cpu_s();
      const auto now = Clock::now();
      std::int64_t calls = 0;
      for (ClientLog& l : w_.logs) calls += std::exchange(l.phase_calls, 0);
      if (cur_.measured) {
        w_.phases.push_back({cur_.kind, cur_.traced, calls, cpu - cpu0_,
                             us_between(wall0_, now) / 1e6});
        const double t0 = thread_cpu_s();
        sink_ ^= reference_kernel();
        w_.kernel_us.push_back((thread_cpu_s() - t0) * 1e6);
        if (now >= w_.next_setup) {
          w_.next_setup = now + to_duration(kSetupPeriod);
          const double cpu0 = process_cpu_s();
          auto fs = make_cluster(in_.spec, in_.image, in_.catalog);
          w_.setup_s.push_back(process_cpu_s() - cpu0);
        }
      }
      cur_ = next_();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: phase step failed: " << e.what() << "\n";
      ++w_.failed_checks;
      cur_.stop = true;
    }
    cpu0_ = process_cpu_s();
    wall0_ = Clock::now();
  }

  pfm::Clusterfile& fs_;
  Window& w_;
  const Inputs& in_;
  std::function<Phase()> next_;
  std::barrier<Step> sync_;
  Phase cur_;  ///< before the first arrival: an empty, unmeasured phase
  double cpu0_ = 0;
  Clock::time_point wall0_;
  std::uint64_t sink_ = 0;
};

/// Runs body(c) on kClients threads, c in [0, kClients).
template <typename Body>
void run_clients(Body body) {
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back([&, c] { body(c); });
  for (std::thread& t : threads) t.join();
}

/// The timed window of an I/O workload on an existing cluster: write and
/// read phases of spec.phase_calls calls per client, alternating, after
/// kWarmupSeconds of unmeasured ones. After a read phase, a set_view phase
/// runs when the next of the kViewPhases is due; the ones a window that
/// ended early did not reach run unmeasured at its end.
void run_io_window(pfm::Clusterfile& fs, Shadow& shadow, const Inputs& in,
                   double seconds, Window& w) {
  const ClusterCounters before = ClusterCounters::of(fs);
  const auto warm_end = Clock::now() + to_duration(kWarmupSeconds);
  std::optional<Clock::time_point> start;
  int view_phases = 0;
  std::int64_t cycles = 0;
  Phase last;
  const auto next = [&]() -> Phase {
    const auto now = Clock::now();
    if (!start && now >= warm_end) start = now;
    const bool open = start && now < *start + to_duration(seconds);
    const auto due = [&] {
      return *start + to_duration(seconds * (view_phases + 0.5) / kViewPhases);
    };
    Phase p;
    if (start && !open) {
      if (view_phases == kViewPhases) return {OpKind::kRead, false, false, true};
      p.kind = OpKind::kSetView;
    } else if (last.kind == OpKind::kRead && start && view_phases < kViewPhases &&
               now >= due()) {
      p.kind = OpKind::kSetView;
    } else {
      p.kind = last.kind == OpKind::kWrite ? OpKind::kRead : OpKind::kWrite;
      if (p.kind == OpKind::kWrite) ++cycles;
    }
    p.measured = open;
    if (p.kind == OpKind::kSetView) {
      p.traced = in.args.trace && view_phases % 2 == 1;
      ++view_phases;
    } else {
      p.traced = in.args.trace && cycles % 2 == 0;
    }
    // A view phase leaves the read/write alternation where it was.
    if (p.kind != OpKind::kSetView) last = p;
    return p;
  };
  Phaser phaser(fs, w, in, next);
  run_clients([&](int c) {
    const auto ci = static_cast<std::size_t>(c);
    ClientRunner io(fs.client(c), shadow, in.catalog, &in.payloads[ci],
                    w.logs[ci], in.epoch);
    ClientRunner viewer(fs.client(kClients + c), shadow, in.catalog, nullptr,
                        w.logs[ci], in.epoch);
    Op view_op;
    view_op.kind = OpKind::kSetView;
    view_op.shape = io_view();
    view_op.elem = c;
    const ViewRef view = io.set_view(view_op);
    const std::vector<Op>& reads = in.reads[ci];
    const std::vector<Op>& writes = in.writes[ci];
    std::size_t r = 0, wr = 0;
    for (Phase p = phaser.arrive(); !p.stop; p = phaser.arrive()) {
      io.set_phase(p.measured, p.traced);
      viewer.set_phase(p.measured, p.traced);
      switch (p.kind) {
        case OpKind::kRead:
          for (int i = 0; i < in.spec.phase_calls; ++i)
            io.read(view, reads[r++ % reads.size()]);
          break;
        case OpKind::kWrite:
          for (int i = 0; i < in.spec.phase_calls; ++i)
            io.write(view, writes[wr++ % writes.size()]);
          break;
        case OpKind::kSetView:
          for (int i = 0; i < kViewsPerPhase; ++i) viewer.set_view(view_op);
          break;
      }
    }
  });
  w.counters = ClusterCounters::of(fs) - before;
}

/// The timed window of view_churn: fresh clusters of churn_steps steps per
/// client until the measured phases cover `seconds`, after an unmeasured
/// warm-up cluster of one round. A cluster runs its steps in rounds of
/// churn_round: a phase of the round's set_view calls, one of the reads
/// (each through its step's view, so every read misses the plan cache),
/// and one of the writes. In a traced run every second round is traced.
void run_churn_window(const Inputs& in, double seconds, Window& w) {
  const WorkloadSpec& spec = in.spec;
  Shadow shadow(in.image);
  int batch = 0;
  int clusters = 0;
  std::int64_t rounds_run = 0;
  const auto one_cluster = [&](int steps, bool measuring) {
    auto fs = make_cluster(spec, in.image, in.catalog);
    std::vector<std::vector<ChurnStep>> batches;
    for (int c = 0; c < kClients; ++c)
      batches.push_back(generate_churn_batch(in.args.seed, c, batch, steps));
    const int rounds = steps / spec.churn_round;
    int phase = 0;
    const auto next = [&]() -> Phase {
      if (phase == 3 * rounds) return {OpKind::kRead, false, false, true};
      static constexpr OpKind kOrder[3] = {OpKind::kSetView, OpKind::kRead,
                                           OpKind::kWrite};
      const bool traced = in.args.trace && (rounds_run + phase / 3) % 2 == 1;
      return {kOrder[phase++ % 3], measuring, traced, false};
    };
    const ClusterCounters before = ClusterCounters::of(*fs);
    {
      Phaser phaser(*fs, w, in, next);
      run_clients([&](int c) {
        const auto ci = static_cast<std::size_t>(c);
        ClientRunner runner(fs->client(c), shadow, in.catalog, nullptr,
                            w.logs[ci], in.epoch);
        const std::vector<ChurnStep>& mine = batches[ci];
        std::vector<ViewRef> views(static_cast<std::size_t>(spec.churn_round));
        std::size_t base = 0;
        for (Phase p = phaser.arrive(); !p.stop; p = phaser.arrive()) {
          runner.set_phase(p.measured, p.traced);
          for (std::size_t i = 0; i < views.size(); ++i) {
            const ChurnStep& s = mine[base + i];
            switch (p.kind) {
              case OpKind::kSetView: views[i] = runner.set_view(s.view); break;
              case OpKind::kRead: runner.read(views[i], s.read); break;
              case OpKind::kWrite:
                if (s.write) runner.write(views[i], *s.write);
                break;
            }
          }
          if (p.kind == OpKind::kWrite) base += views.size();
        }
      });
    }
    rounds_run += rounds;
    // Counted up to the clients' end, as an I/O window is: the checks
    // below add a whole-file view and read-back that no call accounts for.
    const ClusterCounters used = ClusterCounters::of(*fs) - before;
    const FinishReport fin = finish_cluster(*fs, spec, shadow);
    w.failed_checks += fin.failed_checks;
    ++batch;
    if (!measuring) return;
    w.counters += used;
    w.drain_us += fin.drain_us;
    w.retries += fin.retries;
    w.timeouts += fin.timeouts;
    ++clusters;
  };
  one_cluster(spec.churn_round, false);
  while (clusters == 0 || w.measured_seconds() < seconds)
    one_cluster(spec.churn_steps, true);
  w.drain_us /= clusters;
}

// --- reporting -------------------------------------------------------------

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

constexpr OpKind kKinds[3] = {OpKind::kWrite, OpKind::kRead, OpKind::kSetView};

/// Calls, CPU and wall seconds of the measured phases of `kind`.
PhaseStat total(const Window& w, OpKind kind) {
  PhaseStat t;
  t.kind = kind;
  for (const PhaseStat& p : w.phases) {
    if (p.kind != kind) continue;
    t.calls += p.calls;
    t.cpu_s += p.cpu_s;
    t.wall_s += p.wall_s;
  }
  return t;
}

/// Prints the wall-clock view of the window, as context: the call rate and
/// the mean latency per call kind (each client's share of the phases' time
/// per call it made).
void report_window(const Window& w, double host_steal) {
  std::int64_t calls = 0;
  double wall = 0;
  std::cout << "wall: {";
  const char* names[3] = {"write", "read", "view"};
  for (int k = 0; k < 3; ++k) {
    const PhaseStat t = total(w, kKinds[k]);
    calls += t.calls;
    wall += t.wall_s;
    std::cout << "\"" << names[k] << "_calls\": " << t.calls << ", \""
              << names[k] << "_mean_us\": "
              << number(ratio(t.wall_s * 1e6 * kClients, static_cast<double>(t.calls)))
              << ", ";
  }
  std::cout << "\"ops_per_s\": " << number(ratio(static_cast<double>(calls), wall))
            << ", \"seconds\": " << number(wall) << ", \"phases\": " << w.phases.size()
            << ", \"setups\": " << w.setup_s.size()
            << ", \"run_steal_share\": " << number(host_steal) << "}\n";
}

/// The end-to-end figures. The CPU ones are scaled to the reference core
/// speed: times kReferenceKernelUs over the run's own reference kernel
/// figure, taken the same way (kReportedPercentile of one timing after
/// every phase). A busy host can slow the core for the whole of a run, and
/// then slows the kernel with the cluster, if less: with other processes
/// loading the machine's other cores, scaling halved the spread of every
/// CPU figure between runs. The unscaled figures are printed as context.
std::vector<Metric> end_to_end(Window& w) {
  const double kernel = percentile(w.kernel_us, kReportedPercentile);
  const double scale = kReferenceKernelUs / kernel;
  const double write = cpu_us_per_call(w.phases, OpKind::kWrite, false);
  const double read = cpu_us_per_call(w.phases, OpKind::kRead, false);
  const double view = cpu_us_per_call(w.phases, OpKind::kSetView, false);
  const double setup = percentile(w.setup_s, kReportedPercentile);
  std::cout << "unscaled: {\"write_cpu_us\": " << number(write)
            << ", \"read_cpu_us\": " << number(read)
            << ", \"view_cpu_us\": " << number(view)
            << ", \"setup_s\": " << number(setup)
            << ", \"reference_kernel_us\": " << number(kernel) << "}\n";
  return {
      {"write_cpu_us", write * scale, "us"},
      {"read_cpu_us", read * scale, "us"},
      {"view_cpu_us", view * scale, "us"},
      {"setup_s", setup * scale, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Extra CPU per call of the traced phases over the untraced ones, each
/// kind weighted by its calls.
double tracing_overhead(const Window& w) {
  double traced = 0, untraced = 0;
  for (const OpKind k : kKinds) {
    const double calls = static_cast<double>(total(w, k).calls);
    const double t = cpu_us_per_call(w.phases, k, true);
    const double u = cpu_us_per_call(w.phases, k, false);
    if (calls == 0 || !std::isfinite(t) || !std::isfinite(u)) continue;
    traced += calls * t;
    untraced += calls * u;
  }
  return untraced > 0 ? traced / untraced - 1 : 0;
}

std::vector<Metric> per_layer(const Window& w, const Counters& t,
                              const ReplayResult& rr) {
  const double io = static_cast<double>(t.reads + t.writes);
  const double reads = static_cast<double>(t.reads);
  const double writes = static_cast<double>(t.writes);
  const double views = static_cast<double>(t.views);
  return {
      {"client.t_i_us", ratio(t.t_i, views), "us"},
      {"client.view_ship_us", ratio(t.ship, views), "us"},
      {"client.t_m_us", ratio(t.t_m, io), "us"},
      {"client.plan_hit_ratio",
       ratio(static_cast<double>(t.plan_hits),
             static_cast<double>(t.plan_hits + t.plan_misses)),
       "ratio"},
      {"client.t_w_us", ratio(t.t_w, io), "us"},
      {"client.stragglers_per_write",
       ratio(static_cast<double>(t.stragglers), writes), "count"},
      {"client.drain_us", w.drain_us, "us"},
      {"client.retries", static_cast<double>(w.retries), "count"},
      {"client.timeouts", static_cast<double>(w.timeouts), "count"},
      {"client.t_i_unattributed_us", rr.t_i_unattributed_us, "us"},
      {"intersect.nested_us", rr.nested_us, "us"},
      {"intersect.project_us", rr.project_us, "us"},
      {"falls.serialize_us", rr.serialize_us, "us"},
      {"falls.parse_us", rr.parse_us, "us"},
      {"falls.proj_meta_bytes", rr.proj_meta_bytes, "bytes"},
      {"redist.materialize_us", rr.materialize_us, "us"},
      {"redist.runs_per_op", rr.runs_per_op, "count"},
      {"redist.gather_us", ratio(t.t_g_write, writes), "us"},
      {"redist.scatter_us", ratio(t.t_g_read, reads), "us"},
      {"net.messages_per_op",
       ratio(static_cast<double>(w.counters.messages),
             static_cast<double>(t.all_calls)),
       "count"},
      {"net.bytes_per_user_byte",
       ratio(static_cast<double>(w.counters.wire_bytes),
             static_cast<double>(t.all_user_bytes)),
       "ratio"},
      {"channel.handoff_us", rr.handoff_us, "us"},
      {"server.scatter_us_per_write",
       ratio(w.counters.scatter_us, static_cast<double>(w.counters.server_writes)),
       "us"},
      {"server.gather_us_per_read",
       ratio(w.counters.gather_us, static_cast<double>(t.all_read_messages)),
       "us"},
      {"storage.writev_us", rr.writev_us, "us"},
      {"storage.readv_us", rr.readv_us, "us"},
      {"storage.flush_us", rr.flush_us, "us"},
      {"storage.epoch_us", rr.epoch_us, "us"},
      {"storage.crc32c_us", rr.crc32c_us, "us"},
      {"read.unattributed_share", ratio(t.read_lat - t.read_covered, t.read_lat),
       "ratio"},
      {"write.unattributed_share",
       ratio(t.write_lat - t.write_covered, t.write_lat), "ratio"},
      {"set_view.unattributed_share",
       ratio(t.view_lat - t.view_covered, t.view_lat), "ratio"},
      {"trace.overhead_share", tracing_overhead(w), "ratio"},
  };
}

/// Chrome trace-event JSON of the spans the clients' rings hold.
void dump_spans(const Window& w, const std::filesystem::path& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t c = 0; c < w.logs.size(); ++c) {
    w.logs[c].spans.for_each([&](const Span& s) {
      out << (first ? "" : ",\n") << "{\"name\": " << quoted(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << c
          << ", \"ts\": " << number(s.start_us) << ", \"dur\": "
          << number(s.dur_us) << ", \"args\": {\"parent\": " << s.parent
          << ", \"call\": " << s.call << "}}";
      first = false;
    });
  }
  out << "\n]}\n";
}

int run(const Args& args, int core) {
  Inputs in{args, workload_spec(args.workload), ViewCatalog{},
            initial_image(args.seed), {}, {}, {}, Clock::now()};
  const bool churn = in.spec.id == Workload::kViewChurn;
  std::filesystem::create_directories(args.work_dir);
  for (int c = 0; c < kClients && !churn; ++c) {
    in.reads.push_back(generate_io_ring(in.spec, args.seed, c, OpKind::kRead, kRingOps));
    in.writes.push_back(generate_io_ring(in.spec, args.seed, c, OpKind::kWrite, kRingOps));
    in.payloads.push_back(
        make_payload_pool(args.seed, c, kPayloadPool, in.spec.request_bytes));
  }
  std::cout << "context: {\"workload\": " << quoted(workload_name(args.workload))
            << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"core\": " << core
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"dchecks\": " << PFM_DCHECK_ENABLED
            << ", \"lockdep\": " << PFM_LOCKDEP_ENABLED
            << ", \"sanitizer\": " << (kSanitized ? 1 : 0)
            << ", \"pool_threads\": " << quoted(std::getenv("PFM_POOL_THREADS"))
            << ", \"clients\": " << kClients << ", \"io_nodes\": " << kIoNodes
            << ", \"storage\": \"memory\""
            << ", \"replay_storage\": "
            << quoted(in.spec.replay_on_file
                          ? (args.work_dir / "storage").string() + " (" +
                                fs_type(args.work_dir) + ")"
                          : "memory")
            << "}\n";

  const auto seconds = static_cast<double>(args.seconds);
  const CpuTicks ticks_start = CpuTicks::now();
  Window w(args.trace);
  if (churn) {
    run_churn_window(in, seconds, w);
  } else {
    std::unique_ptr<pfm::Clusterfile> fs = make_cluster(in.spec, in.image, in.catalog);
    Shadow shadow(in.image);
    run_io_window(*fs, shadow, in, seconds, w);
    const FinishReport fin = finish_cluster(*fs, in.spec, shadow);
    w.failed_checks += fin.failed_checks;
    w.drain_us = fin.drain_us;
    w.retries = fin.retries;
    w.timeouts = fin.timeouts;
  }
  const double host_steal = (CpuTicks::now() - ticks_start).steal_share();

  Counters n;
  for (const ClientLog& l : w.logs) n += l.n;
  const std::int64_t attempted = n.all_calls;
  const std::int64_t failed = w.failed_checks + n.failed + n.mismatches;
  std::cout << "failed_op_ratio: " << number(ratio(static_cast<double>(failed),
                                                   static_cast<double>(attempted)))
            << " (" << failed << " of " << attempted << " calls or checks)\n";
  report_window(w, host_steal);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(w);
  } else {
    std::vector<RecordedView> views;
    std::vector<RecordedAccess> accesses;
    for (const ClientLog& l : w.logs) {
      views.insert(views.end(), l.rec_views.begin(), l.rec_views.end());
      accesses.insert(accesses.end(), l.rec_accesses.begin(), l.rec_accesses.end());
    }
    const ReplayResult rr =
        replay(in.spec, views, accesses, in.image, args.work_dir / "storage");
    metrics = per_layer(w, n, rr);
    const std::filesystem::path dump =
        args.work_dir / ("trace-" + std::string(workload_name(args.workload)) +
                         "-" + std::to_string(args.seed) + ".json");
    dump_spans(w, dump);
    std::int64_t spans = 0;
    for (const ClientLog& l : w.logs) spans += l.spans.added();
    std::cout << "spans: " << spans << " recorded, the last " << kSpanRing
              << " per client written to " << dump.string() << "\n";
  }

  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Before any thread starts: every thread inherits the core, and the
  // shared pool reads its size once.
  const int core = pin_to_one_core();
  ::setenv("PFM_POOL_THREADS", kPoolThreads, 1);
  // Fixed allocator thresholds: glibc otherwise raises its mmap threshold
  // the first time a large block is freed, and when that happens decides
  // whether a run's 256 KiB buffers cost page faults on every call.
  ::mallopt(M_MMAP_THRESHOLD, 64 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 256 << 20);
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: pfm_perfbench --workload "
                 "<strided_mismatch|replicated_bulk|view_churn> --seed <n> "
                 "--seconds <1..600> --trace <0|1> --work-dir <dir>\n";
    return 2;
  }
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::transform(build_type.begin(), build_type.end(), build_type.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  if (build_type == "debug" || PFM_DCHECK_ENABLED || PFM_LOCKDEP_ENABLED ||
      kSanitized) {
    std::cerr << "perfbench: refusing to report from a Debug, DCHECK, lockdep "
                 "or sanitizer build\n";
    return 3;
  }
  try {
    return run(*args, core);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
