#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "cluster/channel.h"
#include "clusterfile/storage.h"
#include "falls/serialize.h"
#include "file_model/pattern.h"
#include "intersect/project.h"
#include "mapping/compose.h"
#include "redist/gather_scatter.h"
#include "util/crc32.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double mean(double total, std::int64_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

/// Caps on what one replay walks: enough calls for stable means, few
/// enough that the traced run stays short.
constexpr std::size_t kMaxViews = 2000;
constexpr std::size_t kMaxAccesses = 4000;
constexpr std::size_t kMaxStorageCalls = 400;
constexpr int kHandoffs = 4000;

pfm::PartitioningPattern physical_pattern(const WorkloadSpec& spec) {
  std::vector<pfm::FallsSet> elems;
  for (std::int64_t e = 0; e < spec.physical.parts(); ++e)
    elems.push_back(spec.physical.falls(e));
  return pfm::PartitioningPattern(std::move(elems), 0);
}

/// What the client and the servers keep per (view, subfile) after
/// set_view: the two projections as periodic index sets.
struct ViewTarget {
  std::size_t subfile = 0;
  pfm::IndexSet proj_v;
  pfm::IndexSet proj_s;
};
struct InstalledView {
  pfm::FallsSet falls;
  std::vector<ViewTarget> targets;
};

InstalledView install(const pfm::PartitioningPattern& phys, const Grid2D& shape,
                      std::int64_t elem) {
  InstalledView iv;
  iv.falls = shape.falls(elem);
  const pfm::PatternElement view_elem{iv.falls, kFileBytes, 0};
  for (std::size_t j = 0; j < phys.element_count(); ++j) {
    const pfm::Intersection x =
        pfm::intersect_nested(view_elem, phys.pattern_element(j));
    if (x.empty()) continue;
    const pfm::Projection pv = pfm::project(x, view_elem);
    const pfm::Projection ps = pfm::project(x, phys.pattern_element(j));
    iv.targets.push_back({j, pfm::IndexSet(pv.falls, pv.period),
                          pfm::IndexSet(ps.falls, ps.period)});
  }
  return iv;
}

/// Mean one-way hand-off of a `bytes`-payload message between two threads
/// over a pair of Channels (half a ping-pong round trip).
double channel_handoff_us(std::int64_t bytes) {
  pfm::Channel ping;
  pfm::Channel pong;
  std::thread echo([&] {
    while (std::optional<pfm::Message> m = ping.receive()) {
      if (m->kind == pfm::MsgKind::kShutdown) break;
      pong.send(std::move(*m));
    }
  });
  pfm::Message msg;
  msg.kind = pfm::MsgKind::kWrite;
  msg.payload.resize(static_cast<std::size_t>(bytes));
  double total = 0;
  for (int i = 0; i < kHandoffs; ++i) {
    const auto t0 = Clock::now();
    ping.send(std::move(msg));
    msg = std::move(*pong.receive());
    total += since_us(t0);
  }
  pfm::Message stop;
  stop.kind = pfm::MsgKind::kShutdown;
  ping.send(std::move(stop));
  echo.join();
  return total / (2.0 * kHandoffs);
}

}  // namespace

ReplayResult replay(const WorkloadSpec& spec,
                    const std::vector<RecordedView>& views,
                    const std::vector<RecordedAccess>& accesses,
                    const pfm::Buffer& image,
                    const std::filesystem::path& storage_dir) {
  ReplayResult r;
  const pfm::PartitioningPattern phys = physical_pattern(spec);

  // set_view's algebra, one layer call at a time, serially.
  std::int64_t nviews = 0;
  double unattributed = 0;
  for (const RecordedView& v : views) {
    if (static_cast<std::size_t>(nviews) == kMaxViews) break;
    const pfm::FallsSet falls = v.shape.falls(v.elem);
    const pfm::PatternElement view_elem{falls, kFileBytes, 0};
    double serial = 0;
    for (std::size_t j = 0; j < phys.element_count(); ++j) {
      auto t0 = Clock::now();
      const pfm::Intersection x =
          pfm::intersect_nested(view_elem, phys.pattern_element(j));
      double us = since_us(t0);
      r.nested_us += us;
      serial += us;
      if (x.empty()) continue;
      t0 = Clock::now();
      const pfm::Projection pv = pfm::project(x, view_elem);
      const pfm::Projection ps = pfm::project(x, phys.pattern_element(j));
      us = since_us(t0);
      r.project_us += us;
      serial += us;
      t0 = Clock::now();
      const std::string meta = pfm::serialize(ps.falls);
      us = since_us(t0);
      r.serialize_us += us;
      serial += us;
      r.proj_meta_bytes += static_cast<double>(meta.size());
      t0 = Clock::now();
      const pfm::FallsSet parsed = pfm::parse_falls_set(meta);
      r.parse_us += since_us(t0);
      if (parsed.empty() || pv.empty())
        throw std::runtime_error("replay: empty projection of a non-empty view");
    }
    unattributed += v.t_i_us - serial;
    ++nviews;
  }
  r.nested_us = mean(r.nested_us, nviews);
  r.project_us = mean(r.project_us, nviews);
  r.serialize_us = mean(r.serialize_us, nviews);
  r.parse_us = mean(r.parse_us, nviews);
  r.proj_meta_bytes = mean(r.proj_meta_bytes, nviews);
  r.t_i_unattributed_us = mean(unattributed, nviews);

  // Access plans: the client's materialization per target, and the
  // server-side subfile runs the storage replay below applies.
  struct StorageCall {
    std::size_t subfile = 0;
    std::vector<pfm::IoVec> runs;
    std::int64_t bytes = 0;
    bool write = false;
  };
  std::vector<StorageCall> calls;
  struct Installed {
    Grid2D shape;
    std::int64_t elem = 0;
    InstalledView view;
  };
  std::vector<Installed> installed;  // the few distinct views accessed
  std::int64_t naccesses = 0;
  std::int64_t runs = 0;
  for (const RecordedAccess& a : accesses) {
    if (static_cast<std::size_t>(naccesses) == kMaxAccesses) break;
    auto it = std::find_if(installed.begin(), installed.end(),
                           [&](const Installed& i) {
                             return i.shape == a.shape && i.elem == a.elem;
                           });
    if (it == installed.end())
      it = installed.insert(installed.end(),
                            {a.shape, a.elem, install(phys, a.shape, a.elem)});
    const InstalledView& iv = it->view;
    const pfm::ElementRef view_ref{&iv.falls, 0, kFileBytes};
    const std::int64_t v = a.offset;
    const std::int64_t w = a.offset + a.length - 1;
    for (const ViewTarget& t : iv.targets) {
      const auto t0 = Clock::now();
      const pfm::RunList rl = t.proj_v.materialize_in(v, w);
      r.materialize_us += since_us(t0);
      if (rl.bytes == 0) continue;
      runs += static_cast<std::int64_t>(rl.runs.size());
      const auto sub = pfm::map_interval(view_ref, phys.element_ref(t.subfile),
                                         v, w);
      if (!sub || calls.size() == kMaxStorageCalls) continue;
      StorageCall call;
      call.subfile = t.subfile;
      call.write = a.write;
      t.proj_s.for_each_run_in(sub->lo, sub->hi,
                               [&](std::int64_t lo, std::int64_t hi) {
                                 call.runs.push_back({lo, hi - lo + 1});
                                 call.bytes += hi - lo + 1;
                               });
      calls.push_back(std::move(call));
    }
    ++naccesses;
  }
  r.materialize_us = mean(r.materialize_us, naccesses);
  r.runs_per_op = mean(static_cast<double>(runs), naccesses);

  r.handoff_us = channel_handoff_us(spec.request_bytes);

  // One replica's storage stack per subfile, built as Clusterfile builds
  // it (make_storage, plus the integrity layer when replicated), seeded
  // with the subfile's bytes of the initial image.
  const bool integrity = spec.replication > 1;
  std::filesystem::path dir;
  if (spec.replay_on_file) {
    dir = storage_dir;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  std::vector<std::unique_ptr<pfm::SubfileStorage>> stacks;
  for (std::size_t j = 0; j < phys.element_count(); ++j) {
    auto s = pfm::make_storage(dir, static_cast<int>(j));
    if (integrity)
      s = std::make_unique<pfm::IntegrityStorage>(
          std::move(s), pfm::IntegrityStorage::kDefaultBlock);
    pfm::Buffer bytes(static_cast<std::size_t>(spec.physical.element_bytes()));
    spec.physical.for_each_run(
        static_cast<std::int64_t>(j), 0, spec.physical.element_bytes(),
        [&](std::int64_t file, std::int64_t rel, std::int64_t len) {
          std::memcpy(bytes.data() + rel, image.data() + file,
                      static_cast<std::size_t>(len));
        });
    s->write(0, bytes);
    stacks.push_back(std::move(s));
  }
  std::int64_t writes = 0;
  std::int64_t reads = 0;
  pfm::Buffer buf;
  for (const StorageCall& c : calls) {
    buf.resize(static_cast<std::size_t>(c.bytes));
    pfm::SubfileStorage& s = *stacks[c.subfile];
    if (c.write) {
      // The I/O server's order: apply, make durable, advance the epoch.
      fill_seeded(buf, static_cast<std::uint64_t>(writes));
      auto t0 = Clock::now();
      s.writev(c.runs, buf);
      r.writev_us += since_us(t0);
      t0 = Clock::now();
      s.flush();
      r.flush_us += since_us(t0);
      t0 = Clock::now();
      s.set_epoch(s.epoch() + 1);
      r.epoch_us += since_us(t0);
      if (integrity) {
        // The integrity layer's work per write: one CRC32C per touched
        // block (crc32c lives in another translation unit, so the calls
        // are not optimized away).
        constexpr auto kBlock =
            static_cast<std::size_t>(pfm::IntegrityStorage::kDefaultBlock);
        t0 = Clock::now();
        for (std::size_t off = 0; off < buf.size(); off += kBlock)
          (void)pfm::crc32c(buf.data() + off,
                            std::min(kBlock, buf.size() - off));
        r.crc32c_us += since_us(t0);
      }
      ++writes;
    } else {
      const auto t0 = Clock::now();
      s.readv(c.runs, buf);
      r.readv_us += since_us(t0);
      ++reads;
    }
  }
  stacks.clear();
  if (!dir.empty()) std::filesystem::remove_all(dir);
  r.writev_us = mean(r.writev_us, writes);
  r.flush_us = mean(r.flush_us, writes);
  r.epoch_us = mean(r.epoch_us, writes);
  r.crc32c_us = mean(r.crc32c_us, writes);
  r.readv_us = mean(r.readv_us, reads);
  return r;
}

}  // namespace perfbench
