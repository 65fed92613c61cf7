#include "clusterfile/io_server.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "falls/compress.h"
#include "util/log.h"

namespace pfm {

namespace {

/// Request ids for server-to-server sync traffic. Collisions with client
/// ids are harmless: sync requests are never deduplicated and the waiter
/// map lives on the requesting server only.
std::uint64_t next_sync_req_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

using Ranges = std::vector<IoVec>;

/// The two flags of a kSyncReply's w field.
constexpr std::int64_t kFullBit = 1;  ///< a full transfer, not a delta
constexpr std::int64_t kMoreBit = 2;  ///< chunk-limited: pull again

/// Sorts and coalesces overlapping or adjacent (offset, length) ranges.
Ranges merge_ranges(Ranges ranges) {
  std::sort(ranges.begin(), ranges.end(), [](const IoVec& a, const IoVec& b) {
    return a.offset < b.offset;
  });
  Ranges out;
  for (const auto& [off, len] : ranges) {
    if (len <= 0) continue;
    if (!out.empty() && off <= out.back().offset + out.back().len) {
      out.back().len = std::max(out.back().len, off + len - out.back().offset);
    } else {
      out.push_back({off, len});
    }
  }
  return out;
}

/// Refuses a data request's interval [v, w] before its projection is
/// touched: offsets start at 0, [v, w] must not be inverted, and count_in
/// needs w + 1.
void check_interval(const Message& msg) {
  if (msg.v < 0 || msg.v > msg.w || msg.w == std::numeric_limits<std::int64_t>::max())
    throw ProtocolError(ErrCode::kMalformed, "IoServer: bad request interval [" +
                                                 std::to_string(msg.v) + ", " +
                                                 std::to_string(msg.w) + "]");
}

/// The maximal runs `proj` selects in [v, w], ascending.
Ranges runs_in(const IndexSet& proj, std::int64_t v, std::int64_t w) {
  Ranges runs;
  proj.for_each_run_in(v, w, [&](std::int64_t lo, std::int64_t hi) {
    runs.push_back({lo, hi - lo + 1});
  });
  return runs;
}

/// Writes `payload` to the bytes `proj` selects in [v, w] and returns the
/// runs written. The payload must hold exactly those bytes, or it is refused
/// before storage sees one: a mismatch would silently shear every later run.
/// One vectorized scatter: the run walk yields ascending maximal runs (a
/// contiguous projection is just the one-run case), and writev lets the
/// integrity layer checksum each touched block once instead of once per
/// run — the difference between O(runs) and O(blocks) CRC work.
Ranges apply_projection(SubfileStorage& storage, const IndexSet& proj,
                        std::int64_t v, std::int64_t w,
                        const Payload& payload) {
  const std::int64_t n = proj.count_in(v, w);
  if (static_cast<std::int64_t>(payload.size()) != n)
    throw ProtocolError(ErrCode::kMalformed,
                        "IoServer: payload of " +
                            std::to_string(payload.size()) +
                            " bytes, projection selects " + std::to_string(n));
  Ranges runs = runs_in(proj, v, w);
  if (!runs.empty()) storage.writev(runs, payload);
  storage.flush();
  return runs;
}

/// The `n` bytes `proj` selects in [v, w], in one new buffer. One
/// vectorized gather through the full storage stack: each touched
/// integrity block is read and checked once, however many runs share it.
Buffer read_projection(const SubfileStorage& storage, const IndexSet& proj,
                       std::int64_t v, std::int64_t w, std::int64_t n) {
  Buffer bytes(static_cast<std::size_t>(n));
  const Ranges runs = runs_in(proj, v, w);
  if (!runs.empty()) storage.readv(runs, bytes);
  return bytes;
}

}  // namespace

IoServer::IoServer(Network& net, int node_id, SubfileStorages subfiles,
                   bool track_epochs)
    : net_(net),
      node_id_(node_id),
      track_epochs_(track_epochs),
      loop_(net, node_id, [this](Message&& m) { handle(std::move(m)); }) {
  // loop_ is the last member, so its thread is already running: the map is
  // populated under mu_ like every other access.
  MutexLock lock(mu_);
  for (auto& [id, storage] : subfiles) {
    if (!storage) throw std::invalid_argument("IoServer: null storage");
    Subfile sub;
    sub.size = storage->size();
    sub.storage = std::move(storage);
    const bool inserted = subfiles_.emplace(id, std::move(sub)).second;
    if (!inserted) throw std::invalid_argument("IoServer: duplicate subfile id");
  }
}

IoServer::~IoServer() { stop(); }

IoServer::SubfileStorages IoServer::take_storages() {
  stop();
  MutexLock lock(mu_);
  SubfileStorages out;
  for (auto& [id, sub] : subfiles_) out.emplace_back(id, std::move(sub.storage));
  subfiles_.clear();
  return out;
}

bool IoServer::has_subfile(int subfile_id) const {
  MutexLock lock(mu_);
  return subfiles_.count(subfile_id) > 0;
}

bool IoServer::adopt_subfile(int subfile_id,
                             std::unique_ptr<SubfileStorage> storage) {
  if (!storage) throw std::invalid_argument("IoServer: null storage");
  Subfile sub;
  sub.size = storage->size();
  sub.storage = std::move(storage);
  MutexLock lock(mu_);
  return subfiles_.emplace(subfile_id, std::move(sub)).second;
}

const SubfileStorage& IoServer::storage(int subfile_id) const {
  MutexLock lock(mu_);
  const auto it = subfiles_.find(subfile_id);
  if (it == subfiles_.end())
    throw std::out_of_range("IoServer::storage: subfile not served here");
  return *it->second.storage;
}

SubfileStorage& IoServer::storage_mut(int subfile_id) {
  MutexLock lock(mu_);
  const auto it = subfiles_.find(subfile_id);
  if (it == subfiles_.end())
    throw std::out_of_range("IoServer::storage_mut: subfile not served here");
  return *it->second.storage;
}

std::vector<int> IoServer::subfile_ids() const {
  MutexLock lock(mu_);
  std::vector<int> out;
  out.reserve(subfiles_.size());
  for (const auto& [id, sub] : subfiles_) out.push_back(id);
  return out;
}

std::int64_t IoServer::subfile_epoch(int subfile_id) const {
  MutexLock lock(mu_);
  const auto it = subfiles_.find(subfile_id);
  if (it == subfiles_.end())
    throw std::out_of_range("IoServer::subfile_epoch: subfile not served here");
  return it->second.storage->epoch();
}

std::int64_t IoServer::subfile_size(int subfile_id) const {
  MutexLock lock(mu_);
  const auto it = subfiles_.find(subfile_id);
  if (it == subfiles_.end())
    throw std::out_of_range("IoServer::subfile_size: subfile not served here");
  return it->second.size;
}

double IoServer::scatter_us() const {
  MutexLock lock(mu_);
  return scatter_.total_us();
}

double IoServer::gather_us() const {
  MutexLock lock(mu_);
  return gather_.total_us();
}

std::int64_t IoServer::writes_served() const {
  MutexLock lock(mu_);
  return writes_;
}

void IoServer::reset_phases() {
  MutexLock lock(mu_);
  scatter_.clear();
  gather_.clear();
  writes_ = 0;
}

ReliabilityCounters IoServer::reliability() const {
  MutexLock lock(mu_);
  return rel_;
}

std::size_t IoServer::projection_cache_size() const {
  MutexLock lock(mu_);
  return projections_.size();
}

void IoServer::handle(Message&& msg) {
  // Corruption gate: nothing downstream may touch a payload or projection
  // the wire damaged (the checksum covers meta, where the projection
  // rides). The client resends on kBadChecksum.
  if (!verify_checksum(msg)) {
    {
      MutexLock lock(mu_);
      ++rel_.corruptions_detected;
    }
    PFM_WARN("IoServer ", node_id_, ": checksum mismatch on ",
             to_string(msg.kind), " from ", msg.src_node);
    reply_error(msg, ErrCode::kBadChecksum, "payload checksum mismatch");
    return;
  }
  // Retransmit dedup: a write already executed is answered from the reply
  // cache, never re-applied — the idempotent-replay half of the
  // exactly-once story (reads re-execute instead; they are idempotent and
  // their payloads are too large to cache). req_id 0 marks raw traffic
  // outside the reliability protocol.
  if (msg.req_id != 0 && msg.kind == MsgKind::kWrite) {
    Message replay;
    bool hit = false;
    {
      MutexLock lock(mu_);
      const auto it = reply_cache_.find({msg.src_node, msg.req_id});
      if (it != reply_cache_.end()) {
        ++rel_.duplicates_suppressed;
        replay = it->second;
        hit = true;
      }
    }
    if (hit) {
      net_.send(node_id_, std::move(replay));
      return;
    }
  }
  try {
    switch (msg.kind) {
      case MsgKind::kWrite: handle_write(std::move(msg)); return;
      case MsgKind::kRead: handle_read(std::move(msg)); return;
      case MsgKind::kSyncRequest: handle_sync_request(std::move(msg)); return;
      case MsgKind::kSyncReply: handle_sync_reply(std::move(msg)); return;
      case MsgKind::kPing: handle_ping(msg); return;
      case MsgKind::kError:
        // The only requests a server sends are sync pulls.
        PFM_WARN("IoServer ", node_id_, ": sync pull ", msg.req_id,
                 " refused: ", to_string(msg.err), " (", msg.meta, ")");
        finish_sync(msg.req_id, SyncOutcome{});
        return;
      default:
        PFM_WARN("IoServer ", node_id_, ": unexpected message ",
                 to_string(msg.kind));
    }
  } catch (const ProtocolError& e) {
    // A refused request: the server is healthy and says why; the client
    // decides whether to fail over.
    PFM_WARN("IoServer ", node_id_, ": ", e.what());
    reply_error(msg, e.code(), e.what());
  } catch (const StorageCorruptionError& e) {
    // At-rest corruption (torn write, bit rot) caught by the integrity
    // layer. Terminal for this replica: the client fails over to a backup
    // instead of retrying here.
    PFM_ERROR("IoServer ", node_id_, ": ", e.what());
    reply_error(msg, ErrCode::kCorruptData, e.what());
  } catch (const std::system_error& e) {
    // Transient device error (injected EIO). Retryable: error replies are
    // never cached, so the client's resend re-executes the request.
    PFM_ERROR("IoServer ", node_id_, ": ", e.what());
    reply_error(msg, ErrCode::kIoError, e.what());
  } catch (const std::exception& e) {
    // A failed request must not kill the server, and the client must not
    // hang waiting for a reply: report the error back.
    PFM_ERROR("IoServer ", node_id_, ": ", e.what());
    reply_error(msg, ErrCode::kMalformed, e.what());
  }
}

void IoServer::handle_ping(const Message& msg) {
  // Liveness answer straight off the loop thread: a server that can pong
  // is a server that can serve. The probe sequence in v is echoed so the
  // detector matches answers to rounds.
  Message pong;
  pong.kind = MsgKind::kPong;
  pong.dst_node = msg.src_node;
  pong.v = msg.v;
  if (net_.checksums_enabled()) stamp_checksum(pong);
  net_.send(node_id_, std::move(pong));
}

IoServer::Subfile& IoServer::subfile_for(const Message& msg) {
  MutexLock lock(mu_);
  const auto it = subfiles_.find(msg.subfile);
  if (it == subfiles_.end())
    throw ProtocolError(ErrCode::kUnknownSubfile,
                        "IoServer: request for a subfile not served here");
  return it->second;
}

const IndexSet& IoServer::projection(const Message& msg) {
  {
    MutexLock lock(mu_);
    if (const IndexSet* hit = projections_.get(msg.meta)) return *hit;
  }
  // A miss parses outside the lock. decode_projection revalidates the FALLS
  // after the wire crossing, confines them to the period and rejects an
  // empty set (a client never sends one: it skips subfiles its view misses).
  IndexSet proj;
  try {
    proj = decode_projection(msg.meta);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(
        ErrCode::kMalformed,
        std::string("IoServer: bad projection meta: ") + e.what());
  }
  MutexLock lock(mu_);
  projections_.put(msg.meta, std::move(proj));
  return *projections_.get(msg.meta);
}

void IoServer::handle_write(Message&& msg) {
  Subfile& sub = subfile_for(msg);
  check_interval(msg);
  const IndexSet& proj = projection(msg);
  // Paper server pseudocode: the decision is based on PROJ_S — the
  // *server-side* projection. The client's `contiguous` flag only records
  // that PROJ_V was contiguous (no gather happened there); the payload is
  // the common bytes in file order either way, but contiguity in view space
  // does not imply contiguity in subfile space.
  {
    Timer t;
    Ranges runs =
        apply_projection(*sub.storage, proj, msg.v, msg.w, msg.payload);
    const std::int64_t size = sub.storage->size();
    MutexLock lock(mu_);
    sub.size = size;
    if (track_epochs_ && !runs.empty()) {
      // The epoch bumps only after the whole write applied: a write that
      // failed partway (injected fault) leaves the epoch behind, so a peer
      // comparison later flags this replica as stale rather than current.
      const std::int64_t e = sub.storage->epoch() + 1;
      sub.storage->set_epoch(e);
      // The runs are the ranges written, kept for incremental re-sync.
      sub.write_log.push_back({e, std::move(runs)});
      if (sub.write_log.size() > kWriteLogCapacity) sub.write_log.pop_front();
    }
    scatter_.add_us(t.elapsed_us());
    ++writes_;
  }
  reply_ack(msg);
}

void IoServer::handle_read(Message&& msg) {
  Subfile& sub = subfile_for(msg);
  check_interval(msg);
  const IndexSet& proj = projection(msg);
  // Bound the read before allocating for it: storage would refuse a member
  // byte past the subfile's end anyway, but only after the reply buffer and
  // one IoVec per period were built — gigabytes for a hostile interval.
  const std::int64_t n = proj.count_in(msg.v, msg.w);
  if (n != proj.count_in(msg.v, std::min(msg.w, sub.storage->size() - 1)))
    throw ProtocolError(ErrCode::kMalformed,
                        "IoServer: read past the end of subfile " +
                            std::to_string(msg.subfile));
  Message reply;
  reply.kind = MsgKind::kReadReply;
  reply.dst_node = msg.src_node;
  reply.subfile = msg.subfile;
  reply.v = msg.v;
  reply.w = msg.w;
  {
    Timer t;
    reply.payload = read_projection(*sub.storage, proj, msg.v, msg.w, n);
    MutexLock lock(mu_);
    gather_.add_us(t.elapsed_us());
  }
  finish_reply(msg, std::move(reply), /*cacheable=*/false);
}

void IoServer::handle_sync_request(Message&& msg) {
  // Wire format: v = requester epoch, w = chunk byte limit (>= 1), resume =
  // full-transfer resume offset. The reply's v is the epoch the requester
  // may adopt and its w carries kFullBit and kMoreBit ("pull again": a
  // migration is chunked against foreground traffic and resumes after a
  // crash). Its meta is the byte set as a projection, its payload those
  // bytes in order, exactly as a kWrite carries them.
  Subfile& sub = subfile_for(msg);
  const std::int64_t their_epoch = msg.v;
  const std::int64_t chunk = msg.w;
  const std::int64_t resume = msg.resume;
  if (chunk < 1 || resume < 0)
    throw ProtocolError(
        ErrCode::kMalformed,
        "IoServer: sync chunk below 1 or negative resume offset");
  std::int64_t reply_epoch = 0;
  std::int64_t flags = 0;
  std::int64_t next_offset = 0;
  Ranges ranges;
  {
    MutexLock lock(mu_);
    const std::int64_t my_epoch = sub.storage->epoch();
    reply_epoch = my_epoch;
    if (my_epoch > their_epoch) {
      // Incremental only when the log still reaches back to the epoch right
      // after theirs; trimmed history forces a full transfer. A non-zero
      // resume offset is a full stream already in flight — it must stay
      // full even if the log meanwhile regained coverage, or the offsets
      // would address two different byte streams. And incremental only when
      // it is actually cheaper: a far-behind requester (a migration
      // destination starts at epoch 0) would replay every historical
      // rewrite of the same bytes, so when the log bytes owed exceed the
      // live size the full copy is the minimal transfer.
      std::int64_t owed = 0;
      for (const LogEntry& le : sub.write_log)
        if (le.epoch > their_epoch)
          for (const auto& [off, len] : le.ranges) owed += len;
      const bool covered = resume == 0 && !sub.write_log.empty() &&
                           sub.write_log.front().epoch <= their_epoch + 1 &&
                           owed <= sub.storage->size();
      if (covered) {
        // Whole log entries only, so the epoch of the last included entry
        // is an exact description of what the requester will hold. At
        // least one entry always ships — a chunk smaller than one write
        // must still make progress.
        std::int64_t body = 0;
        for (const LogEntry& le : sub.write_log) {
          if (le.epoch <= their_epoch) continue;
          if (body >= chunk) {
            flags = kMoreBit;
            break;
          }
          for (const auto& [off, len] : le.ranges) body += len;
          ranges.insert(ranges.end(), le.ranges.begin(), le.ranges.end());
          reply_epoch = le.epoch;
        }
      } else {
        const std::int64_t size = sub.storage->size();
        const std::int64_t lo = std::min(resume, size);
        const std::int64_t hi = lo + std::min(chunk, size - lo);
        if (hi > lo) ranges.push_back({lo, hi - lo});
        flags = kFullBit;
        if (hi < size) {
          flags |= kMoreBit;
          next_offset = hi;
        }
      }
    }
  }
  Message reply;
  reply.kind = MsgKind::kSyncReply;
  reply.dst_node = msg.src_node;
  reply.subfile = msg.subfile;
  reply.v = reply_epoch;
  reply.w = flags;
  reply.resume = next_offset;
  if (!ranges.empty()) {
    // compress_runs takes the sorted maximal runs merge_ranges returns and
    // keeps them in order, so its members never interleave: the requester
    // decodes the set in O(members). Its period ends with the last byte.
    std::vector<LineSegment> runs;
    for (const auto& [off, len] : merge_ranges(std::move(ranges)))
      runs.push_back({off, off + len - 1});
    const IndexSet set(compress_runs(runs), runs.back().r + 1);
    reply.meta = encode_projection(set.falls(), set.period());
    // The payload is read through the set the meta names, so the two agree
    // by construction, and through the full storage stack: corruption on
    // this peer surfaces as kCorruptData (via handle's catch) instead of
    // spreading.
    reply.payload =
        read_projection(*sub.storage, set, 0, set.period() - 1, set.size());
  }
  finish_reply(msg, std::move(reply), /*cacheable=*/false);
}

void IoServer::handle_sync_reply(Message&& msg) {
  // Runs on the loop thread of the pulling replica. A bad reply fails the
  // pull before storage sees a byte, and is never bounced back to the peer
  // — it already did its part. A reply whose call already timed out is
  // dropped unapplied: only the waiting call knows the epoch cap a chunked
  // full stream must adopt, and the caller pulls again anyway.
  SyncOutcome out;
  try {
    Subfile* subp = nullptr;
    std::int64_t my_epoch = 0;
    std::int64_t adopt_cap = -1;
    {
      MutexLock lock(mu_);
      const auto wit = sync_waits_.find(msg.req_id);
      if (wit == sync_waits_.end()) {
        PFM_WARN("IoServer ", node_id_, ": stale sync reply ", msg.req_id);
        return;
      }
      adopt_cap = wit->second.adopt_cap;
      const auto it = subfiles_.find(msg.subfile);
      if (it == subfiles_.end())
        throw std::runtime_error("sync reply for a subfile not served here");
      subp = &it->second;
      my_epoch = subp->storage->epoch();
    }
    Subfile& sub = *subp;
    if (msg.w < 0 || msg.w > (kFullBit | kMoreBit))
      throw std::runtime_error("sync reply with unknown flags");
    out.full = (msg.w & kFullBit) != 0;
    out.more = (msg.w & kMoreBit) != 0;
    out.next_offset = out.full && out.more ? msg.resume : 0;
    out.peer_epoch = msg.v;
    // Apply only when the peer is strictly ahead of our *current* epoch:
    // a stale duplicate reply (an abandoned earlier attempt arriving late)
    // must not overwrite newer content.
    if (!msg.meta.empty() && msg.v > my_epoch) {
      // Decoded here, not through the projection cache: each reply carries
      // a byte set of its own.
      const IndexSet set = decode_projection(msg.meta);
      const Ranges runs =
          apply_projection(*sub.storage, set, 0, set.period() - 1, msg.payload);
      out.bytes = static_cast<std::int64_t>(msg.payload.size());
      out.ranges = static_cast<std::int64_t>(runs.size());
      const std::int64_t size = sub.storage->size();
      MutexLock lock(mu_);
      sub.size = size;
      if (!(out.full && out.more)) {
        // The cap (set by chunked full streams) pins the adopted epoch to
        // the stream's *start*, so a follow-up delta pull re-fetches every
        // write that raced the stream; without it the epoch would claim
        // bytes the early chunks delivered stale.
        std::int64_t adopt = msg.v;
        if (adopt_cap >= 0) adopt = std::min(adopt, adopt_cap);
        if (adopt > sub.storage->epoch()) sub.storage->set_epoch(adopt);
      }
      // Pre-crash log entries no longer describe what peers are missing
      // relative to the adopted epoch; drop them so this replica answers
      // later sync requests with a full transfer instead of a wrong delta.
      sub.write_log.clear();
    }
    out.ok = true;
  } catch (const std::exception& e) {
    PFM_WARN("IoServer ", node_id_, ": sync reply refused: ", e.what());
    out.ok = false;
  }
  finish_sync(msg.req_id, out);
}

void IoServer::finish_sync(std::uint64_t req_id, const SyncOutcome& out) {
  {
    MutexLock lock(mu_);
    const auto wit = sync_waits_.find(req_id);
    if (wit == sync_waits_.end()) {
      PFM_WARN("IoServer ", node_id_, ": no sync pull waits for ", req_id);
      return;
    }
    wit->second.out = out;
    wit->second.done = true;
  }
  sync_cv_.notify_all();
}

IoServer::SyncOutcome IoServer::sync_subfile(
    int subfile_id, int peer_node, std::chrono::nanoseconds timeout,
    std::int64_t chunk_bytes, std::int64_t resume_offset,
    std::int64_t adopt_epoch_cap) {
  const std::uint64_t id = next_sync_req_id();
  Message req;
  req.kind = MsgKind::kSyncRequest;
  req.dst_node = peer_node;
  req.subfile = subfile_id;
  req.req_id = id;
  req.w = chunk_bytes;
  req.resume = resume_offset;
  {
    MutexLock lock(mu_);
    const auto it = subfiles_.find(subfile_id);
    if (it == subfiles_.end()) return {};
    req.v = it->second.storage->epoch();
    // Register before sending: the reply may race us.
    sync_waits_[id].adopt_cap = adopt_epoch_cap;
  }
  if (net_.checksums_enabled()) stamp_checksum(req);
  if (!net_.send(node_id_, std::move(req))) {
    MutexLock lock(mu_);
    sync_waits_.erase(id);
    return {};
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  // Explicit wait loop (not the predicate-lambda overload): the
  // thread-safety analysis cannot see mu_ inside a lambda, and the loop
  // keeps every sync_waits_ access visibly under the lock. A timed-out wait
  // is abandoned, its outcome still the failed default; a reply arriving
  // later finds no waiter and is dropped.
  bool timed_out = false;
  while (!sync_waits_[id].done && !timed_out)
    timed_out = sync_cv_.wait_until(lock, deadline) == std::cv_status::timeout;
  const SyncOutcome out = sync_waits_[id].out;
  sync_waits_.erase(id);
  return out;
}

void IoServer::reply_ack(const Message& req) {
  Message ack;
  ack.kind = MsgKind::kAck;
  ack.dst_node = req.src_node;
  ack.subfile = req.subfile;
  finish_reply(req, std::move(ack), /*cacheable=*/true);
}

void IoServer::reply_error(const Message& req, ErrCode code,
                           const std::string& what) {
  Message err;
  err.kind = MsgKind::kError;
  err.dst_node = req.src_node;
  err.subfile = req.subfile;
  err.err = code;
  err.meta = what;
  {
    MutexLock lock(mu_);
    ++rel_.errors_sent;
  }
  // Errors are never cached: a retransmit after recovery must re-execute.
  finish_reply(req, std::move(err), /*cacheable=*/false);
}

void IoServer::finish_reply(const Message& req, Message reply, bool cacheable) {
  reply.req_id = req.req_id;
  if (net_.checksums_enabled()) stamp_checksum(reply);
  if (cacheable && req.req_id != 0) {
    MutexLock lock(mu_);
    const std::pair<int, std::uint64_t> key{req.src_node, req.req_id};
    if (reply_cache_.emplace(key, reply).second) {
      reply_cache_order_.push_back(key);
      if (reply_cache_order_.size() > kReplyCacheCapacity) {
        reply_cache_.erase(reply_cache_order_.front());
        reply_cache_order_.pop_front();
      }
    }
  }
  net_.send(node_id_, std::move(reply));
}

}  // namespace pfm
