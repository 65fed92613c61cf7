#include "clusterfile/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "clusterfile/storage_fault.h"
#include "util/check.h"
#include "util/crc32.h"

namespace pfm {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Debug-checks the writev/readv run-list contract: non-negative offsets,
// positive lengths, strictly ascending and non-overlapping ranges, and a
// payload exactly as long as the runs it feeds.
std::int64_t checked_total(std::span<const IoVec> runs, std::size_t payload) {
  std::int64_t total = 0;
  std::int64_t prev_end = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    PFM_DCHECK(runs[i].offset >= 0 && runs[i].len > 0,
               "vectored run must have offset >= 0 and len > 0");
    PFM_DCHECK(i == 0 || runs[i].offset >= prev_end,
               "vectored runs must be ascending and non-overlapping");
    prev_end = runs[i].offset + runs[i].len;
    total += runs[i].len;
  }
  PFM_CHECK(total == static_cast<std::int64_t>(payload),
            "vectored payload length must equal the sum of run lengths");
  return total;
}

}  // namespace

void SubfileStorage::writev(std::span<const IoVec> runs,
                            std::span<const std::byte> payload) {
  checked_total(runs, payload.size());
  std::size_t off = 0;
  for (const IoVec& r : runs) {
    write(r.offset, payload.subspan(off, static_cast<std::size_t>(r.len)));
    off += static_cast<std::size_t>(r.len);
  }
}

void SubfileStorage::readv(std::span<const IoVec> runs,
                           std::span<std::byte> out) const {
  checked_total(runs, out.size());
  std::size_t off = 0;
  for (const IoVec& r : runs) {
    read(r.offset, out.subspan(off, static_cast<std::size_t>(r.len)));
    off += static_cast<std::size_t>(r.len);
  }
}

void MemoryStorage::write(std::int64_t offset, std::span<const std::byte> data) {
  if (offset < 0) throw std::invalid_argument("MemoryStorage::write: bad offset");
  if (data.empty()) return;  // an empty write must not grow the subfile
  const std::size_t end = static_cast<std::size_t>(offset) + data.size();
  if (end > data_.size()) data_.resize(end);
  std::memcpy(data_.data() + offset, data.data(), data.size());
}

void MemoryStorage::read(std::int64_t offset, std::span<std::byte> out) const {
  if (offset < 0 ||
      static_cast<std::size_t>(offset) + out.size() > data_.size())
    throw std::out_of_range("MemoryStorage::read: range beyond subfile");
  if (out.empty()) return;
  std::memcpy(out.data(), data_.data() + offset, out.size());
}

std::int64_t MemoryStorage::size() const {
  return static_cast<std::int64_t>(data_.size());
}

namespace {

// Crash-safe epoch sidecar: two 16-byte slots, each
// [u64 epoch][u32 crc32 of the epoch bytes][u32 magic]. An update writes
// the slot selected by epoch parity in one pwrite, so a torn update can
// only damage the slot it was writing — the other slot still carries the
// previous epoch with a valid CRC.
constexpr std::uint32_t kEpochMagic = 0x45504650u;  // "PFPE"
constexpr std::size_t kEpochSlotBytes = 16;

void encode_epoch_slot(std::int64_t epoch, unsigned char* out) {
  std::memcpy(out, &epoch, 8);
  const std::uint32_t crc = crc32(out, 8);
  std::memcpy(out + 8, &crc, 4);
  std::memcpy(out + 12, &kEpochMagic, 4);
}

/// Decodes one slot; returns the epoch or -1 when the slot is invalid.
std::int64_t decode_epoch_slot(const unsigned char* in, std::size_t len) {
  if (len < kEpochSlotBytes) return -1;
  std::uint32_t crc = 0, magic = 0;
  std::memcpy(&crc, in + 8, 4);
  std::memcpy(&magic, in + 12, 4);
  if (magic != kEpochMagic || crc32(in, 8) != crc) return -1;
  std::int64_t epoch = 0;
  std::memcpy(&epoch, in, 8);
  return epoch >= 0 ? epoch : -1;
}

}  // namespace

std::int64_t load_epoch_sidecar(const std::filesystem::path& sidecar) {
  const int fd = ::open(sidecar.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  unsigned char slots[2 * kEpochSlotBytes] = {};
  ssize_t got = ::pread(fd, slots, sizeof(slots), 0);
  ::close(fd);
  if (got < 0) got = 0;
  std::int64_t best = 0;
  for (int s = 0; s < 2; ++s) {
    const std::size_t off = static_cast<std::size_t>(s) * kEpochSlotBytes;
    const std::size_t len =
        static_cast<std::size_t>(got) > off
            ? static_cast<std::size_t>(got) - off
            : 0;
    const std::int64_t e = decode_epoch_slot(slots + off, len);
    if (e > best) best = e;
  }
  return best;
}

FileStorage::FileStorage(std::filesystem::path path, bool preserve)
    : path_(std::move(path)) {
  const int flags =
      preserve ? O_RDWR | O_CREAT | O_CLOEXEC
               : O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) throw_errno("FileStorage: open " + path_.string());
  if (preserve) {
    // Cold-start reopen: the file's bytes are the subfile, the validated
    // sidecar is the epoch (0 when torn — re-sync then treats the copy as
    // maximally behind, which is safe).
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) throw_errno("FileStorage: lseek " + path_.string());
    size_ = static_cast<std::int64_t>(end);
    epoch_ = load_epoch_sidecar(path_.string() + ".epoch");
  } else {
    // A fresh subfile starts at epoch 0; drop any sidecar a previous
    // incarnation left behind.
    ::unlink((path_.string() + ".epoch").c_str());
  }
}

FileStorage::~FileStorage() {
  if (fd_ >= 0) ::close(fd_);
  if (epoch_fd_ >= 0) ::close(epoch_fd_);
}

void FileStorage::write(std::int64_t offset, std::span<const std::byte> data) {
  if (offset < 0) throw std::invalid_argument("FileStorage::write: bad offset");
  if (data.empty()) return;  // an empty write must not grow the subfile
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset) + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("FileStorage: pwrite");
    }
    done += static_cast<std::size_t>(n);
  }
  size_ = std::max(size_, offset + static_cast<std::int64_t>(data.size()));
}

void FileStorage::read(std::int64_t offset, std::span<std::byte> out) const {
  if (offset < 0 || offset + static_cast<std::int64_t>(out.size()) > size_)
    throw std::out_of_range("FileStorage::read: range beyond subfile");
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset) + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("FileStorage: pread");
    }
    if (n == 0) throw std::out_of_range("FileStorage::read: short read");
    done += static_cast<std::size_t>(n);
  }
}

std::int64_t FileStorage::size() const { return size_; }

void FileStorage::flush() {
  if (::fdatasync(fd_) != 0) throw_errno("FileStorage: fdatasync");
}

void FileStorage::set_epoch(std::int64_t e) {
  epoch_ = e;
  if (epoch_fd_ < 0) {
    const std::string sidecar = path_.string() + ".epoch";
    epoch_fd_ = ::open(sidecar.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (epoch_fd_ < 0) throw_errno("FileStorage: open " + sidecar);
  }
  // One pwrite into the parity-selected slot: consecutive epochs alternate
  // slots, so a crash mid-write tears at most the new slot and the reader
  // falls back to the other slot's last-good epoch.
  unsigned char slot[kEpochSlotBytes];
  encode_epoch_slot(e, slot);
  const off_t off = (e & 1) ? static_cast<off_t>(kEpochSlotBytes) : 0;
  if (::pwrite(epoch_fd_, slot, sizeof(slot), off) !=
      static_cast<ssize_t>(sizeof(slot)))
    throw_errno("FileStorage: pwrite epoch sidecar");
}

namespace {

// One block's share of a vectored call: subfile bytes [at, at + len) of
// block b, found at `pos` in the concatenated payload or output buffer.
struct Piece {
  std::int64_t b = 0;
  std::int64_t at = 0;
  std::int64_t len = 0;
  std::size_t pos = 0;
};

// Cuts ascending runs at block boundaries. The pieces stay ascending, so one
// block's pieces are consecutive, and they are adjacent in the concatenated
// buffer as well: a run that shares a block with the next one ends in it.
// A run that starts in the last piece's block takes its index without a
// division: strided runs put dozens of pieces in one block, and 64-bit
// divisions were most of this function's cost.
std::vector<Piece> split_at_blocks(std::span<const IoVec> runs,
                                   std::int64_t block) {
  std::vector<Piece> out;
  out.reserve(runs.size() + static_cast<std::size_t>(
                                (runs.back().offset + runs.back().len -
                                 runs.front().offset) / block + 1));
  std::size_t pos = 0;
  for (const IoVec& r : runs) {
    const std::int64_t last = out.empty() ? -1 : out.back().b;
    std::int64_t b = last >= 0 && r.offset >= last * block &&
                             r.offset < (last + 1) * block
                         ? last
                         : r.offset / block;
    for (std::int64_t at = r.offset, end = r.offset + r.len; at < end; ++b) {
      const std::int64_t stop = std::min(end, (b + 1) * block);
      out.push_back({b, at, stop - at, pos});
      pos += static_cast<std::size_t>(stop - at);
      at = stop;
    }
  }
  return out;
}

// True when one block's pieces hold [lo, lo + len) as one unbroken stretch,
// which then starts at pieces.front().pos in the concatenated buffer.
bool supplies(std::span<const Piece> pieces, std::int64_t lo,
              std::int64_t len) {
  std::int64_t end = lo;
  for (const Piece& p : pieces) {
    if (p.at != end) return false;
    end += p.len;
    if (end >= lo + len) return true;
  }
  return false;
}

// Index one past the last of the pieces that share pieces[i]'s block.
std::size_t block_end(const std::vector<Piece>& pieces, std::size_t i) {
  std::size_t j = i + 1;
  while (j < pieces.size() && pieces[j].b == pieces[i].b) ++j;
  return j;
}

StorageCorruptionError corrupt_block(std::int64_t b, const char* why) {
  return StorageCorruptionError("IntegrityStorage: block " +
                                std::to_string(b) + " " + why);
}

}  // namespace

IntegrityStorage::IntegrityStorage(std::unique_ptr<SubfileStorage> inner,
                                   std::int64_t block_bytes)
    : inner_(std::move(inner)), block_(block_bytes), size_(inner_->size()) {
  if (block_ <= 0)
    throw std::invalid_argument("IntegrityStorage: block_bytes must be > 0");
}

IntegrityStorage::BlockSum IntegrityStorage::sum_of(std::int64_t b) const {
  return b < static_cast<std::int64_t>(sums_.size())
             ? sums_[static_cast<std::size_t>(b)]
             : BlockSum{};
}

bool IntegrityStorage::load_block(std::int64_t b, std::int64_t len,
                                  Buffer& buf) const {
  const BlockSum sum = sum_of(b);
  const std::int64_t lo = b * block_;
  const std::int64_t have =
      std::clamp<std::int64_t>(inner_->size() - lo, 0, len);
  buf.assign(static_cast<std::size_t>(len), std::byte{0});
  // An inner storage shorter than the coverage lost the tail of a write.
  if (have < sum.len) return false;
  try {
    if (have > 0)
      inner_->read(lo, std::span<std::byte>(buf).first(
                           static_cast<std::size_t>(have)));
  } catch (const std::out_of_range&) {
    return false;
  }
  return sum.len == 0 ||
         crc32c(buf.data(), static_cast<std::size_t>(sum.len)) == sum.crc;
}

void IntegrityStorage::write(std::int64_t offset,
                             std::span<const std::byte> data) {
  if (offset < 0)
    throw std::invalid_argument("IntegrityStorage::write: bad offset");
  if (data.empty()) return;
  const IoVec run{offset, static_cast<std::int64_t>(data.size())};
  write_runs({&run, 1}, data);
}

void IntegrityStorage::writev(std::span<const IoVec> runs,
                              std::span<const std::byte> payload) {
  checked_total(runs, payload.size());
  if (payload.empty()) return;
  write_runs(runs, payload);
}

void IntegrityStorage::write_runs(std::span<const IoVec> runs,
                                  std::span<const std::byte> payload) {
  MutexLock lock(mu_);
  // Every touched block's next sum first, with any old bytes read and
  // checked; the inner write second; the commit last, so a throw anywhere
  // before it leaves the sums and the size as they were.
  const std::vector<Piece> pieces = split_at_blocks(runs, block_);
  std::vector<std::pair<std::int64_t, BlockSum>> next;
  next.reserve(pieces.size());
  Buffer block;
  for (std::size_t i = 0, j = 0; i < pieces.size(); i = j) {
    j = block_end(pieces, i);
    const std::span<const Piece> in(pieces.data() + i, j - i);
    const std::int64_t b = in.front().b;
    const std::int64_t lo = b * block_;
    BlockSum sum = sum_of(b);
    sum.len = std::max(sum.len, in.back().at + in.back().len - lo);
    if (supplies(in, lo, sum.len)) {
      // Whole new coverage in the payload: this also repairs a poisoned
      // block, because nothing of the damaged old bytes survives.
      sum.crc = crc32c(payload.data() + in.front().pos,
                       static_cast<std::size_t>(sum.len));
      sum.poisoned = false;
    } else if (!sum.poisoned) {
      sum.poisoned = !load_block(b, sum.len, block);
      if (!sum.poisoned) {
        for (const Piece& p : in)
          std::memcpy(block.data() + (p.at - lo), payload.data() + p.pos,
                      static_cast<std::size_t>(p.len));
        sum.crc = crc32c(block.data(), block.size());
      }
    }
    next.emplace_back(b, sum);
  }
  inner_->writev(runs, payload);
  if (next.back().first >= static_cast<std::int64_t>(sums_.size()))
    sums_.resize(static_cast<std::size_t>(next.back().first) + 1);
  for (const auto& [b, sum] : next) sums_[static_cast<std::size_t>(b)] = sum;
  size_ = std::max(size_, runs.back().offset + runs.back().len);
}

void IntegrityStorage::read(std::int64_t offset,
                            std::span<std::byte> out) const {
  const IoVec run{offset, static_cast<std::int64_t>(out.size())};
  read_runs({&run, 1}, out);
}

void IntegrityStorage::readv(std::span<const IoVec> runs,
                             std::span<std::byte> out) const {
  checked_total(runs, out.size());
  read_runs(runs, out);
}

void IntegrityStorage::read_runs(std::span<const IoVec> runs,
                                 std::span<std::byte> out) const {
  MutexLock lock(mu_);
  for (const IoVec& r : runs)
    if (r.offset < 0 || r.len > size_ - r.offset)
      throw std::out_of_range("IntegrityStorage::read: range beyond subfile");
  if (out.empty()) return;
  try {
    inner_->readv(runs, out);
  } catch (const std::out_of_range&) {
    // Bounds were checked against the intended size above, so an inner
    // range error means the backend is shorter than what was acknowledged.
    throw StorageCorruptionError(
        "IntegrityStorage: stored data shorter than acknowledged writes "
        "(torn write)");
  }
  // Check after the data read, on the bytes it returned: rot injected while
  // reading is in `out` or, for a block read again below, in the store.
  const std::vector<Piece> pieces = split_at_blocks(runs, block_);
  Buffer block;
  for (std::size_t i = 0, j = 0; i < pieces.size(); i = j) {
    j = block_end(pieces, i);
    const std::span<const Piece> in(pieces.data() + i, j - i);
    const std::int64_t b = in.front().b;
    const std::int64_t lo = b * block_;
    const BlockSum sum = sum_of(b);
    if (sum.len == 0) continue;  // a hole: nothing was written to check
    if (sum.poisoned)
      throw corrupt_block(b, "was damaged before a partial overwrite");
    if (supplies(in, lo, sum.len)) {
      if (crc32c(out.data() + in.front().pos,
                 static_cast<std::size_t>(sum.len)) != sum.crc)
        throw corrupt_block(b, "fails its checksum");
      continue;
    }
    if (!load_block(b, sum.len, block))
      throw corrupt_block(b, "fails its checksum or is torn");
    for (const Piece& p : in) {
      const std::int64_t n = std::min(p.len, lo + sum.len - p.at);
      if (n > 0)
        std::memcpy(out.data() + p.pos, block.data() + (p.at - lo),
                    static_cast<std::size_t>(n));
    }
  }
}

std::int64_t IntegrityStorage::size() const {
  MutexLock lock(mu_);
  return size_;
}

std::unique_ptr<SubfileStorage> make_storage(const std::filesystem::path& dir,
                                             int subfile_id, int replica,
                                             const StorageFaultPlan* faults,
                                             int node, bool preserve) {
  std::unique_ptr<SubfileStorage> storage;
  if (dir.empty()) {
    storage = std::make_unique<MemoryStorage>();
  } else {
    std::filesystem::create_directories(dir);
    std::string name = "subfile_" + std::to_string(subfile_id);
    if (node >= 0)
      name += ".n" + std::to_string(node);
    else if (replica > 0)
      name += ".r" + std::to_string(replica);
    storage = std::make_unique<FileStorage>(dir / name, preserve);
  }
  std::optional<StorageFaultPlan> env_plan;
  if (!faults) {
    env_plan = storage_fault_plan_from_env();
    if (env_plan) faults = &*env_plan;
  }
  if (faults)
    storage = std::make_unique<FaultyStorage>(std::move(storage), *faults,
                                              subfile_id, replica);
  return storage;
}

}  // namespace pfm
