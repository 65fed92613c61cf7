// Subfile storage backends for the Clusterfile I/O nodes (paper section 8.2
// measures writes both to the buffer cache and to disk; we expose the same
// distinction as an in-memory backend and a real-file backend).
//
// Replication support (DESIGN.md "Failure model"): every storage carries a
// monotonic write epoch — the I/O server bumps it once per applied write, and
// the re-sync protocol uses the epoch gap to decide which ranges a restarted
// replica missed. Decorators wrap a backend without changing its address
// space. IntegrityStorage keeps a CRC-32C per fixed-size block over the bytes
// written into it, and no copy of them: a partial write checks the block's
// old bytes before splicing into them and poisons a damaged block rather
// than re-summing it, reads check the bytes they return, and holes never
// written stay unverified. Torn writes and at-rest bit rot thus surface as
// StorageCorruptionError instead of silently wrong bytes; FaultyStorage
// (storage_fault.h) injects exactly those faults deterministically.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pfm {

struct StorageFaultPlan;  // storage_fault.h

/// At-rest corruption detected by an integrity check: the stored bytes no
/// longer match the checksum recorded when they were written (bit rot, or a
/// torn write that persisted only a prefix). Terminal for the replica that
/// raised it — retrying the read returns the same rotten bytes.
class StorageCorruptionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One (offset, length) range of a vectorized storage operation. Run lists
/// passed to writev/readv must be ascending and non-overlapping — exactly
/// the shape a FALLS projection's run walk produces.
struct IoVec {
  std::int64_t offset = 0;
  std::int64_t len = 0;
};

/// Linear-addressable subfile storage. Writes beyond the current size grow
/// the subfile (zero-filled holes); empty writes are no-ops and never grow.
class SubfileStorage {
 public:
  virtual ~SubfileStorage() = default;

  virtual void write(std::int64_t offset, std::span<const std::byte> data) = 0;
  virtual void read(std::int64_t offset, std::span<std::byte> out) const = 0;

  /// Vectorized write: applies `runs` (ascending, non-overlapping) taking
  /// their bytes from the concatenated `payload` (whose length must equal
  /// the sum of the run lengths). Equivalent to one write() per run — the
  /// default does exactly that, so decorators like FaultyStorage keep their
  /// per-range semantics — but IntegrityStorage overrides it to do its
  /// per-block CRC bookkeeping once per touched block instead of once per
  /// run, which is what makes strided replica writes affordable.
  virtual void writev(std::span<const IoVec> runs,
                      std::span<const std::byte> payload);
  /// Vectorized read: gathers `runs` (ascending, non-overlapping) into the
  /// concatenated `out`. Same contract and default as writev.
  virtual void readv(std::span<const IoVec> runs,
                     std::span<std::byte> out) const;

  virtual std::int64_t size() const = 0;
  /// Pushes pending data toward the medium (no-op for memory).
  virtual void flush() = 0;
  virtual std::string kind() const = 0;

  /// Monotonic per-subfile write epoch, bumped by the owning I/O server once
  /// per applied write when replication is on. Backends that outlive a
  /// server restart persist it next to the data (FileStorage keeps a
  /// sidecar); decorators forward both calls to the wrapped storage.
  virtual std::int64_t epoch() const { return epoch_; }
  virtual void set_epoch(std::int64_t e) { epoch_ = e; }

  /// Stops any storage-fault injection below this point in the stack
  /// (FaultyStorage overrides; decorators forward; backends no-op). Lets a
  /// soak test freeze the fault state before verifying scrub repairs.
  virtual void disarm_faults() {}

 protected:
  std::int64_t epoch_ = 0;
};

/// Buffer-cache analog: the subfile lives in a std::vector.
class MemoryStorage final : public SubfileStorage {
 public:
  void write(std::int64_t offset, std::span<const std::byte> data) override;
  void read(std::int64_t offset, std::span<std::byte> out) const override;
  std::int64_t size() const override;
  void flush() override {}
  std::string kind() const override { return "memory"; }

  const Buffer& bytes() const { return data_; }

 private:
  Buffer data_;
};

/// Disk analog: the subfile is a real file accessed with pread/pwrite. The
/// logical size is cached and maintained across writes so bounds-checked
/// reads cost no extra syscall; the write epoch is persisted in a
/// `<path>.epoch` sidecar so it survives the process that wrote it.
///
/// The sidecar is crash-safe: it holds two fixed slots, each
/// `[u64 epoch][u32 crc32][u32 magic]`, and an update writes exactly one
/// slot (chosen by epoch parity) in a single pwrite. A torn slot fails its
/// CRC and the reader falls back to the other slot's last-good epoch —
/// understating the epoch at worst, which re-sync treats as "more behind
/// than it was", never as a garbage epoch to trust.
class FileStorage final : public SubfileStorage {
 public:
  /// Creates (truncates) the backing file and removes a stale sidecar.
  /// With `preserve` set, an existing file is opened as-is instead: the
  /// logical size is taken from the file and the epoch from the validated
  /// sidecar (0 when missing or corrupt) — the cold-start mount path.
  explicit FileStorage(std::filesystem::path path, bool preserve = false);
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  void write(std::int64_t offset, std::span<const std::byte> data) override;
  void read(std::int64_t offset, std::span<std::byte> out) const override;
  std::int64_t size() const override;
  void flush() override;
  std::string kind() const override { return "file"; }

  void set_epoch(std::int64_t e) override;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  int fd_ = -1;
  int epoch_fd_ = -1;        ///< sidecar, opened lazily on first set_epoch
  std::int64_t size_ = 0;    ///< cached logical size (satellite: no lseek
                             ///< per bounds-checked read)
};

/// Integrity decorator: a CRC-32C per `block_bytes` block over its coverage
/// (block start to the furthest byte written into it through this layer),
/// and no copy of the subfile's bytes.
///
/// Writes. A touched block whose new coverage the payload supplies whole gets
/// its CRC straight from the payload. Any other touched block has its new
/// coverage read once from the inner storage (zeros past the inner end): the
/// old coverage is checked against its CRC, the new bytes are spliced in and
/// the result is summed. All of that happens before anything is
/// committed: the inner write follows, and the sums and size change only
/// when it returns. An injected EIO thus leaves the old, consistent state;
/// a tear the inner storage reports as success leaves sums that disagree
/// with the stored bytes, and the next read detects it.
///
/// Poisoned blocks. When that check fails (bit rot, or a tear left the inner
/// storage short of the coverage), the write still succeeds but the block is
/// poisoned: reads of it throw StorageCorruptionError until a write that
/// supplies its whole coverage (scrub's repair) replaces it. A partial write
/// never launders damage into a fresh CRC.
///
/// Reads verify the bytes they return. readv makes one inner readv into the
/// caller's buffer and checks every block a single run covers on those
/// bytes. A block the runs cover only in part is read whole once, checked,
/// and the requested bytes are copied from that checked copy. An inner
/// storage shorter than an acknowledged write, a CRC mismatch or a poisoned
/// block throws StorageCorruptionError. Holes never written through this
/// layer carry no CRC and are returned unverified (zeros by the storage
/// growth contract).
///
/// size() is the intended size: the inner size at construction grown by
/// every acknowledged write, honest even when a tear left the inner short.
class IntegrityStorage final : public SubfileStorage {
 public:
  static constexpr std::int64_t kDefaultBlock = 4096;

  explicit IntegrityStorage(std::unique_ptr<SubfileStorage> inner,
                            std::int64_t block_bytes = kDefaultBlock);

  void write(std::int64_t offset, std::span<const std::byte> data) override;
  void read(std::int64_t offset, std::span<std::byte> out) const override;
  void writev(std::span<const IoVec> runs,
              std::span<const std::byte> payload) override;
  void readv(std::span<const IoVec> runs,
             std::span<std::byte> out) const override;
  std::int64_t size() const override;
  void flush() override { inner_->flush(); }
  std::string kind() const override {
    return "integrity(" + inner_->kind() + ")";
  }

  std::int64_t epoch() const override { return inner_->epoch(); }
  void set_epoch(std::int64_t e) override { inner_->set_epoch(e); }
  void disarm_faults() override { inner_->disarm_faults(); }

 private:
  struct BlockSum {
    std::uint32_t crc = 0;
    bool poisoned = false;  ///< a write found the old bytes damaged
    std::int64_t len = 0;   ///< coverage in bytes; 0: never written
  };

  void write_runs(std::span<const IoVec> runs,
                  std::span<const std::byte> payload);
  void read_runs(std::span<const IoVec> runs, std::span<std::byte> out) const;
  BlockSum sum_of(std::int64_t b) const PFM_REQUIRES(mu_);
  /// Reads the first `len` bytes of block `b` (at least its coverage) into
  /// `buf`, zeros past the inner end, and returns whether the coverage
  /// matches the recorded CRC.
  bool load_block(std::int64_t b, std::int64_t len, Buffer& buf) const
      PFM_REQUIRES(mu_);

  mutable Mutex mu_{"IntegrityStorage::mu"};
  std::unique_ptr<SubfileStorage> inner_;
  std::int64_t block_;
  std::int64_t size_ PFM_GUARDED_BY(mu_);
  /// Indexed by block number; blocks past the end were never written.
  std::vector<BlockSum> sums_ PFM_GUARDED_BY(mu_);
};

/// Reads a crash-safe `.epoch` sidecar written by FileStorage::set_epoch:
/// validates both slots and returns the highest CRC-clean epoch. Missing,
/// legacy-format, or fully torn sidecars read as 0 (a full re-sync — safe,
/// never a garbage epoch). Shared with the cold-start inventory scan
/// (recover.h), which must judge copies it does not open for serving.
std::int64_t load_epoch_sidecar(const std::filesystem::path& sidecar);

/// Factory covering both backends: `dir` empty -> memory; otherwise a file
/// inside dir named by the copy's identity — `subfile_<id>.n<node>` when
/// the caller passes the absolute I/O node id (`node` >= 0, what Clusterfile
/// does so a cold mount can map files back to nodes), else the legacy
/// `subfile_<id>` (replica 0) / `subfile_<id>.r<replica>` scheme — so
/// copies of one subfile sharing a directory never collide. `preserve`
/// reopens existing bytes instead of truncating (mount path). When `faults`
/// is non-null — or, failing that, when PFM_STORAGE_FAULT_* environment
/// knobs request nonzero fault rates (storage_fault.h) — the backend is
/// wrapped in a FaultyStorage driven by that plan; the fault stream's
/// identity stays (subfile_id, replica) either way.
std::unique_ptr<SubfileStorage> make_storage(
    const std::filesystem::path& dir, int subfile_id, int replica = 0,
    const StorageFaultPlan* faults = nullptr, int node = -1,
    bool preserve = false);

}  // namespace pfm
