// Tests for the subfile storage backends, the per-block integrity layer and
// the deterministic storage fault injector.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <system_error>
#include <thread>
#include <vector>

#include "clusterfile/storage.h"
#include "clusterfile/storage_fault.h"
#include "util/buffer.h"
#include "util/rng.h"

namespace pfm {
namespace {

/// Scratch directory for file-backed storage tests; PFM_TEST_STORAGE_DIR
/// overrides the base (CI points it at a tmpfs inside the runner).
std::filesystem::path test_dir(const std::string& leaf) {
  std::filesystem::path base = std::filesystem::temp_directory_path();
  if (const char* env = std::getenv("PFM_TEST_STORAGE_DIR"); env && *env)
    base = env;
  return base / leaf;
}

class StorageTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<SubfileStorage> make() {
    if (GetParam()) {
      dir_ = test_dir("pfm_storage_test");
      std::filesystem::remove_all(dir_);
      return make_storage(dir_, 0);
    }
    return make_storage({}, 0);
  }

  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
};

TEST_P(StorageTest, WriteReadRoundTrip) {
  auto s = make();
  const Buffer data = make_pattern_buffer(256, 1);
  s->write(0, data);
  EXPECT_EQ(s->size(), 256);
  Buffer back(256);
  s->read(0, back);
  EXPECT_TRUE(equal_bytes(back, data));
}

TEST_P(StorageTest, SparseWritesZeroFillHoles) {
  auto s = make();
  const Buffer data = make_pattern_buffer(4, 2);
  s->write(100, data);
  EXPECT_EQ(s->size(), 104);
  Buffer hole(4);
  s->read(50, hole);
  for (std::byte b : hole) EXPECT_EQ(b, std::byte{0});
  Buffer back(4);
  s->read(100, back);
  EXPECT_TRUE(equal_bytes(back, data));
}

TEST_P(StorageTest, OverwriteInPlace) {
  auto s = make();
  s->write(0, make_pattern_buffer(64, 1));
  const Buffer patch = make_pattern_buffer(16, 9);
  s->write(8, patch);
  Buffer back(16);
  s->read(8, back);
  EXPECT_TRUE(equal_bytes(back, patch));
  EXPECT_EQ(s->size(), 64);
}

TEST_P(StorageTest, ReadBeyondEndThrows) {
  auto s = make();
  s->write(0, make_pattern_buffer(8, 3));
  Buffer out(4);
  EXPECT_THROW(s->read(6, out), std::out_of_range);
  EXPECT_NO_THROW(s->read(4, out));
}

TEST_P(StorageTest, FlushSucceeds) {
  auto s = make();
  s->write(0, make_pattern_buffer(8, 4));
  EXPECT_NO_THROW(s->flush());
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "File" : "Memory";
                         });

// Regression: an empty write past EOF used to grow MemoryStorage (and a
// zero-length memcpy from a null span is UB); empty writes must be complete
// no-ops on both backends.
TEST_P(StorageTest, EmptyWriteNeverGrows) {
  auto s = make();
  s->write(1000, std::span<const std::byte>{});
  EXPECT_EQ(s->size(), 0);
  s->write(0, make_pattern_buffer(8, 5));
  s->write(5000, std::span<const std::byte>{});
  EXPECT_EQ(s->size(), 8);
  Buffer nothing;
  EXPECT_NO_THROW(s->read(8, nothing));  // empty read at EOF is fine
}

TEST_P(StorageTest, EpochIsIndependentOfData) {
  auto s = make();
  EXPECT_EQ(s->epoch(), 0);
  s->set_epoch(7);
  s->write(0, make_pattern_buffer(8, 6));
  EXPECT_EQ(s->epoch(), 7);
  s->set_epoch(8);
  EXPECT_EQ(s->epoch(), 8);
}

TEST_P(StorageTest, ReplicaNamesDoNotCollide) {
  auto s = make();
  if (!GetParam()) return;  // naming only matters for the file backend
  auto r1 = make_storage(dir_, 0, 1);
  s->write(0, make_pattern_buffer(8, 1));
  r1->write(0, make_pattern_buffer(16, 2));
  EXPECT_EQ(s->size(), 8);
  EXPECT_EQ(r1->size(), 16);
}

// writev/readv: strided runs from one concatenated payload must behave
// exactly like one write()/read() per run (the default implementation the
// backends inherit), holes included.
TEST_P(StorageTest, VectoredWriteReadRoundTrip) {
  auto s = make();
  const std::vector<IoVec> runs = {{0, 16}, {48, 16}, {100, 28}};
  const Buffer payload = make_pattern_buffer(60, 17);
  s->writev(runs, payload);
  EXPECT_EQ(s->size(), 128);

  Buffer gathered(60);
  s->readv(runs, gathered);
  EXPECT_TRUE(equal_bytes(gathered, payload));

  // Per-run reads see the same bytes, and the gaps stayed zero-filled.
  Buffer second(16);
  s->read(48, second);
  EXPECT_TRUE(equal_bytes(second,
                          std::span<const std::byte>(payload).subspan(16, 16)));
  Buffer hole(32);
  s->read(16, hole);
  for (std::byte b : hole) EXPECT_EQ(b, std::byte{0});
}

TEST(Storage, KindNames) {
  EXPECT_EQ(make_storage({}, 0)->kind(), "memory");
  const auto dir = test_dir("pfm_storage_kind");
  std::filesystem::remove_all(dir);
  EXPECT_EQ(make_storage(dir, 1)->kind(), "file");
  std::filesystem::remove_all(dir);
}

TEST(Storage, FileEpochSurvivesInSidecar) {
  const auto dir = test_dir("pfm_storage_epoch");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    FileStorage st(dir / "subfile_0");
    st.write(0, make_pattern_buffer(8, 3));
    st.set_epoch(42);
  }
  // The sidecar outlives the writer process; a fresh FileStorage over the
  // same path truncates (restart_server reuses the *object*, not the path),
  // so read the sidecar directly.
  EXPECT_TRUE(std::filesystem::exists(dir / "subfile_0.epoch"));
  std::filesystem::remove_all(dir);
}

TEST(Storage, PreserveReopensBytesAndSidecarEpoch) {
  const auto dir = test_dir("pfm_storage_preserve");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Buffer data = make_pattern_buffer(64, 11);
  {
    FileStorage st(dir / "subfile_0");
    st.write(0, data);
    st.set_epoch(6);
    st.set_epoch(7);  // exercises both ping-pong slots
  }
  FileStorage back(dir / "subfile_0", /*preserve=*/true);
  EXPECT_EQ(back.size(), 64);
  EXPECT_EQ(back.epoch(), 7);
  Buffer out(64);
  back.read(0, out);
  EXPECT_TRUE(equal_bytes(out, data));
  std::filesystem::remove_all(dir);
}

TEST(Storage, TornSidecarSlotFallsBackToLastGoodEpoch) {
  const auto dir = test_dir("pfm_storage_torn_sidecar");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto sidecar = dir / "subfile_0.epoch";
  {
    FileStorage st(dir / "subfile_0");
    st.write(0, make_pattern_buffer(8, 1));
    st.set_epoch(4);  // slot 0
    st.set_epoch(5);  // slot 1
  }
  EXPECT_EQ(load_epoch_sidecar(sidecar), 5);
  // Tear the newer slot (a kill mid-pwrite): its CRC fails and the reader
  // falls back to the other slot's last-good epoch — understating, never
  // inventing.
  {
    std::fstream f(sidecar, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16);  // slot 1 = odd epochs
    f.put('\xff');
  }
  EXPECT_EQ(load_epoch_sidecar(sidecar), 4);
  // Both slots torn: 0, a full re-sync, never a garbage epoch.
  {
    std::fstream f(sidecar, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.put('\xff');
  }
  EXPECT_EQ(load_epoch_sidecar(sidecar), 0);
  EXPECT_EQ(load_epoch_sidecar(dir / "absent.epoch"), 0);
  std::filesystem::remove_all(dir);
}

TEST(Storage, NodeQualifiedNamesAndPreserveFactory) {
  const auto dir = test_dir("pfm_storage_node_names");
  std::filesystem::remove_all(dir);
  const Buffer data = make_pattern_buffer(16, 5);
  {
    // node >= 0 selects the `subfile_<id>.n<node>` scheme a cold mount can
    // map back to I/O nodes.
    auto st = make_storage(dir, 3, /*replica=*/1, nullptr, /*node=*/7);
    st->write(0, data);
    st->set_epoch(2);
  }
  EXPECT_TRUE(std::filesystem::exists(dir / "subfile_3.n7"));
  EXPECT_TRUE(std::filesystem::exists(dir / "subfile_3.n7.epoch"));
  auto back = make_storage(dir, 3, /*replica=*/1, nullptr, /*node=*/7,
                           /*preserve=*/true);
  EXPECT_EQ(back->epoch(), 2);
  Buffer out(16);
  back->read(0, out);
  EXPECT_TRUE(equal_bytes(out, data));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// IntegrityStorage
// ---------------------------------------------------------------------------

TEST(IntegrityStorage, RoundTripAndHolePreserved) {
  IntegrityStorage st(std::make_unique<MemoryStorage>(), 64);
  const Buffer data = make_pattern_buffer(200, 8);
  st.write(0, data);
  st.write(500, data);  // hole in [200, 500)
  Buffer back(200);
  st.read(500, back);
  EXPECT_TRUE(equal_bytes(back, data));
  Buffer hole(64);
  st.read(300, hole);
  for (std::byte b : hole) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(st.size(), 700);
}

TEST(IntegrityStorage, DetectsBitRotUnderneath) {
  auto inner = std::make_unique<MemoryStorage>();
  MemoryStorage* raw = inner.get();
  IntegrityStorage st(std::move(inner), 64);
  st.write(0, make_pattern_buffer(128, 9));
  // Flip one stored bit behind the integrity layer's back.
  Buffer one(1);
  raw->read(70, one);
  one[0] ^= std::byte{0x10};
  raw->write(70, one);
  Buffer back(128);
  EXPECT_THROW(st.read(0, back), StorageCorruptionError);
  // The undamaged block is still readable.
  Buffer first(64);
  EXPECT_NO_THROW(st.read(0, first));
}

TEST(IntegrityStorage, DetectsTornWriteUnderneath) {
  auto inner = std::make_unique<MemoryStorage>();
  IntegrityStorage st(std::make_unique<MemoryStorage>(), 64);
  // Simulate the tear with FaultyStorage: every write persists a prefix.
  StorageFaultPlan plan;
  plan.seed = 3;
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kWrite;
  rule.torn_write = 1.0;
  plan.rules.push_back(rule);
  IntegrityStorage torn(
      std::make_unique<FaultyStorage>(std::make_unique<MemoryStorage>(), plan),
      64);
  torn.write(0, make_pattern_buffer(128, 10));
  EXPECT_EQ(torn.size(), 128);  // intended size stays honest
  Buffer back(128);
  EXPECT_THROW(torn.read(0, back), StorageCorruptionError);
}

TEST(IntegrityStorage, FullBlockOverwriteRepairsCorruption) {
  auto inner = std::make_unique<MemoryStorage>();
  MemoryStorage* raw = inner.get();
  IntegrityStorage st(std::move(inner), 64);
  st.write(0, make_pattern_buffer(64, 11));
  Buffer one(1);
  raw->read(3, one);
  one[0] ^= std::byte{0x01};
  raw->write(3, one);
  Buffer back(64);
  EXPECT_THROW(st.read(0, back), StorageCorruptionError);
  // Scrub's repair path: a write covering the block's whole recorded
  // coverage must succeed over the corrupt bytes and restore readability.
  const Buffer fresh = make_pattern_buffer(64, 12);
  EXPECT_NO_THROW(st.write(0, fresh));
  st.read(0, back);
  EXPECT_TRUE(equal_bytes(back, fresh));
}

TEST(IntegrityStorage, PartialOverwriteOfCorruptBlockIsNotLaundered) {
  auto inner = std::make_unique<MemoryStorage>();
  MemoryStorage* raw = inner.get();
  IntegrityStorage st(std::move(inner), 64);
  st.write(0, make_pattern_buffer(64, 13));
  Buffer one(1);
  raw->read(40, one);
  one[0] ^= std::byte{0x80};
  raw->write(40, one);
  // A partial overwrite succeeds, but it reads the block's old bytes to
  // splice into, finds them rotten and poisons the block instead of
  // laundering the damage into a fresh checksum: the next read reports it.
  EXPECT_NO_THROW(st.write(0, make_pattern_buffer(8, 14)));
  Buffer back(64);
  EXPECT_THROW(st.read(0, back), StorageCorruptionError);
}

// The vectorized override (one CRC bookkeeping pass per touched block
// instead of one per run) must leave the exact state a run-at-a-time
// sequence of write() calls would: same bytes, same checksums, so reads
// through either instance agree.
TEST(IntegrityStorage, VectoredWriteMatchesSequentialWrites) {
  IntegrityStorage vec(std::make_unique<MemoryStorage>(), 64);
  IntegrityStorage seq(std::make_unique<MemoryStorage>(), 64);
  // Runs chosen to straddle block boundaries and share blocks: two runs in
  // block 0, one spanning blocks 1-2, one alone in block 3.
  const std::vector<IoVec> runs = {{8, 8}, {40, 16}, {100, 40}, {200, 10}};
  Buffer payload = make_pattern_buffer(74, 18);
  vec.writev(runs, payload);
  std::size_t off = 0;
  for (const IoVec& r : runs) {
    seq.write(r.offset, std::span<const std::byte>(payload)
                            .subspan(off, static_cast<std::size_t>(r.len)));
    off += static_cast<std::size_t>(r.len);
  }
  ASSERT_EQ(vec.size(), seq.size());
  Buffer a(static_cast<std::size_t>(vec.size()));
  Buffer b(static_cast<std::size_t>(seq.size()));
  vec.read(0, a);
  seq.read(0, b);
  EXPECT_TRUE(equal_bytes(a, b));
  // And the gathered view matches what went in.
  Buffer gathered(74);
  vec.readv(runs, gathered);
  EXPECT_TRUE(equal_bytes(gathered, payload));
}

// Corruption behind the integrity layer must surface through readv exactly
// as it does through read — the gather path verifies every touched block.
TEST(IntegrityStorage, VectoredReadDetectsBitRot) {
  auto inner = std::make_unique<MemoryStorage>();
  MemoryStorage* raw = inner.get();
  IntegrityStorage st(std::move(inner), 64);
  st.write(0, make_pattern_buffer(256, 19));
  Buffer one(1);
  raw->read(130, one);  // block 2
  one[0] ^= std::byte{0x04};
  raw->write(130, one);

  const std::vector<IoVec> bad_runs = {{0, 16}, {128, 16}};
  Buffer out(32);
  EXPECT_THROW(st.readv(bad_runs, out), StorageCorruptionError);
  // Runs avoiding the rotten block still gather fine.
  const std::vector<IoVec> good_runs = {{0, 16}, {64, 16}, {192, 16}};
  Buffer ok(48);
  EXPECT_NO_THROW(st.readv(good_runs, ok));
}

// A tear under a vectorized write is caught like a tear under write():
// the persisted prefix disagrees with the recorded checksums.
TEST(IntegrityStorage, VectoredTornWriteIsDetected) {
  StorageFaultPlan plan;
  plan.seed = 5;
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kWrite;
  rule.torn_write = 1.0;
  plan.rules.push_back(rule);
  IntegrityStorage torn(
      std::make_unique<FaultyStorage>(std::make_unique<MemoryStorage>(), plan),
      64);
  const std::vector<IoVec> runs = {{0, 64}, {64, 64}};
  torn.writev(runs, make_pattern_buffer(128, 20));
  EXPECT_EQ(torn.size(), 128);  // intended size stays honest
  Buffer back(128);
  EXPECT_THROW(torn.read(0, back), StorageCorruptionError);
}

// A partial write over a torn block (the inner storage ends inside the
// block's coverage) poisons it; only a write supplying the whole coverage
// makes it readable again.
TEST(IntegrityStorage, TornBlockIsPoisonedUntilWholeCoverageRewrite) {
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kWrite;
  rule.torn_write = 1.0;
  StorageFaultPlan plan;
  plan.seed = 8;
  plan.rules.push_back(rule);
  auto faulty =
      std::make_unique<FaultyStorage>(std::make_unique<MemoryStorage>(), plan);
  FaultyStorage* disk = faulty.get();
  IntegrityStorage st(std::move(faulty), 64);
  st.write(0, make_pattern_buffer(64, 21));  // torn: a strict prefix lands
  disk->disarm_faults();
  EXPECT_NO_THROW(st.write(8, make_pattern_buffer(4, 22)));
  Buffer back(64);
  EXPECT_THROW(st.read(0, back), StorageCorruptionError);
  Buffer part(4);
  EXPECT_THROW(st.read(8, part), StorageCorruptionError);
  const Buffer fresh = make_pattern_buffer(64, 23);
  st.write(0, fresh);
  st.read(0, back);
  EXPECT_TRUE(equal_bytes(back, fresh));
}

/// A MemoryStorage that counts the calls reaching it and fails reads or
/// writes with EIO on request: the inner storage of the IntegrityStorage
/// tests that pin inner I/O counts and fault atomicity.
class ProbeStorage final : public SubfileStorage {
 public:
  struct Probe {
    int reads = 0;   ///< read() and readv() calls
    int writes = 0;  ///< write() and writev() calls
    bool fail_reads = false;
    bool fail_writes = false;
  };

  explicit ProbeStorage(Probe& probe) : probe_(probe) {}

  void write(std::int64_t offset, std::span<const std::byte> data) override {
    on_write();
    mem_.write(offset, data);
  }
  void writev(std::span<const IoVec> runs,
              std::span<const std::byte> payload) override {
    on_write();
    mem_.writev(runs, payload);
  }
  void read(std::int64_t offset, std::span<std::byte> out) const override {
    on_read();
    mem_.read(offset, out);
  }
  void readv(std::span<const IoVec> runs,
             std::span<std::byte> out) const override {
    on_read();
    mem_.readv(runs, out);
  }
  std::int64_t size() const override { return mem_.size(); }
  void flush() override {}
  std::string kind() const override { return "probe"; }

 private:
  void on_read() const {
    ++probe_.reads;
    if (probe_.fail_reads)
      throw std::system_error(EIO, std::generic_category(), "probe read");
  }
  void on_write() {
    ++probe_.writes;
    if (probe_.fail_writes)
      throw std::system_error(EIO, std::generic_category(), "probe write");
  }

  Probe& probe_;
  MemoryStorage mem_;
};

// An injected EIO, whether it hits reading a partial block's old bytes or
// the inner write itself, fails the write and leaves the sums and the size
// as they were: the old bytes still read back verified, and the same write
// lands once the disk recovers.
TEST(IntegrityStorage, InjectedEioLeavesNothingHalfApplied) {
  ProbeStorage::Probe probe;
  IntegrityStorage st(std::make_unique<ProbeStorage>(probe), 64);
  const Buffer old = make_pattern_buffer(100, 24);
  st.write(0, old);
  const Buffer patch = make_pattern_buffer(20, 25);  // inside block 1
  probe.fail_reads = true;
  EXPECT_THROW(st.write(70, patch), std::system_error);
  probe.fail_reads = false;
  probe.fail_writes = true;
  EXPECT_THROW(st.write(70, patch), std::system_error);
  EXPECT_THROW(st.write(64, make_pattern_buffer(100, 26)), std::system_error);
  probe.fail_writes = false;
  EXPECT_EQ(st.size(), 100);
  Buffer back(100);
  st.read(0, back);
  EXPECT_TRUE(equal_bytes(back, old));
  st.write(70, patch);
  Buffer again(20);
  st.read(70, again);
  EXPECT_TRUE(equal_bytes(again, patch));
}

// Inner I/O the design promises: a write that supplies whole blocks reads
// nothing back, a readv of whole blocks is one inner call however many runs
// it has (a block the runs share costs one more, whole-block read), and
// wrapping a non-empty storage reads none of it.
TEST(IntegrityStorage, WholeBlockWritevReadsNothing) {
  ProbeStorage::Probe probe;
  IntegrityStorage st(std::make_unique<ProbeStorage>(probe), 64);
  st.write(0, make_pattern_buffer(256, 27));
  probe = {};
  const std::vector<IoVec> runs = {{0, 64}, {128, 128}};
  st.writev(runs, make_pattern_buffer(192, 28));
  EXPECT_EQ(probe.reads, 0);
  EXPECT_EQ(probe.writes, 1);
}

TEST(IntegrityStorage, WholeBlockReadvMakesOneInnerCall) {
  ProbeStorage::Probe probe;
  IntegrityStorage st(std::make_unique<ProbeStorage>(probe), 64);
  const Buffer data = make_pattern_buffer(256, 29);
  st.write(0, data);
  probe = {};
  const std::vector<IoVec> runs = {{0, 64}, {128, 128}};
  Buffer out(192);
  st.readv(runs, out);
  EXPECT_EQ(probe.reads, 1);
  EXPECT_TRUE(equal_bytes(std::span<const std::byte>(out).first(64),
                          std::span<const std::byte>(data).first(64)));
  EXPECT_TRUE(equal_bytes(std::span<const std::byte>(out).subspan(64),
                          std::span<const std::byte>(data).subspan(128)));

  probe = {};
  const std::vector<IoVec> shared = {{8, 8}, {24, 8}};  // both in block 0
  Buffer part(16);
  st.readv(shared, part);
  EXPECT_EQ(probe.reads, 2);
}

TEST(IntegrityStorage, ConstructionReadsNothing) {
  ProbeStorage::Probe probe;
  auto inner = std::make_unique<ProbeStorage>(probe);
  inner->write(0, make_pattern_buffer(300, 30));
  probe = {};
  IntegrityStorage st(std::move(inner), 64);
  EXPECT_EQ(probe.reads, 0);
  EXPECT_EQ(st.size(), 300);
}

/// Ascending, disjoint runs inside [0, limit) in the shapes that stress the
/// per-block bookkeeping: whole aligned blocks, short runs that share a
/// block, runs that start mid-block or straddle a block edge, neighbours
/// that touch, and gaps.
std::vector<IoVec> random_runs(Rng& rng, std::int64_t block,
                               std::int64_t limit) {
  std::vector<IoVec> runs;
  std::int64_t at = rng.uniform(0, limit / 2);
  const std::int64_t n = rng.uniform(1, 6);
  for (std::int64_t i = 0; i < n && at < limit; ++i) {
    std::int64_t off = at;
    std::int64_t len = 1;
    switch (rng.uniform(0, 3)) {
      case 0:  // whole aligned blocks
        off = (at + block - 1) / block * block;
        len = block * rng.uniform(1, 2);
        break;
      case 1:  // short: may share its block with its neighbours
        len = rng.uniform(1, std::max<std::int64_t>(1, block / 4));
        break;
      case 2: {  // straddles the next block edge
        const std::int64_t edge = (at / block + 1) * block;
        off = std::max(at, edge - rng.uniform(1, block));
        len = edge - off + rng.uniform(1, block);
        break;
      }
      default:  // up to two blocks from wherever the last run ended
        len = rng.uniform(1, 2 * block);
    }
    if (off >= limit) break;
    len = std::min(len, limit - off);
    runs.push_back({off, len});
    at = off + len + (rng.chance(0.5) ? 0 : rng.uniform(1, block));
  }
  return runs;
}

// Oracle: the same seeded write/writev/read/readv sequence through an
// IntegrityStorage and a plain MemoryStorage returns the same bytes on every
// read, and both refuse the same out-of-range reads.
TEST(IntegrityStorage, MatchesPlainStorageOnRandomRunLists) {
  for (const std::int64_t block : {1, 7, 64, 4096}) {
    SCOPED_TRACE("block " + std::to_string(block));
    Rng rng(static_cast<std::uint64_t>(block) * 7919 + 3);
    IntegrityStorage checked(std::make_unique<MemoryStorage>(), block);
    MemoryStorage plain;
    const std::int64_t limit = std::max<std::int64_t>(5 * block, 96);
    for (int step = 0; step < 400; ++step) {
      const std::int64_t op = rng.uniform(0, 3);
      const std::vector<IoVec> runs = random_runs(rng, block, limit);
      std::int64_t total = 0;
      for (const IoVec& r : runs) total += r.len;
      if (op <= 1) {
        const Buffer payload = make_pattern_buffer(
            static_cast<std::size_t>(total), static_cast<std::uint64_t>(step));
        if (op == 1) {
          checked.writev(runs, payload);
          plain.writev(runs, payload);
        } else {
          std::size_t pos = 0;
          for (const IoVec& r : runs) {
            const auto part = std::span<const std::byte>(payload).subspan(
                pos, static_cast<std::size_t>(r.len));
            checked.write(r.offset, part);
            plain.write(r.offset, part);
            pos += static_cast<std::size_t>(r.len);
          }
        }
        ASSERT_EQ(checked.size(), plain.size());
        continue;
      }
      Buffer want(static_cast<std::size_t>(total));
      Buffer got(static_cast<std::size_t>(total));
      if (runs.back().offset + runs.back().len > plain.size()) {
        EXPECT_THROW(plain.readv(runs, want), std::out_of_range);
        EXPECT_THROW(checked.readv(runs, got), std::out_of_range);
        continue;
      }
      if (op == 3) {
        plain.readv(runs, want);
        checked.readv(runs, got);
      } else {
        std::size_t pos = 0;
        for (const IoVec& r : runs) {
          const auto n = static_cast<std::size_t>(r.len);
          plain.read(r.offset, std::span<std::byte>(want).subspan(pos, n));
          checked.read(r.offset, std::span<std::byte>(got).subspan(pos, n));
          pos += n;
        }
      }
      ASSERT_TRUE(equal_bytes(got, want)) << "step " << step;
    }
    Buffer want(static_cast<std::size_t>(plain.size()));
    Buffer got(want.size());
    plain.read(0, want);
    checked.read(0, got);
    EXPECT_TRUE(equal_bytes(got, want));
  }
}

// Clusterfile::file_size_estimate polls size() on a live server's storage
// while the server's loop thread writes and reads it.
TEST(IntegrityStorage, SizeIsSafeToPollDuringVectoredIo) {
  IntegrityStorage st(std::make_unique<MemoryStorage>(), 64);
  std::atomic<bool> done{false};
  bool monotonic = true;
  std::int64_t last = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::int64_t now = st.size();
      monotonic = monotonic && now >= last;
      last = now;
    }
  });
  for (std::int64_t i = 0; i < 300; ++i) {
    const std::vector<IoVec> runs = {{i * 48, 16}, {i * 48 + 24, 40}};
    const Buffer payload =
        make_pattern_buffer(56, static_cast<std::uint64_t>(i));
    st.writev(runs, payload);
    Buffer back(56);
    st.readv(runs, back);
    EXPECT_TRUE(equal_bytes(back, payload)) << "write " << i;
  }
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(st.size(), 299 * 48 + 64);
}

// ---------------------------------------------------------------------------
// FaultyStorage
// ---------------------------------------------------------------------------

StorageFaultPlan one_rule_plan(std::uint64_t seed, StorageFaultRule rule) {
  StorageFaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back(rule);
  return plan;
}

TEST(FaultyStorage, SameSeedSameFaults) {
  StorageFaultRule rule;
  rule.torn_write = 0.3;
  rule.eio = 0.1;
  auto run = [&](std::uint64_t seed) {
    FaultyStorage st(std::make_unique<MemoryStorage>(),
                     one_rule_plan(seed, rule), /*subfile_id=*/2,
                     /*replica=*/1);
    const Buffer data = make_pattern_buffer(64, 15);
    for (int i = 0; i < 200; ++i) {
      try {
        st.write(static_cast<std::int64_t>(i) * 64, data);
      } catch (const std::system_error&) {
      }
    }
    return st.counters();
  };
  const auto a = run(9), b = run(9), c = run(10);
  EXPECT_EQ(a.torn_writes, b.torn_writes);
  EXPECT_EQ(a.eio_injected, b.eio_injected);
  EXPECT_GT(a.torn_writes, 0);
  EXPECT_GT(a.eio_injected, 0);
  // A different seed gives a different (still nonempty) fault sequence.
  EXPECT_TRUE(a.torn_writes != c.torn_writes || a.eio_injected != c.eio_injected);
}

TEST(FaultyStorage, TornWritePersistsStrictPrefix) {
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kWrite;
  rule.torn_write = 1.0;
  FaultyStorage st(std::make_unique<MemoryStorage>(), one_rule_plan(4, rule));
  const Buffer data = make_pattern_buffer(100, 16);
  EXPECT_NO_THROW(st.write(0, data));  // the tear still acks
  EXPECT_EQ(st.counters().torn_writes, 1);
  EXPECT_LT(st.size(), 100);  // strictly shorter than the intended write
}

TEST(FaultyStorage, BitRotFlipsExactlyOneStoredBit) {
  StorageFaultRule rule;
  rule.op = StorageFaultRule::Op::kRead;
  rule.bit_rot = 1.0;
  FaultyStorage st(std::make_unique<MemoryStorage>(), one_rule_plan(5, rule));
  const Buffer data = make_pattern_buffer(64, 17);
  st.write(0, data);
  Buffer back(64);
  st.read(0, back);
  int flipped_bits = 0;
  for (std::size_t i = 0; i < back.size(); ++i) {
    unsigned diff = std::to_integer<unsigned>(back[i] ^ data[i]);
    while (diff) {
      flipped_bits += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(st.counters().bits_rotted, 1);
  // The rot is persistent: disarm and re-read — the flip is still there.
  st.disarm_faults();
  Buffer again(64);
  st.read(0, again);
  EXPECT_EQ(again, back);
}

TEST(FaultyStorage, DeadAfterBudgetIsSticky) {
  StorageFaultRule rule;
  rule.dead_after = 3;
  FaultyStorage st(std::make_unique<MemoryStorage>(), one_rule_plan(6, rule));
  const Buffer data = make_pattern_buffer(8, 18);
  for (int i = 0; i < 3; ++i) EXPECT_NO_THROW(st.write(i * 8, data));
  EXPECT_THROW(st.write(24, data), std::system_error);
  EXPECT_TRUE(st.dead());
  Buffer out(8);
  EXPECT_THROW(st.read(0, out), std::system_error);
  // Death models hardware: disarming the injector does not resurrect it.
  st.disarm_faults();
  EXPECT_THROW(st.read(0, out), std::system_error);
  EXPECT_GE(st.counters().dead_rejected, 2);
}

TEST(FaultyStorage, DisarmStopsProbabilisticFaults) {
  StorageFaultRule rule;
  rule.eio = 1.0;
  FaultyStorage st(std::make_unique<MemoryStorage>(), one_rule_plan(7, rule));
  const Buffer data = make_pattern_buffer(8, 19);
  EXPECT_THROW(st.write(0, data), std::system_error);
  st.disarm_faults();
  EXPECT_NO_THROW(st.write(0, data));
}

TEST(FaultyStorage, EnvPlanParsesKnobs) {
  ASSERT_EQ(std::getenv("PFM_STORAGE_FAULT_TORN"), nullptr)
      << "test environment already sets storage fault knobs";
  EXPECT_FALSE(storage_fault_plan_from_env().has_value());
  setenv("PFM_STORAGE_FAULT_TORN", "0.25", 1);
  setenv("PFM_STORAGE_FAULT_SEED", "99", 1);
  const auto plan = storage_fault_plan_from_env();
  unsetenv("PFM_STORAGE_FAULT_TORN");
  unsetenv("PFM_STORAGE_FAULT_SEED");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 99u);
  ASSERT_EQ(plan->rules.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->rules[0].torn_write, 0.25);
}

}  // namespace
}  // namespace pfm
