// Tests for the Clusterfile metadata manager and manifest persistence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "clusterfile/journal.h"
#include "clusterfile/metadata.h"
#include "layout/partitions2d.h"

namespace pfm {
namespace {

FileRecord sample_record(const std::string& name, Partition2D p,
                         std::int64_t n = 16) {
  FileRecord rec;
  rec.name = name;
  rec.displacement = 0;
  rec.size = n * n;
  const auto elems = partition2d_all(p, n, n, 4);
  rec.subfile_falls = {elems.begin(), elems.end()};
  rec.io_nodes = {4, 5, 6, 7};
  return rec;
}

TEST(Metadata, CreateLookupRemove) {
  MetadataManager mm;
  mm.create(sample_record("matrix", Partition2D::kSquareBlocks));
  EXPECT_TRUE(mm.exists("matrix"));
  EXPECT_EQ(mm.count(), 1u);
  const FileRecord& rec = mm.lookup("matrix");
  EXPECT_EQ(rec.size, 256);
  EXPECT_EQ(rec.subfile_falls.size(), 4u);
  EXPECT_EQ(rec.pattern().size(), 256);
  EXPECT_TRUE(mm.remove("matrix"));
  EXPECT_FALSE(mm.exists("matrix"));
  EXPECT_FALSE(mm.remove("matrix"));
  EXPECT_THROW(mm.lookup("matrix"), std::out_of_range);
}

TEST(Metadata, RejectsInvalidRecords) {
  MetadataManager mm;
  FileRecord rec = sample_record("ok", Partition2D::kRowBlocks);
  mm.create(rec);
  rec.name = "ok";
  EXPECT_THROW(mm.create(rec), std::invalid_argument);  // duplicate
  rec.name = "";
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
  rec.name = "bad";
  rec.io_nodes.pop_back();
  EXPECT_THROW(mm.create(rec), std::invalid_argument);  // node count
  rec = sample_record("bad2", Partition2D::kRowBlocks);
  rec.subfile_falls[1] = rec.subfile_falls[0];  // overlapping pattern
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
  rec = sample_record("bad3", Partition2D::kRowBlocks);
  rec.size = -1;
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
}

TEST(Metadata, SizeUpdatesGrowOnly) {
  MetadataManager mm;
  mm.create(sample_record("f", Partition2D::kRowBlocks));
  mm.update_size("f", 512);
  EXPECT_EQ(mm.lookup("f").size, 512);
  EXPECT_THROW(mm.update_size("f", 100), std::invalid_argument);
  EXPECT_THROW(mm.update_size("missing", 1), std::out_of_range);
}

TEST(Metadata, LayoutUpdateValidates) {
  MetadataManager mm;
  mm.create(sample_record("f", Partition2D::kRowBlocks));
  const auto cols = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  mm.update_layout("f", {cols.begin(), cols.end()});
  EXPECT_EQ(mm.lookup("f").subfile_falls[0], cols[0]);
  // Wrong element count rejected.
  const auto two = partition2d_all(Partition2D::kRowBlocks, 16, 16, 2);
  EXPECT_THROW(mm.update_layout("f", {two.begin(), two.end()}),
               std::invalid_argument);
}

TEST(Metadata, ManifestRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_meta_test";
  std::filesystem::create_directories(dir);
  const auto manifest = dir / "manifest.txt";

  MetadataManager mm;
  mm.create(sample_record("alpha", Partition2D::kSquareBlocks));
  mm.create(sample_record("beta", Partition2D::kColumnBlocks, 8));
  FileRecord custom;
  custom.name = "gamma";
  custom.displacement = 2;
  custom.size = 100;
  custom.subfile_falls = {{make_falls(0, 1, 6, 1)},
                          {make_falls(2, 3, 6, 1)},
                          {make_falls(4, 5, 6, 1)}};
  custom.io_nodes = {4, 5, 4};
  mm.create(custom);
  mm.save(manifest);

  // One format: even unreplicated records save under the version-5 header.
  {
    std::ifstream is(manifest);
    std::string magic;
    int version = 0;
    is >> magic >> version;
    EXPECT_EQ(magic, "pfm-manifest");
    EXPECT_EQ(version, 5);
  }

  MetadataManager back;
  back.load(manifest);
  EXPECT_EQ(back.count(), 3u);
  EXPECT_EQ(back.list(), (std::vector<std::string>{"alpha", "beta", "gamma"}));
  const FileRecord& g = back.lookup("gamma");
  EXPECT_EQ(g.displacement, 2);
  EXPECT_EQ(g.size, 100);
  EXPECT_EQ(g.io_nodes, (std::vector<int>{4, 5, 4}));
  EXPECT_EQ(g.subfile_falls, custom.subfile_falls);
  const FileRecord& a = back.lookup("alpha");
  EXPECT_EQ(a.subfile_falls, mm.lookup("alpha").subfile_falls);

  std::filesystem::remove_all(dir);
}

TEST(Metadata, LoadRejectsMalformedManifests) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_meta_bad";
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& text) {
    const auto path = dir / "m.txt";
    std::ofstream os(path);
    os << text;
    os.close();
    return path;
  };
  MetadataManager mm;
  EXPECT_THROW(mm.load(dir / "missing.txt"), std::runtime_error);
  EXPECT_THROW(mm.load(write("not-a-manifest 5\n")), std::invalid_argument);
  EXPECT_NO_THROW(mm.load(write("pfm-manifest 5\n")));  // empty is valid
  EXPECT_THROW(mm.load(write("pfm-manifest 5\nfile x\ndisp 0\n")),
               std::invalid_argument);
  EXPECT_THROW(
      mm.load(write("pfm-manifest 5\nfile x\ndisp 0\nsize 8\nsubfiles 1\n"
                    "4 {(0,1,")),
      std::invalid_argument);
  // Only the one current format loads: every other version is rejected,
  // even over a body the current parser accepts.
  const std::string body =
      "\nfile x\ndisp 0\nsize 12\nsubfiles 1\n4,5 {(0,11,12,1)}\n";
  EXPECT_NO_THROW(mm.load(write("pfm-manifest 5" + body)));
  for (const char* version : {"0", "1", "2", "3", "4", "6", "-5", "five"})
    EXPECT_THROW(mm.load(write(std::string("pfm-manifest ") + version + body)),
                 std::invalid_argument)
        << "version " << version;
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Replica placement
// ---------------------------------------------------------------------------

TEST(Metadata, ReplicatedRecordValidation) {
  MetadataManager mm;
  FileRecord rec = sample_record("r", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  EXPECT_NO_THROW(mm.create(rec));
  mm.remove("r");
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}};  // count mismatch
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
  rec.replica_nodes = {{5, 4}, {5, 6}, {6, 7}, {7, 4}};  // not primary-first
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
  rec.replica_nodes = {{4, 4}, {5, 6}, {6, 7}, {7, 4}};  // duplicate node
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
}

TEST(Metadata, ReplicatedManifestRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_meta_rep";
  std::filesystem::create_directories(dir);
  const auto manifest = dir / "manifest.txt";

  MetadataManager mm;
  FileRecord rec = sample_record("mirrored", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  mm.create(rec);
  mm.create(sample_record("plain", Partition2D::kColumnBlocks));
  mm.save(manifest);

  MetadataManager back;
  back.load(manifest);
  const FileRecord& m = back.lookup("mirrored");
  EXPECT_EQ(m.replica_nodes, rec.replica_nodes);
  EXPECT_EQ(m.io_nodes, rec.io_nodes);
  // Unreplicated records stay unreplicated after a round trip.
  EXPECT_TRUE(back.lookup("plain").replica_nodes.empty());

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Write quorum
// ---------------------------------------------------------------------------

TEST(Metadata, QuorumRecordValidation) {
  MetadataManager mm;
  FileRecord rec = sample_record("q", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  rec.write_quorum = 2;  // == replica count: full fan-out, but explicit
  EXPECT_NO_THROW(mm.create(rec));
  mm.remove("q");
  rec.write_quorum = 3;  // exceeds the widest replica list
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
  rec.write_quorum = -1;
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
  // Without replica lists only 0 (full fan-out) and 1 are meaningful.
  rec.replica_nodes.clear();
  rec.write_quorum = 2;
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
  rec.write_quorum = 1;
  EXPECT_NO_THROW(mm.create(rec));
}

TEST(Metadata, QuorumManifestRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_meta_quorum";
  std::filesystem::create_directories(dir);
  const auto manifest = dir / "manifest.txt";

  MetadataManager mm;
  FileRecord rec = sample_record("sloppy", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  rec.write_quorum = 1;
  mm.create(rec);
  mm.create(sample_record("plain", Partition2D::kColumnBlocks));
  mm.save(manifest);

  MetadataManager back;
  back.load(manifest);
  const FileRecord& s = back.lookup("sloppy");
  EXPECT_EQ(s.write_quorum, 1);
  EXPECT_EQ(s.replica_nodes, rec.replica_nodes);
  // Records without a quorum line load as full fan-out.
  EXPECT_EQ(back.lookup("plain").write_quorum, 0);

  std::filesystem::remove_all(dir);
}

TEST(Metadata, LoadRejectsMalformedQuorums) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_meta_badq";
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& text) {
    const auto path = dir / "m.txt";
    std::ofstream os(path);
    os << text;
    os.close();
    return path;
  };
  MetadataManager mm;
  const std::string body =
      "file x\ndisp 0\nsize 12\nquorum %s\nsubfiles 1\n4,5 {(0,11,12,1)}\n";
  const auto with_quorum = [&](const std::string& q) {
    std::string text = "pfm-manifest 5\n" + body;
    text.replace(text.find("%s"), 2, q);
    return write(text);
  };
  // Zero, negative and non-numeric quorums are malformed (0 is expressed by
  // omitting the line, exactly as unreplicated files omit replica lists).
  EXPECT_THROW(mm.load(with_quorum("0")), std::invalid_argument);
  EXPECT_THROW(mm.load(with_quorum("-1")), std::invalid_argument);
  EXPECT_THROW(mm.load(with_quorum("two")), std::invalid_argument);
  // A quorum wider than the replica lists can never be met.
  EXPECT_THROW(mm.load(with_quorum("3")), std::invalid_argument);
  // The same record with a satisfiable quorum loads.
  EXPECT_NO_THROW(mm.load(with_quorum("2")));
  EXPECT_EQ(mm.lookup("x").write_quorum, 2);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Repair-advanced placement
// ---------------------------------------------------------------------------

TEST(Metadata, UpdatePlacementValidates) {
  MetadataManager mm;
  FileRecord rec = sample_record("p", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  rec.write_quorum = 2;
  mm.create(rec);

  // A repair moved subfile 0 off node 4 onto node 6.
  mm.update_placement("p", {{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 1);
  const FileRecord& after = mm.lookup("p");
  EXPECT_EQ(after.placement_epoch, 1);
  EXPECT_EQ(after.replica_nodes[0], (std::vector<int>{5, 6}));
  EXPECT_EQ(after.io_nodes[0], 5);  // primary follows the new list

  // The epoch must advance.
  EXPECT_THROW(mm.update_placement("p", {{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 1),
               std::invalid_argument);
  // Per-subfile list count must match.
  EXPECT_THROW(mm.update_placement("p", {{5, 6}}, 2), std::invalid_argument);
  // Duplicate nodes in a list are rejected.
  EXPECT_THROW(
      mm.update_placement("p", {{5, 5}, {5, 6}, {6, 7}, {7, 5}}, 2),
      std::invalid_argument);
  // A placement narrower than the quorum can never satisfy it.
  EXPECT_THROW(mm.update_placement("p", {{5}, {5}, {6}, {7}}, 2),
               std::invalid_argument);
  EXPECT_THROW(mm.update_placement("missing", {{5}}, 2), std::out_of_range);
}

TEST(Metadata, PlacedManifestRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_meta_placed";
  std::filesystem::create_directories(dir);
  const auto manifest = dir / "manifest.txt";

  MetadataManager mm;
  FileRecord rec = sample_record("healed", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  rec.write_quorum = 1;
  mm.create(rec);
  mm.create(sample_record("plain", Partition2D::kColumnBlocks));
  mm.update_placement("healed", {{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 3);
  mm.save(manifest);

  MetadataManager back;
  back.load(manifest);
  const FileRecord& h = back.lookup("healed");
  EXPECT_EQ(h.placement_epoch, 3);
  EXPECT_EQ(h.replica_nodes,
            (std::vector<std::vector<int>>{{5, 6}, {5, 6}, {6, 7}, {7, 5}}));
  EXPECT_EQ(h.write_quorum, 1);
  EXPECT_EQ(back.lookup("plain").placement_epoch, 0);

  std::filesystem::remove_all(dir);
}

TEST(Metadata, LoadRejectsMalformedPlacements) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_meta_badp";
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& text) {
    const auto path = dir / "m.txt";
    std::ofstream os(path);
    os << text;
    os.close();
    return path;
  };
  MetadataManager mm;
  const std::string body =
      "file x\ndisp 0\nsize 12\nplacement %s\nsubfiles 1\n4,5 {(0,11,12,1)}\n";
  const auto with_placement = [&](const std::string& e) {
    std::string text = "pfm-manifest 5\n" + body;
    text.replace(text.find("%s"), 2, e);
    return write(text);
  };
  // Zero, negative and non-numeric epochs are malformed (epoch 0 is
  // expressed by omitting the line).
  EXPECT_THROW(mm.load(with_placement("0")), std::invalid_argument);
  EXPECT_THROW(mm.load(with_placement("-2")), std::invalid_argument);
  EXPECT_THROW(mm.load(with_placement("soon")), std::invalid_argument);
  // The same record with a positive epoch loads.
  EXPECT_NO_THROW(mm.load(with_placement("7")));
  EXPECT_EQ(mm.lookup("x").placement_epoch, 7);
  std::filesystem::remove_all(dir);
}

TEST(Metadata, MembershipUpdateValidates) {
  MetadataManager mm;
  FileRecord rec = sample_record("elastic", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  mm.create(rec);
  // Epoch must strictly advance.
  EXPECT_THROW(mm.update_membership("elastic", 0, {}), std::invalid_argument);
  mm.update_membership("elastic", 2, {});
  EXPECT_EQ(mm.lookup("elastic").ring_epoch, 2);
  EXPECT_THROW(mm.update_membership("elastic", 2, {}), std::invalid_argument);
  // Retiring a node still referenced by the placement is malformed — copies
  // migrate off a node before it retires.
  EXPECT_THROW(mm.update_membership("elastic", 3, {5}),
               std::invalid_argument);
  EXPECT_THROW(mm.update_membership("elastic", 3, {9, 9}),
               std::invalid_argument);  // duplicate retired node
  mm.update_membership("elastic", 3, {9});
  EXPECT_EQ(mm.lookup("elastic").retired_nodes, (std::vector<int>{9}));
  // Deferred retirement: the same epoch may record *strictly more* retired
  // nodes (remove_node bumps the epoch first, records the node retired only
  // after repairs drained it) — but never fewer, and never a no-op.
  mm.update_membership("elastic", 3, {9, 10});
  EXPECT_EQ(mm.lookup("elastic").retired_nodes, (std::vector<int>{9, 10}));
  EXPECT_THROW(mm.update_membership("elastic", 3, {9, 10}),
               std::invalid_argument);  // no growth
  EXPECT_THROW(mm.update_membership("elastic", 3, {9, 11}),
               std::invalid_argument);  // drops 10: not a superset
  // A later re-placement must not resurrect the retired node either.
  EXPECT_THROW(
      mm.update_placement("elastic", {{4, 9}, {5, 6}, {6, 7}, {7, 4}}, 1),
      std::invalid_argument);
  EXPECT_THROW(mm.update_membership("missing", 1, {}), std::out_of_range);
}

TEST(Metadata, MembershipManifestRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_meta_ring";
  std::filesystem::create_directories(dir);
  const auto manifest = dir / "manifest.txt";

  MetadataManager mm;
  FileRecord rec = sample_record("elastic", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  rec.write_quorum = 1;
  mm.create(rec);
  mm.create(sample_record("plain", Partition2D::kColumnBlocks));
  mm.update_placement("elastic", {{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 2);
  mm.update_membership("elastic", 4, {8, 9});
  mm.save(manifest);

  MetadataManager back;
  back.load(manifest);
  const FileRecord& e = back.lookup("elastic");
  EXPECT_EQ(e.ring_epoch, 4);
  EXPECT_EQ(e.retired_nodes, (std::vector<int>{8, 9}));
  EXPECT_EQ(e.placement_epoch, 2);
  EXPECT_EQ(e.write_quorum, 1);
  EXPECT_EQ(e.replica_nodes,
            (std::vector<std::vector<int>>{{5, 6}, {5, 6}, {6, 7}, {7, 5}}));
  EXPECT_EQ(back.lookup("plain").ring_epoch, 0);
  EXPECT_TRUE(back.lookup("plain").retired_nodes.empty());

  std::filesystem::remove_all(dir);
}

TEST(Metadata, LoadRejectsMalformedMembership) {
  const auto dir = std::filesystem::temp_directory_path() / "pfm_meta_badr";
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& text) {
    const auto path = dir / "m.txt";
    std::ofstream os(path);
    os << text;
    os.close();
    return path;
  };
  MetadataManager mm;
  const auto manifest = [&](const std::string& lines) {
    return write("pfm-manifest 5\nfile x\ndisp 0\nsize 12\n" + lines +
                 "subfiles 1\n4,5 {(0,11,12,1)}\n");
  };
  // Epoch 0 is expressed by omitting the line; zero/negative/garbage are
  // malformed, as are duplicate or placement-referenced retired nodes.
  EXPECT_THROW(mm.load(manifest("ring 0\n")), std::invalid_argument);
  EXPECT_THROW(mm.load(manifest("ring -1\n")), std::invalid_argument);
  EXPECT_THROW(mm.load(manifest("ring soon\n")), std::invalid_argument);
  EXPECT_THROW(mm.load(manifest("retired 9,9\n")), std::invalid_argument);
  EXPECT_THROW(mm.load(manifest("ring 2\nretired 5\n")),
               std::invalid_argument);  // 5 still holds a replica of x
  // The well-formed equivalent loads.
  EXPECT_NO_THROW(mm.load(manifest("ring 2\nretired 9\n")));
  EXPECT_EQ(mm.lookup("x").ring_epoch, 2);
  EXPECT_EQ(mm.lookup("x").retired_nodes, (std::vector<int>{9}));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Durable mode: journal framing, recovery, checkpoints, crash points
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void dump(const fs::path& p, const std::string& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Journal, AppendReplayRoundTrip) {
  const auto dir = fresh_dir("pfm_journal_roundtrip");
  const auto path = dir / "metadata.journal";
  {
    Journal j(path);
    EXPECT_TRUE(j.append("alpha"));
    EXPECT_TRUE(j.append(""));  // empty payloads are legal frames
    EXPECT_TRUE(j.append("gamma delta"));
    EXPECT_EQ(j.records(), 3);
  }
  const Journal::Replay r = Journal::replay_file(path);
  EXPECT_EQ(r.records,
            (std::vector<std::string>{"alpha", "", "gamma delta"}));
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.bytes_discarded, 0);
  fs::remove_all(dir);
}

TEST(Journal, TornTailIsDiscardedAndCutOnReopen) {
  const auto dir = fresh_dir("pfm_journal_torn");
  const auto path = dir / "metadata.journal";
  {
    Journal j(path);
    j.append("one");
    j.append("two");
  }
  // Tear the last frame: keep all but its final byte, as a kill mid-write
  // would. Replay must keep "one" and drop the tail.
  const std::string whole = slurp(path);
  dump(path, whole.substr(0, whole.size() - 1));
  Journal::Replay r = Journal::replay_file(path);
  EXPECT_EQ(r.records, std::vector<std::string>{"one"});
  EXPECT_TRUE(r.torn_tail);
  EXPECT_GT(r.bytes_discarded, 0);
  // Reopening cuts the torn tail so new appends continue the valid chain.
  {
    Journal j(path);
    EXPECT_EQ(j.records(), 1);
    EXPECT_TRUE(j.append("three"));
  }
  r = Journal::replay_file(path);
  EXPECT_EQ(r.records, (std::vector<std::string>{"one", "three"}));
  EXPECT_FALSE(r.torn_tail);
  fs::remove_all(dir);
}

TEST(Journal, CorruptMiddleRecordEndsTheValidPrefix) {
  const auto dir = fresh_dir("pfm_journal_corrupt");
  const auto path = dir / "metadata.journal";
  std::size_t first_frame = 0;
  {
    Journal j(path);
    j.append("keep");
    first_frame = static_cast<std::size_t>(fs::file_size(path));
    j.append("doomed");
    j.append("unreachable");
  }
  std::string bytes = slurp(path);
  bytes[first_frame + 12] ^= 0x01;  // flip a payload bit of record 2
  dump(path, bytes);
  const Journal::Replay r = Journal::replay_file(path);
  // The CRC chain stops the scan at the corrupt frame: the record after it
  // is unreachable even though its own bytes are intact.
  EXPECT_EQ(r.records, std::vector<std::string>{"keep"});
  EXPECT_TRUE(r.torn_tail);
  fs::remove_all(dir);
}

TEST(Journal, ReplayNeverThrowsOnGarbage) {
  EXPECT_NO_THROW(Journal::replay({}));
  const std::string garbage = "not a journal at all, definitely";
  const Journal::Replay r = Journal::replay(std::as_bytes(std::span(
      garbage.data(), garbage.size())));
  EXPECT_TRUE(r.records.empty());
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.bytes_discarded, static_cast<std::int64_t>(garbage.size()));
}

TEST(Metadata, DurableMutationsReplayOnColdStart) {
  const auto dir = fresh_dir("pfm_meta_durable");
  {
    MetadataManager mm;
    // A huge interval: everything below stays in the journal, so the cold
    // start exercises pure journal replay (no checkpoint).
    mm.open_durable(dir, 1 << 20);
    FileRecord rec = sample_record("j", Partition2D::kRowBlocks);
    rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
    mm.create(rec);
    mm.update_size("j", 4096);
    mm.update_placement("j", {{4, 6}, {5, 6}, {6, 7}, {7, 4}}, 1);
    mm.update_membership("j", 2, {9});
    EXPECT_GE(mm.journal_pending(), 4);
  }
  MetadataManager back;
  const RecoveryInfo info = back.recover_from(dir);
  EXPECT_FALSE(info.manifest_loaded);  // journal only — never checkpointed
  EXPECT_GE(info.journal_records, 4);
  EXPECT_FALSE(info.journal_torn_tail);
  const FileRecord& rec = back.lookup("j");
  EXPECT_EQ(rec.size, 4096);
  EXPECT_EQ(rec.replica_nodes[0], (std::vector<int>{4, 6}));
  EXPECT_EQ(rec.placement_epoch, 1);
  EXPECT_EQ(rec.ring_epoch, 2);
  EXPECT_EQ(rec.retired_nodes, std::vector<int>{9});
  fs::remove_all(dir);
}

TEST(Metadata, CheckpointFoldsJournalIntoManifest) {
  const auto dir = fresh_dir("pfm_meta_ckpt");
  {
    MetadataManager mm;
    mm.open_durable(dir, 1 << 20);
    mm.create(sample_record("a", Partition2D::kRowBlocks));
    mm.update_size("a", 1024);
    mm.checkpoint();
    EXPECT_EQ(mm.journal_pending(), 0);
    mm.update_size("a", 2048);  // journaled on top of the checkpoint
    EXPECT_EQ(mm.journal_pending(), 1);
  }
  EXPECT_TRUE(fs::exists(dir / MetadataManager::kManifestName));
  MetadataManager back;
  const RecoveryInfo info = back.recover_from(dir);
  EXPECT_TRUE(info.manifest_loaded);
  EXPECT_EQ(info.journal_records, 1);
  EXPECT_EQ(back.lookup("a").size, 2048);
  fs::remove_all(dir);
}

TEST(Metadata, PeriodicCheckpointTruncatesJournal) {
  const auto dir = fresh_dir("pfm_meta_interval");
  MetadataManager mm;
  mm.open_durable(dir, 2);
  mm.create(sample_record("a", Partition2D::kRowBlocks));
  mm.update_size("a", 512);  // second record: interval reached, checkpoint
  EXPECT_EQ(mm.journal_pending(), 0);
  EXPECT_TRUE(fs::exists(dir / MetadataManager::kManifestName));
  fs::remove_all(dir);
}

TEST(Metadata, CrashAtJournalBarrierIsDurable) {
  const auto dir = fresh_dir("pfm_meta_crash");
  {
    MetadataManager mm;
    mm.open_durable(dir, 1 << 20);
    mm.create(sample_record("a", Partition2D::kRowBlocks));
    // The very next durability barrier (this append's fdatasync) throws —
    // but the record reached disk first, so recovery must see the update.
    arm_crash_after_syncs(1);
    EXPECT_THROW(mm.update_size("a", 900), SimulatedCrash);
    EXPECT_TRUE(crash_tripped());
    // The frozen layer drops later durable writes instead of lying.
    mm.update_size("a", 1000);  // applied in memory only
    EXPECT_EQ(mm.lookup("a").size, 1000);
  }
  arm_crash_after_syncs(0);  // disarm + unfreeze for the remount
  MetadataManager back;
  back.recover_from(dir);
  EXPECT_EQ(back.lookup("a").size, 900);  // the armed barrier's record
  fs::remove_all(dir);
}

TEST(Metadata, TornManifestWriteFallsBackToJournal) {
  const auto dir = fresh_dir("pfm_meta_torn");
  {
    MetadataManager mm;
    mm.open_durable(dir, 1 << 20);
    mm.create(sample_record("a", Partition2D::kRowBlocks));
    mm.update_size("a", 768);
    // Every durable write from here on persists a strict prefix and
    // freezes the layer — the checkpoint below never lands.
    arm_metadata_faults({/*seed=*/7, /*torn_write=*/1.0});
    mm.checkpoint();
  }
  disarm_metadata_faults();
  arm_crash_after_syncs(0);  // unfreeze
  MetadataManager back;
  const RecoveryInfo info = back.recover_from(dir);
  // The torn checkpoint tmp file never renamed over the manifest; the
  // journal still holds the full history.
  EXPECT_FALSE(info.manifest_loaded);
  EXPECT_EQ(back.lookup("a").size, 768);
  fs::remove_all(dir);
}

TEST(Metadata, ApplyJournalRecordRejectsMalformedPayloads) {
  MetadataManager mm;
  EXPECT_THROW(mm.apply_journal_record(""), std::invalid_argument);
  EXPECT_THROW(mm.apply_journal_record("frobnicate x 1"),
               std::invalid_argument);
  EXPECT_THROW(mm.apply_journal_record("size onlyname"),
               std::invalid_argument);
  EXPECT_THROW(mm.apply_journal_record("size x notanumber"),
               std::invalid_argument);
  // Replay semantics: a record for an absent file is stale, not fatal.
  EXPECT_NO_THROW(mm.apply_journal_record("remove ghost"));
  EXPECT_NO_THROW(mm.apply_journal_record("size ghost 42"));
  EXPECT_EQ(mm.count(), 0u);
}

}  // namespace
}  // namespace pfm
