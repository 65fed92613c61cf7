// Tests for the Clusterfile metadata manager and manifest persistence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>

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
  rec.replica_nodes = {{4}, {5}, {6}, {7}};
  return rec;
}

/// `base` with one field group replaced — the records the update() tests
/// feed in.
FileRecord with_size(FileRecord base, std::int64_t size) {
  base.size = size;
  return base;
}

FileRecord with_placement(FileRecord base, std::vector<std::vector<int>> rows,
                          std::int64_t epoch) {
  base.replica_nodes = std::move(rows);
  base.placement_epoch = epoch;
  return base;
}

FileRecord with_membership(FileRecord base, std::int64_t ring,
                           std::vector<int> retired) {
  base.ring_epoch = ring;
  base.retired_nodes = std::move(retired);
  return base;
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
  rec.replica_nodes.pop_back();
  EXPECT_THROW(mm.create(rec), std::invalid_argument);  // row count
  rec = sample_record("bad1", Partition2D::kRowBlocks);
  rec.replica_nodes[2].clear();
  EXPECT_THROW(mm.create(rec), std::invalid_argument);  // empty row
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
  mm.update(with_size(mm.lookup("f"), 512));
  EXPECT_EQ(mm.lookup("f").size, 512);
  EXPECT_THROW(mm.update(with_size(mm.lookup("f"), 100)),
               std::invalid_argument);
  FileRecord missing = mm.lookup("f");
  missing.name = "missing";
  EXPECT_THROW(mm.update(missing), std::out_of_range);
}

TEST(Metadata, LayoutUpdateValidates) {
  MetadataManager mm;
  mm.create(sample_record("f", Partition2D::kRowBlocks));
  const auto cols = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  FileRecord next = mm.lookup("f");
  next.subfile_falls = {cols.begin(), cols.end()};
  mm.update(next);
  EXPECT_EQ(mm.lookup("f").subfile_falls[0], cols[0]);
  // Wrong element count rejected, even with a matching placement table.
  const auto two = partition2d_all(Partition2D::kRowBlocks, 16, 16, 2);
  next = mm.lookup("f");
  next.subfile_falls = {two.begin(), two.end()};
  next.replica_nodes = {{4}, {5}};
  EXPECT_THROW(mm.update(next), std::invalid_argument);
  // A layout that is no partitioning pattern is rejected.
  next = mm.lookup("f");
  next.subfile_falls[1] = next.subfile_falls[0];
  EXPECT_THROW(mm.update(next), std::invalid_argument);
  EXPECT_EQ(mm.lookup("f").subfile_falls[0], cols[0]);  // unchanged
}

TEST(Metadata, UpdateKeepsDisplacementAndQuorum) {
  MetadataManager mm;
  FileRecord rec = sample_record("f", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  rec.write_quorum = 1;
  mm.create(rec);
  FileRecord next = mm.lookup("f");
  next.displacement = 8;
  EXPECT_THROW(mm.update(next), std::invalid_argument);
  next = mm.lookup("f");
  next.write_quorum = 2;
  EXPECT_THROW(mm.update(next), std::invalid_argument);
  // Repeating the stored record is a no-op, not a rule violation.
  EXPECT_NO_THROW(mm.update(mm.lookup("f")));
  EXPECT_EQ(mm.lookup("f"), rec);
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
  custom.replica_nodes = {{4}, {5}, {4}};
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
  EXPECT_EQ(g.replica_nodes, (std::vector<std::vector<int>>{{4}, {5}, {4}}));
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
  rec.replica_nodes = {{4, 4}, {5, 6}, {6, 7}, {7, 4}};  // duplicate node
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
  rec.replica_nodes = {{4, 5}, {}, {6, 7}, {7, 4}};  // empty row
  EXPECT_THROW(mm.create(rec), std::invalid_argument);
  // There is no separate primary list to disagree with: a row's head is
  // its subfile's primary.
  rec.replica_nodes = {{5, 4}, {5, 6}, {6, 7}, {7, 4}};
  mm.create(rec);
  EXPECT_EQ(mm.lookup("r").replica_nodes[0][0], 5);
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
  // Unreplicated records keep one node per row after a round trip.
  EXPECT_EQ(back.lookup("plain").replica_nodes,
            (std::vector<std::vector<int>>{{4}, {5}, {6}, {7}}));

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
  // With one node per row only 0 (full fan-out) and 1 are meaningful.
  rec.replica_nodes = {{4}, {5}, {6}, {7}};
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
  const auto placed = [&](std::vector<std::vector<int>> rows,
                          std::int64_t epoch) {
    return with_placement(mm.lookup("p"), std::move(rows), epoch);
  };

  // A repair moved subfile 0 off node 4 onto node 6.
  mm.update(placed({{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 1));
  EXPECT_EQ(mm.lookup("p").placement_epoch, 1);
  EXPECT_EQ(mm.lookup("p").replica_nodes[0], (std::vector<int>{5, 6}));

  // A changed table needs a higher epoch.
  EXPECT_THROW(mm.update(placed({{6, 5}, {5, 6}, {6, 7}, {7, 5}}, 1)),
               std::invalid_argument);
  // The epoch never goes down, not even over the same table...
  EXPECT_THROW(mm.update(placed({{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 0)),
               std::invalid_argument);
  // ...but may advance over it (a remount that re-placed nothing).
  mm.update(placed({{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 2));
  EXPECT_EQ(mm.lookup("p").placement_epoch, 2);
  // Per-subfile row count must match.
  EXPECT_THROW(mm.update(placed({{5, 6}}, 3)), std::invalid_argument);
  // Empty rows and duplicate nodes in a row are rejected.
  EXPECT_THROW(mm.update(placed({{}, {5, 6}, {6, 7}, {7, 5}}, 3)),
               std::invalid_argument);
  EXPECT_THROW(mm.update(placed({{5, 5}, {5, 6}, {6, 7}, {7, 5}}, 3)),
               std::invalid_argument);
  // A placement narrower than the quorum can never satisfy it.
  EXPECT_THROW(mm.update(placed({{5}, {5}, {6}, {7}}, 3)),
               std::invalid_argument);
  FileRecord missing = placed({{5}, {5}, {6}, {7}}, 3);
  missing.name = "missing";
  EXPECT_THROW(mm.update(missing), std::out_of_range);
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
  mm.update(with_placement(mm.lookup("healed"),
                           {{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 3));
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
  const auto member = [&](std::int64_t ring, std::vector<int> retired) {
    return with_membership(mm.lookup("elastic"), ring, std::move(retired));
  };
  mm.update(member(2, {}));
  EXPECT_EQ(mm.lookup("elastic").ring_epoch, 2);
  // The epoch never goes down.
  EXPECT_THROW(mm.update(member(1, {})), std::invalid_argument);
  // Retiring a node still referenced by the placement is malformed — copies
  // migrate off a node before it retires.
  EXPECT_THROW(mm.update(member(3, {5})), std::invalid_argument);
  EXPECT_THROW(mm.update(member(3, {9, 9})),
               std::invalid_argument);  // duplicate retired node
  mm.update(member(3, {9}));
  EXPECT_EQ(mm.lookup("elastic").retired_nodes, (std::vector<int>{9}));
  // Deferred retirement: the same epoch may record *strictly more* retired
  // nodes (remove_node bumps the epoch first, records the node retired only
  // after repairs drained it) — but never fewer or different ones.
  mm.update(member(3, {9, 10}));
  EXPECT_EQ(mm.lookup("elastic").retired_nodes, (std::vector<int>{9, 10}));
  EXPECT_THROW(mm.update(member(3, {9})),
               std::invalid_argument);  // shrinks
  EXPECT_THROW(mm.update(member(3, {9, 11})),
               std::invalid_argument);  // drops 10: not a superset
  EXPECT_THROW(mm.update(member(3, {10, 9})),
               std::invalid_argument);  // reordered: no growth
  // A later re-placement must not resurrect the retired node either.
  EXPECT_THROW(mm.update(with_placement(mm.lookup("elastic"),
                                        {{4, 9}, {5, 6}, {6, 7}, {7, 4}}, 1)),
               std::invalid_argument);
  FileRecord missing = member(4, {});
  missing.name = "missing";
  EXPECT_THROW(mm.update(missing), std::out_of_range);
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
  mm.update(with_placement(mm.lookup("elastic"),
                           {{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 2));
  mm.update(with_membership(mm.lookup("elastic"), 4, {8, 9}));
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
    mm.update(with_size(mm.lookup("j"), 4096));
    mm.update(with_placement(mm.lookup("j"), {{4, 6}, {5, 6}, {6, 7}, {7, 4}},
                             1));
    mm.update(with_membership(mm.lookup("j"), 2, {9}));
    EXPECT_EQ(mm.journal_pending(), 4);  // one `put` per mutation
  }
  MetadataManager back;
  const RecoveryInfo info = back.recover_from(dir);
  EXPECT_FALSE(info.manifest_loaded);  // journal only — never checkpointed
  EXPECT_EQ(info.journal_records, 4);
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
    mm.update(with_size(mm.lookup("a"), 1024));
    mm.checkpoint();
    EXPECT_EQ(mm.journal_pending(), 0);
    mm.update(with_size(mm.lookup("a"), 2048));  // journaled on top
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
  mm.update(with_size(mm.lookup("a"), 512));  // interval reached: checkpoint
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
    EXPECT_THROW(mm.update(with_size(mm.lookup("a"), 900)), SimulatedCrash);
    EXPECT_TRUE(crash_tripped());
    // The frozen layer drops later durable writes instead of lying.
    mm.update(with_size(mm.lookup("a"), 1000));  // applied in memory only
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
    mm.update(with_size(mm.lookup("a"), 768));
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
  const std::string body = "\ndisp 0\nsize 12\nsubfiles 1\n4 {(0,11,12,1)}\n";
  EXPECT_THROW(mm.apply_journal_record(""), std::invalid_argument);
  EXPECT_THROW(mm.apply_journal_record("frobnicate x 1"),
               std::invalid_argument);
  // Only `put` and `remove` exist: per-field records are unknown kinds.
  for (const char* payload :
       {"size x 42", "layout x 1\n{(0,11,12,1)}", "placement x 1 1\n4",
        "membership x 2 -", "create x\ndisp 0\nsize 12\nsubfiles 1\n4 "
                            "{(0,11,12,1)}"})
    EXPECT_THROW(mm.apply_journal_record(payload), std::invalid_argument)
        << payload;
  EXPECT_THROW(mm.apply_journal_record("put"), std::invalid_argument);
  EXPECT_THROW(mm.apply_journal_record("remove"), std::invalid_argument);
  EXPECT_THROW(mm.apply_journal_record("remove x extra"),
               std::invalid_argument);
  EXPECT_THROW(mm.apply_journal_record("put x" + body + "trailing"),
               std::invalid_argument);
  // The record validator runs on replay too: a retired node in the rows.
  EXPECT_THROW(mm.apply_journal_record(
                   "put x\ndisp 0\nsize 12\nring 1\nretired 4\nsubfiles 1\n"
                   "4 {(0,11,12,1)}\n"),
               std::invalid_argument);
  EXPECT_EQ(mm.count(), 0u);
  // Replay semantics: a remove of an absent file is a no-op, and a put
  // replaces the record whatever it held (the journal order is the order
  // the mutations were validated in).
  EXPECT_NO_THROW(mm.apply_journal_record("remove ghost"));
  mm.apply_journal_record("put x" + body);
  mm.apply_journal_record("put x\ndisp 0\nsize 4\nsubfiles 1\n5 {(0,11,12,1)}\n");
  EXPECT_EQ(mm.lookup("x").size, 4);
  EXPECT_EQ(mm.lookup("x").replica_nodes, std::vector<std::vector<int>>{{5}});
  mm.apply_journal_record("remove x");
  EXPECT_EQ(mm.count(), 0u);
}

// A pfm-manifest 5 text with one-node and replicated rows and every
// optional line: it loads, and saving it reproduces every byte (a one-node
// row serializes as the bare node).
TEST(Metadata, ManifestBytesRoundTrip) {
  const std::string text =
      "pfm-manifest 5\n"
      "file plain\n"
      "disp 0\n"
      "size 256\n"
      "subfiles 4\n"
      "4 {(0,63,64,1)}\n"
      "5 {(64,127,64,1)}\n"
      "6 {(128,191,64,1)}\n"
      "7 {(192,255,64,1)}\n"
      "file replicated\n"
      "disp 3\n"
      "size 4096\n"
      "ring 4\n"
      "retired 8,4\n"
      "placement 3\n"
      "quorum 1\n"
      "subfiles 4\n"
      "5,6 {(0,127,128,1,{(0,15,16,8,{(0,7,8,1)})})}\n"
      "5,6 {(0,127,128,1,{(0,15,16,8,{(8,15,8,1)})})}\n"
      "6,7 {(128,255,128,1,{(0,15,16,8,{(0,7,8,1)})})}\n"
      "7,5 {(128,255,128,1,{(0,15,16,8,{(8,15,8,1)})})}\n";
  const auto dir = fresh_dir("pfm_meta_bytes");
  dump(dir / "in.pfm", text);
  MetadataManager mm;
  mm.load(dir / "in.pfm");
  EXPECT_EQ(mm.lookup("plain").replica_nodes,
            (std::vector<std::vector<int>>{{4}, {5}, {6}, {7}}));
  EXPECT_EQ(mm.lookup("replicated").retired_nodes, (std::vector<int>{8, 4}));
  mm.save(dir / "out.pfm");
  EXPECT_EQ(slurp(dir / "out.pfm"), text);
  fs::remove_all(dir);
}

// One update() is one journal record and one durability barrier, however
// many fields it changes (size, placement and membership together here);
// an update that changes nothing journals nothing.
TEST(Metadata, UpdateIsOneJournalRecord) {
  const auto dir = fresh_dir("pfm_meta_one_record");
  MetadataManager mm;
  mm.open_durable(dir, 1 << 20);
  FileRecord rec = sample_record("a", Partition2D::kRowBlocks);
  rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  mm.create(rec);
  FileRecord next = with_size(mm.lookup("a"), 4096);
  next = with_placement(std::move(next), {{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 1);
  next = with_membership(std::move(next), 2, {4});
  const std::int64_t barriers = durability_barriers();
  mm.update(next);
  EXPECT_EQ(durability_barriers() - barriers, 1);
  EXPECT_EQ(mm.journal_pending(), 2);
  mm.update(next);  // unchanged: no record, no barrier
  EXPECT_EQ(durability_barriers() - barriers, 1);
  EXPECT_EQ(mm.journal_pending(), 2);
  MetadataManager back;
  back.recover_from(dir);
  EXPECT_EQ(back.lookup("a"), next);
  fs::remove_all(dir);
}

/// A mutation sequence over every field update() may change, plus a second
/// file's create and remove: each step is one journal record.
std::vector<std::function<void(MetadataManager&)>> mutation_steps() {
  const auto cols = partition2d_all(Partition2D::kColumnBlocks, 16, 16, 4);
  return {
      [](MetadataManager& mm) {
        FileRecord rec = sample_record("a", Partition2D::kRowBlocks);
        rec.replica_nodes = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
        rec.write_quorum = 1;
        mm.create(rec);
      },
      [](MetadataManager& mm) { mm.update(with_size(mm.lookup("a"), 1024)); },
      [cols](MetadataManager& mm) {
        FileRecord next = mm.lookup("a");
        next.subfile_falls = {cols.begin(), cols.end()};
        mm.update(next);
      },
      [](MetadataManager& mm) {
        mm.update(with_placement(mm.lookup("a"),
                                 {{5, 6}, {5, 6}, {6, 7}, {7, 5}}, 1));
      },
      [](MetadataManager& mm) {
        mm.update(with_membership(mm.lookup("a"), 2, {4}));
      },
      [](MetadataManager& mm) {
        mm.create(sample_record("b", Partition2D::kSquareBlocks));
      },
      [](MetadataManager& mm) {
        mm.update(with_membership(with_size(mm.lookup("a"), 2048), 3, {4, 8}));
      },
      [](MetadataManager& mm) { mm.remove("b"); },
  };
}

std::map<std::string, FileRecord> records_of(const MetadataManager& mm) {
  std::map<std::string, FileRecord> out;
  for (const std::string& name : mm.list()) out.emplace(name, mm.lookup(name));
  return out;
}

// Kill at the checkpoint's directory fsync: the new manifest is in place,
// but the journal was never truncated and still holds every record the
// manifest folded in. Replaying them over it must give the checkpoint's
// state, not a doubled or rolled-back one.
TEST(Metadata, KillAtCheckpointDirFsyncReplaysToTheCheckpoint) {
  const auto dir = fresh_dir("pfm_meta_ckpt_kill");
  const auto steps = mutation_steps();
  std::map<std::string, FileRecord> checkpointed;
  {
    MetadataManager mm;
    mm.open_durable(dir, 1 << 20);
    for (const auto& step : steps) step(mm);
    checkpointed = records_of(mm);
    // Barrier 1 is the tmp file's fdatasync, barrier 2 the directory fsync
    // after the rename; the truncation after it never runs.
    arm_crash_after_syncs(2);
    EXPECT_THROW(mm.checkpoint(), SimulatedCrash);
  }
  arm_crash_after_syncs(0);
  EXPECT_TRUE(fs::exists(dir / MetadataManager::kManifestName));
  MetadataManager back;
  const RecoveryInfo info = back.recover_from(dir);
  EXPECT_TRUE(info.manifest_loaded);
  EXPECT_EQ(info.journal_records, static_cast<std::int64_t>(steps.size()));
  EXPECT_EQ(records_of(back), checkpointed);
  // The manifest alone holds the same state.
  MetadataManager manifest_only;
  manifest_only.load(dir / MetadataManager::kManifestName);
  EXPECT_EQ(records_of(manifest_only), checkpointed);
  fs::remove_all(dir);
}

// Kill at each journal append of the sequence in turn: the killed append's
// record is durable before its barrier throws, so recovery gives the state
// as of that last complete `put` (or `remove`) and nothing later.
TEST(Metadata, KillAtEachJournalAppendRecoversTheLastPut) {
  const auto steps = mutation_steps();
  std::vector<std::map<std::string, FileRecord>> after;  // after[k]: k steps
  {
    MetadataManager mm;
    after.push_back(records_of(mm));
    for (const auto& step : steps) {
      step(mm);
      after.push_back(records_of(mm));
    }
  }
  for (std::size_t kill = 1; kill <= steps.size(); ++kill) {
    SCOPED_TRACE("kill at barrier " + std::to_string(kill));
    const auto dir = fresh_dir("pfm_meta_append_kill");
    {
      MetadataManager mm;
      mm.open_durable(dir, 1 << 20);
      arm_crash_after_syncs(static_cast<std::int64_t>(kill));
      std::size_t done = 0;
      try {
        for (const auto& step : steps) {
          step(mm);
          ++done;
        }
      } catch (const SimulatedCrash&) {
        ++done;  // the killed step's record is durable and applied
      }
      EXPECT_EQ(done, kill);  // barrier k is step k's append
    }
    arm_crash_after_syncs(0);
    MetadataManager back;
    const RecoveryInfo info = back.recover_from(dir);
    EXPECT_FALSE(info.journal_torn_tail);
    EXPECT_EQ(info.journal_records, static_cast<std::int64_t>(kill));
    EXPECT_EQ(records_of(back), after[kill]);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace pfm
