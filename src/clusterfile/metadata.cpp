#include "clusterfile/metadata.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "clusterfile/journal.h"
#include "falls/serialize.h"
#include "util/arith.h"
#include "util/check.h"

namespace pfm {

namespace {

/// Shared retired-set checks: no duplicates, and no placement row (or
/// primary list) referencing a retired node. Used by create(),
/// update_membership() and the manifest loader so the invariant cannot
/// drift between entry points.
void check_retired(const std::vector<int>& retired,
                   const std::vector<int>& io_nodes,
                   const std::vector<std::vector<int>>& replica_nodes) {
  for (std::size_t a = 0; a < retired.size(); ++a)
    for (std::size_t b = a + 1; b < retired.size(); ++b)
      if (retired[a] == retired[b])
        throw std::invalid_argument(
            "MetadataManager: duplicate retired node");
  const auto is_retired = [&](int node) {
    return std::find(retired.begin(), retired.end(), node) != retired.end();
  };
  for (const int node : io_nodes)
    if (is_retired(node))
      throw std::invalid_argument(
          "MetadataManager: placement references a retired node");
  for (const auto& reps : replica_nodes)
    for (const int node : reps)
      if (is_retired(node))
        throw std::invalid_argument(
            "MetadataManager: placement references a retired node");
}

/// Pattern validation with the manifest/journal error contract: the
/// PFM_CHECK ContractViolations and extent-arithmetic overflows that are
/// programming errors for in-process callers become std::invalid_argument
/// when the record came from external bytes (found by tests/fuzz).
void validate_pattern_input(const FileRecord& rec) {
  try {
    rec.pattern();
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const ContractViolation& e) {
    throw std::invalid_argument(
        std::string("MetadataManager: malformed record: ") + e.what());
  } catch (const std::overflow_error& e) {
    throw std::invalid_argument(
        std::string("MetadataManager: malformed record: ") + e.what());
  }
}

}  // namespace

PartitioningPattern FileRecord::pattern() const {
  return PartitioningPattern(subfile_falls, displacement);
}

MetadataManager::MetadataManager() = default;
MetadataManager::~MetadataManager() = default;

// --- Record-body serialization ---------------------------------------------
//
// One block of manifest lines describing a single file, shared between the
// whole-state checkpoint manifest and the journal's `create` records so the
// two formats cannot drift:
//   disp <displacement>
//   size <size>
//   ring <epoch>                         (only when epoch > 0)
//   retired <a,b,c>                      (only when non-empty)
//   placement <epoch>                    (only when epoch > 0)
//   quorum <w>                           (only when w > 0)
//   subfiles <count>
//   <nodes> <falls tuple notation>       (count lines)

namespace {

/// The one manifest format written and accepted.
constexpr int kManifestVersion = 5;

[[noreturn]] void bad_manifest(const std::string& what) {
  throw std::invalid_argument("MetadataManager: malformed manifest: " + what);
}

std::string expect_keyword(std::istream& is, const std::string& keyword) {
  std::string word, rest;
  if (!(is >> word) || word != keyword) bad_manifest("expected " + keyword);
  if (!(is >> rest)) bad_manifest("missing value after " + keyword);
  return rest;
}

// parse_i64 wrapper for manifest fields: keeps the message pointing at the
// manifest, and keeps the "only std::invalid_argument escapes" contract.
// The previous std::stoll here leaked std::out_of_range on huge numbers
// (found by tests/fuzz/fuzz_manifest).
std::int64_t manifest_i64(const std::string& text, const char* field) {
  try {
    return parse_i64(text);
  } catch (const std::exception&) {
    bad_manifest(std::string("bad ") + field + " '" + text + "'");
  }
}

std::vector<int> parse_node_list(const std::string& text, const char* field) {
  std::vector<int> nodes;
  std::stringstream ss(text);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const std::int64_t node = manifest_i64(tok, field);
    if (node < INT32_MIN || node > INT32_MAX)
      bad_manifest(std::string("bad ") + field + " '" + tok + "'");
    nodes.push_back(static_cast<int>(node));
  }
  return nodes;
}

void write_node_list(std::ostream& os, const std::vector<int>& nodes) {
  for (std::size_t r = 0; r < nodes.size(); ++r)
    os << (r ? "," : "") << nodes[r];
}

void write_record_body(std::ostream& os, const FileRecord& rec) {
  os << "disp " << rec.displacement << "\n";
  os << "size " << rec.size << "\n";
  if (rec.ring_epoch > 0) os << "ring " << rec.ring_epoch << "\n";
  if (!rec.retired_nodes.empty()) {
    os << "retired ";
    write_node_list(os, rec.retired_nodes);
    os << "\n";
  }
  if (rec.placement_epoch > 0)
    os << "placement " << rec.placement_epoch << "\n";
  if (rec.write_quorum > 0) os << "quorum " << rec.write_quorum << "\n";
  os << "subfiles " << rec.subfile_falls.size() << "\n";
  for (std::size_t i = 0; i < rec.subfile_falls.size(); ++i) {
    if (rec.replica_nodes.empty()) {
      os << rec.io_nodes[i];
    } else {
      write_node_list(os, rec.replica_nodes[i]);
    }
    os << " " << serialize(rec.subfile_falls[i]) << "\n";
  }
}

/// Parses and validates the lines written by write_record_body (checkpoint
/// manifests and journal `create` records share it).
FileRecord parse_record_body(std::istream& is, std::string name) {
  FileRecord rec;
  rec.name = std::move(name);
  rec.displacement = manifest_i64(expect_keyword(is, "disp"), "disp");
  rec.size = manifest_i64(expect_keyword(is, "size"), "size");
  std::string word;
  if (!(is >> word)) bad_manifest("expected subfiles");
  if (word == "ring") {
    std::string value;
    if (!(is >> value)) bad_manifest("missing value after ring");
    const std::int64_t e = manifest_i64(value, "ring");
    if (e < 1) bad_manifest("bad ring epoch '" + value + "'");
    rec.ring_epoch = e;
    if (!(is >> word)) bad_manifest("expected subfiles");
  }
  if (word == "retired") {
    std::string value;
    if (!(is >> value)) bad_manifest("missing value after retired");
    rec.retired_nodes = parse_node_list(value, "retired node");
    if (rec.retired_nodes.empty()) bad_manifest("empty retired list");
    if (!(is >> word)) bad_manifest("expected subfiles");
  }
  if (word == "placement") {
    std::string value;
    if (!(is >> value)) bad_manifest("missing value after placement");
    const std::int64_t e = manifest_i64(value, "placement");
    if (e < 1) bad_manifest("bad placement epoch '" + value + "'");
    rec.placement_epoch = e;
    if (!(is >> word)) bad_manifest("expected subfiles");
  }
  if (word == "quorum") {
    std::string value;
    if (!(is >> value)) bad_manifest("missing value after quorum");
    const std::int64_t q = manifest_i64(value, "quorum");
    if (q < 1 || q > INT32_MAX) bad_manifest("bad quorum '" + value + "'");
    rec.write_quorum = static_cast<int>(q);
    if (!(is >> word)) bad_manifest("expected subfiles");
  }
  if (word != "subfiles") bad_manifest("expected subfiles");
  std::string count_text;
  if (!(is >> count_text)) bad_manifest("missing value after subfiles");
  const std::int64_t count = manifest_i64(count_text, "subfile count");
  if (count < 1) bad_manifest("bad subfile count");
  bool replicated = false;
  std::size_t widest = 1;
  for (std::int64_t i = 0; i < count; ++i) {
    std::string nodes;
    std::string falls_text;
    if (!(is >> nodes)) bad_manifest("missing io node");
    std::getline(is, falls_text);
    std::vector<int> reps = parse_node_list(nodes, "io node");
    if (reps.empty()) bad_manifest("empty replica list");
    rec.io_nodes.push_back(reps[0]);
    widest = std::max(widest, reps.size());
    rec.replica_nodes.push_back(std::move(reps));
    if (rec.replica_nodes.back().size() > 1) replicated = true;
    rec.subfile_falls.push_back(parse_falls_set(falls_text));
  }
  if (rec.write_quorum > static_cast<int>(widest))
    bad_manifest("write quorum exceeds the replica count");
  if (!replicated) rec.replica_nodes.clear();
  try {
    check_retired(rec.retired_nodes, rec.io_nodes, rec.replica_nodes);
  } catch (const std::invalid_argument& e) {
    bad_manifest(e.what());
  }
  validate_pattern_input(rec);
  return rec;
}

}  // namespace

// --- Mutations --------------------------------------------------------------

void MetadataManager::create(FileRecord record) {
  AccessCanary::Scope guard(canary_);
  if (record.name.empty())
    throw std::invalid_argument("MetadataManager: bad file name");
  for (const char c : record.name)
    if (std::isspace(static_cast<unsigned char>(c)))
      // Whitespace never round-tripped through the token-oriented manifest;
      // with journaling it would also corrupt record framing, so it is
      // rejected outright rather than silently mangled.
      throw std::invalid_argument("MetadataManager: bad file name");
  if (files_.count(record.name))
    throw std::invalid_argument("MetadataManager: file exists: " + record.name);
  if (record.size < 0)
    throw std::invalid_argument("MetadataManager: negative size");
  if (record.io_nodes.size() != record.subfile_falls.size())
    throw std::invalid_argument("MetadataManager: io_nodes count mismatch");
  if (!record.replica_nodes.empty()) {
    if (record.replica_nodes.size() != record.subfile_falls.size())
      throw std::invalid_argument(
          "MetadataManager: replica_nodes count mismatch");
    for (std::size_t i = 0; i < record.replica_nodes.size(); ++i) {
      const auto& reps = record.replica_nodes[i];
      if (reps.empty() || reps[0] != record.io_nodes[i])
        throw std::invalid_argument(
            "MetadataManager: replica list must start with the primary");
      for (std::size_t a = 0; a < reps.size(); ++a)
        for (std::size_t b = a + 1; b < reps.size(); ++b)
          if (reps[a] == reps[b])
            throw std::invalid_argument(
                "MetadataManager: duplicate replica node");
    }
  }
  std::size_t widest = 1;
  for (const auto& reps : record.replica_nodes)
    widest = std::max(widest, reps.size());
  if (record.write_quorum < 0 ||
      record.write_quorum > static_cast<int>(widest))
    throw std::invalid_argument(
        "MetadataManager: write quorum outside [0, replica count]");
  if (record.placement_epoch < 0)
    throw std::invalid_argument("MetadataManager: negative placement epoch");
  if (record.ring_epoch < 0)
    throw std::invalid_argument("MetadataManager: negative ring epoch");
  check_retired(record.retired_nodes, record.io_nodes, record.replica_nodes);
  record.pattern();  // validates the partitioning pattern

  std::ostringstream os;
  os << "create " << record.name << "\n";
  write_record_body(os, record);
  const std::exception_ptr crash = journal_op(os.str());
  files_.emplace(record.name, std::move(record));
  finish_op(crash);
}

void MetadataManager::update_membership(const std::string& name,
                                        std::int64_t ring_epoch,
                                        std::vector<int> retired_nodes) {
  AccessCanary::Scope guard(canary_);
  const auto it = files_.find(name);
  if (it == files_.end())
    throw std::out_of_range("MetadataManager: no such file: " + name);
  FileRecord& rec = it->second;
  if (ring_epoch < rec.ring_epoch)
    throw std::invalid_argument("MetadataManager: ring epoch must advance");
  if (ring_epoch == rec.ring_epoch) {
    // Same epoch: only recording *strictly more* retirement is allowed.
    // This covers deferred retirement — remove_node bumps the ring epoch
    // first and records the node retired only after its async repairs
    // drained the placement off it.
    if (retired_nodes.size() <= rec.retired_nodes.size())
      throw std::invalid_argument("MetadataManager: ring epoch must advance");
    for (const int node : rec.retired_nodes)
      if (std::find(retired_nodes.begin(), retired_nodes.end(), node) ==
          retired_nodes.end())
        throw std::invalid_argument(
            "MetadataManager: ring epoch must advance");
  }
  check_retired(retired_nodes, rec.io_nodes, rec.replica_nodes);

  std::ostringstream os;
  os << "membership " << name << " " << ring_epoch << " ";
  if (retired_nodes.empty()) {
    os << "-";
  } else {
    write_node_list(os, retired_nodes);
  }
  os << "\n";
  const std::exception_ptr crash = journal_op(os.str());
  rec.ring_epoch = ring_epoch;
  rec.retired_nodes = std::move(retired_nodes);
  finish_op(crash);
}

void MetadataManager::update_placement(
    const std::string& name, std::vector<std::vector<int>> replica_nodes,
    std::int64_t placement_epoch) {
  AccessCanary::Scope guard(canary_);
  const auto it = files_.find(name);
  if (it == files_.end())
    throw std::out_of_range("MetadataManager: no such file: " + name);
  FileRecord& rec = it->second;
  if (placement_epoch <= rec.placement_epoch)
    throw std::invalid_argument(
        "MetadataManager: placement epoch must advance");
  if (replica_nodes.size() != rec.subfile_falls.size())
    throw std::invalid_argument(
        "MetadataManager: replica_nodes count mismatch");
  std::size_t widest = 1;
  for (const auto& reps : replica_nodes) {
    if (reps.empty())
      throw std::invalid_argument("MetadataManager: empty replica list");
    for (std::size_t a = 0; a < reps.size(); ++a)
      for (std::size_t b = a + 1; b < reps.size(); ++b)
        if (reps[a] == reps[b])
          throw std::invalid_argument(
              "MetadataManager: duplicate replica node");
    widest = std::max(widest, reps.size());
  }
  if (rec.write_quorum > static_cast<int>(widest))
    throw std::invalid_argument(
        "MetadataManager: placement leaves the write quorum unsatisfiable");
  check_retired(rec.retired_nodes, {}, replica_nodes);

  std::ostringstream os;
  os << "placement " << name << " " << placement_epoch << " "
     << replica_nodes.size() << "\n";
  for (const auto& reps : replica_nodes) {
    write_node_list(os, reps);
    os << "\n";
  }
  const std::exception_ptr crash = journal_op(os.str());
  // The primary is the list head by definition; io_nodes follows it.
  for (std::size_t i = 0; i < replica_nodes.size(); ++i)
    rec.io_nodes[i] = replica_nodes[i][0];
  rec.replica_nodes = std::move(replica_nodes);
  rec.placement_epoch = placement_epoch;
  finish_op(crash);
}

bool MetadataManager::remove(const std::string& name) {
  AccessCanary::Scope guard(canary_);
  if (!files_.count(name)) return false;
  const std::exception_ptr crash = journal_op("remove " + name + "\n");
  files_.erase(name);
  finish_op(crash);
  return true;
}

bool MetadataManager::exists(const std::string& name) const {
  return files_.count(name) > 0;
}

const FileRecord& MetadataManager::lookup(const std::string& name) const {
  const auto it = files_.find(name);
  if (it == files_.end())
    throw std::out_of_range("MetadataManager: no such file: " + name);
  return it->second;
}

void MetadataManager::update_size(const std::string& name, std::int64_t size) {
  AccessCanary::Scope guard(canary_);
  const auto it = files_.find(name);
  if (it == files_.end())
    throw std::out_of_range("MetadataManager: no such file: " + name);
  if (size < it->second.size)
    throw std::invalid_argument("MetadataManager: files never shrink");
  std::ostringstream os;
  os << "size " << name << " " << size << "\n";
  const std::exception_ptr crash = journal_op(os.str());
  it->second.size = size;
  finish_op(crash);
}

void MetadataManager::update_layout(const std::string& name,
                                    std::vector<FallsSet> subfile_falls) {
  AccessCanary::Scope guard(canary_);
  const auto it = files_.find(name);
  if (it == files_.end())
    throw std::out_of_range("MetadataManager: no such file: " + name);
  if (subfile_falls.size() != it->second.subfile_falls.size())
    throw std::invalid_argument("MetadataManager: subfile count changed");
  FileRecord probe = it->second;
  probe.subfile_falls = subfile_falls;
  probe.pattern();  // validate before committing

  std::ostringstream os;
  os << "layout " << name << " " << subfile_falls.size() << "\n";
  for (const FallsSet& falls : subfile_falls)
    os << serialize(falls) << "\n";
  const std::exception_ptr crash = journal_op(os.str());
  it->second.subfile_falls = std::move(subfile_falls);
  finish_op(crash);
}

std::vector<std::string> MetadataManager::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, rec] : files_) out.push_back(name);
  return out;
}

// --- Manifest checkpoint ----------------------------------------------------
//
// Manifest format (line oriented):
//   pfm-manifest 5
//   file <name>
//   <record body — see write_record_body>
// One format: <nodes> is the primary I/O node of an unreplicated record and
// the comma-separated replica list, primary first (e.g. "5,7"), of a
// replicated one, and every optional line of the record body may appear.
// load() accepts only this version; a placement referencing a retired node
// is malformed.

void MetadataManager::save(const std::filesystem::path& manifest) const {
  // save_atomic returning false means the crash harness froze the metadata
  // layer (or a torn-write fault consumed the write): the process is
  // notionally dead and the caller's state no longer reaches disk — by
  // design, not an error.
  (void)save_atomic(manifest);
}

bool MetadataManager::save_atomic(const std::filesystem::path& manifest) const {
  std::ostringstream os;
  os << "pfm-manifest " << kManifestVersion << "\n";
  for (const auto& [name, rec] : files_) {
    os << "file " << name << "\n";
    write_record_body(os, rec);
  }
  // atomic_write_file owns the durability discipline: error-checked writes,
  // tmp-file fdatasync, rename, parent-directory fsync. The bare
  // ofstream+rename this replaced could leave a zero-length or torn
  // manifest behind the "atomic" rename after a crash.
  return atomic_write_file(manifest, os.str());
}

void MetadataManager::load(const std::filesystem::path& manifest) {
  std::ifstream is(manifest);
  if (!is)
    throw std::runtime_error("MetadataManager: cannot read " + manifest.string());
  load(is);
}

void MetadataManager::load(std::istream& is) {
  AccessCanary::Scope guard(canary_);
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != "pfm-manifest" ||
      version != kManifestVersion)
    bad_manifest("bad header");

  std::map<std::string, FileRecord> loaded;
  std::string keyword;
  while (is >> keyword) {
    if (keyword != "file") bad_manifest("expected 'file'");
    std::string name;
    if (!(is >> name)) bad_manifest("missing file name");
    FileRecord rec = parse_record_body(is, std::move(name));
    if (!loaded.emplace(rec.name, std::move(rec)).second)
      bad_manifest("duplicate file name");
  }
  files_ = std::move(loaded);
}

// --- Durable mode -----------------------------------------------------------

namespace {

[[noreturn]] void bad_journal(const std::string& what) {
  throw std::invalid_argument("MetadataManager: malformed journal record: " +
                              what);
}

std::string journal_token(std::istream& is, const char* what) {
  std::string tok;
  if (!(is >> tok)) bad_journal(std::string("missing ") + what);
  return tok;
}

void expect_journal_end(std::istream& is) {
  std::string extra;
  if (is >> extra) bad_journal("trailing bytes after record");
}

}  // namespace

void MetadataManager::apply_journal_record(const std::string& payload) {
  AccessCanary::Scope guard(canary_);
  std::istringstream is(payload);
  std::string op;
  if (!(is >> op)) bad_journal("empty record");

  // Replay semantics are idempotent, not strict: a crash between a
  // checkpoint's directory fsync and the journal truncation leaves a journal
  // whose records are already folded into the checkpoint, so replaying them
  // over it must converge instead of throwing. A `create` replaces any
  // existing record (later journal records re-advance it), epoch-carrying
  // updates skip when the state is already at or past them, and sizes never
  // shrink.
  if (op == "create") {
    const std::string name = journal_token(is, "file name");
    FileRecord rec = parse_record_body(is, name);
    expect_journal_end(is);
    files_[name] = std::move(rec);
    return;
  }
  if (op == "remove") {
    const std::string name = journal_token(is, "file name");
    expect_journal_end(is);
    files_.erase(name);
    return;
  }
  if (op == "size") {
    const std::string name = journal_token(is, "file name");
    const std::int64_t size =
        manifest_i64(journal_token(is, "size"), "size");
    expect_journal_end(is);
    if (size < 0) bad_journal("negative size");
    const auto it = files_.find(name);
    if (it != files_.end() && size > it->second.size) it->second.size = size;
    return;
  }
  if (op == "layout") {
    const std::string name = journal_token(is, "file name");
    const std::int64_t count =
        manifest_i64(journal_token(is, "subfile count"), "subfile count");
    if (count < 1 || count > 1 << 20) bad_journal("bad subfile count");
    std::string line;
    std::getline(is, line);  // rest of the header line
    std::vector<FallsSet> subfile_falls;
    for (std::int64_t i = 0; i < count; ++i) {
      if (!std::getline(is, line)) bad_journal("missing falls line");
      subfile_falls.push_back(parse_falls_set(line));
    }
    expect_journal_end(is);
    const auto it = files_.find(name);
    if (it == files_.end()) return;
    if (subfile_falls.size() != it->second.subfile_falls.size())
      bad_journal("layout subfile count does not match the file");
    FileRecord probe = it->second;
    probe.subfile_falls = subfile_falls;
    validate_pattern_input(probe);
    it->second.subfile_falls = std::move(subfile_falls);
    return;
  }
  if (op == "placement") {
    const std::string name = journal_token(is, "file name");
    const std::int64_t epoch =
        manifest_i64(journal_token(is, "placement epoch"), "placement epoch");
    const std::int64_t count =
        manifest_i64(journal_token(is, "subfile count"), "subfile count");
    if (epoch < 1) bad_journal("bad placement epoch");
    if (count < 1 || count > 1 << 20) bad_journal("bad subfile count");
    std::vector<std::vector<int>> replica_nodes;
    for (std::int64_t i = 0; i < count; ++i) {
      std::vector<int> reps =
          parse_node_list(journal_token(is, "replica list"), "io node");
      if (reps.empty()) bad_journal("empty replica list");
      for (std::size_t a = 0; a < reps.size(); ++a)
        for (std::size_t b = a + 1; b < reps.size(); ++b)
          if (reps[a] == reps[b]) bad_journal("duplicate replica node");
      replica_nodes.push_back(std::move(reps));
    }
    expect_journal_end(is);
    const auto it = files_.find(name);
    if (it == files_.end()) return;
    FileRecord& rec = it->second;
    if (epoch <= rec.placement_epoch) return;  // already at or past it
    if (replica_nodes.size() != rec.subfile_falls.size())
      bad_journal("placement subfile count does not match the file");
    for (std::size_t i = 0; i < replica_nodes.size(); ++i)
      rec.io_nodes[i] = replica_nodes[i][0];
    rec.replica_nodes = std::move(replica_nodes);
    rec.placement_epoch = epoch;
    return;
  }
  if (op == "membership") {
    const std::string name = journal_token(is, "file name");
    const std::int64_t ring =
        manifest_i64(journal_token(is, "ring epoch"), "ring epoch");
    const std::string retired_text = journal_token(is, "retired list");
    expect_journal_end(is);
    if (ring < 1) bad_journal("bad ring epoch");
    std::vector<int> retired;
    if (retired_text != "-")
      retired = parse_node_list(retired_text, "retired node");
    const auto it = files_.find(name);
    if (it == files_.end()) return;
    FileRecord& rec = it->second;
    if (ring < rec.ring_epoch) return;  // already past it
    try {
      check_retired(retired, rec.io_nodes, rec.replica_nodes);
    } catch (const std::invalid_argument& e) {
      bad_journal(e.what());
    }
    rec.ring_epoch = ring;
    rec.retired_nodes = std::move(retired);
    return;
  }
  bad_journal("unknown op '" + op + "'");
}

RecoveryInfo MetadataManager::recover_from(const std::filesystem::path& dir) {
  RecoveryInfo info;
  const std::filesystem::path manifest = dir / kManifestName;
  if (std::filesystem::exists(manifest)) {
    load(manifest);
    info.manifest_loaded = true;
  } else {
    AccessCanary::Scope guard(canary_);
    files_.clear();
  }
  const Journal::Replay replay = Journal::replay_file(dir / kJournalName);
  for (const std::string& record : replay.records)
    apply_journal_record(record);
  info.journal_records = static_cast<std::int64_t>(replay.records.size());
  info.journal_torn_tail = replay.torn_tail;
  info.journal_bytes_discarded = replay.bytes_discarded;
  return info;
}

RecoveryInfo MetadataManager::open_durable(const std::filesystem::path& dir,
                                           int checkpoint_interval) {
  PFM_CHECK(checkpoint_interval >= 1, "open_durable: checkpoint interval ",
            checkpoint_interval, " < 1");
  std::filesystem::create_directories(dir);
  const RecoveryInfo info = recover_from(dir);
  // Attach: the Journal constructor re-scans the file, resumes the CRC
  // chain after the last valid record, and cuts off the torn tail recovery
  // just skipped, so new appends continue a clean chain.
  journal_ = std::make_unique<Journal>(dir / kJournalName);
  manifest_path_ = dir / kManifestName;
  checkpoint_interval_ = checkpoint_interval;
  return info;
}

std::int64_t MetadataManager::journal_pending() const {
  return journal_ ? journal_->records() : 0;
}

void MetadataManager::checkpoint() {
  if (!durable()) return;
  // Order is the whole point: the manifest (holding every journaled
  // mutation) becomes durable via rename+dir-fsync *before* the journal is
  // truncated. A crash between the two leaves both — replay is idempotent
  // over the checkpoint, so nothing is lost or double-applied.
  if (save_atomic(manifest_path_)) journal_->truncate_all();
}

std::exception_ptr MetadataManager::journal_op(const std::string& payload) {
  if (!durable()) return nullptr;
  try {
    journal_->append(payload);
  } catch (const SimulatedCrash&) {
    // The record hit disk before the barrier threw — the mutation must
    // still be applied in memory so state matches what recovery replays.
    return std::current_exception();
  }
  return nullptr;
}

void MetadataManager::finish_op(std::exception_ptr crash) {
  if (crash) std::rethrow_exception(crash);
  if (durable() && journal_->records() >= checkpoint_interval_) checkpoint();
}

}  // namespace pfm
