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

[[noreturn]] void bad_record(const char* what) {
  throw std::invalid_argument(std::string("MetadataManager: ") + what);
}

bool has_duplicates(const std::vector<int>& nodes) {
  for (std::size_t a = 0; a < nodes.size(); ++a)
    for (std::size_t b = a + 1; b < nodes.size(); ++b)
      if (nodes[a] == nodes[b]) return true;
  return false;
}

/// The one record validator, shared by create(), update() and the
/// manifest/journal parser so the rules cannot drift between entry points:
/// a name the token-oriented formats can frame, a non-negative size and
/// epochs, one non-empty duplicate-free placement row per subfile, a write
/// quorum the widest row can meet, duplicate-free retired nodes that no row
/// references (copies move off a node *before* it retires), and a valid
/// partitioning pattern.
void validate_record(const FileRecord& rec) {
  if (rec.name.empty()) bad_record("bad file name");
  for (const char c : rec.name)
    // Whitespace never round-trips through the token-oriented manifest, and
    // in a journal record it would corrupt the framing.
    if (std::isspace(static_cast<unsigned char>(c))) bad_record("bad file name");
  if (rec.size < 0) bad_record("negative size");
  if (rec.placement_epoch < 0) bad_record("negative placement epoch");
  if (rec.ring_epoch < 0) bad_record("negative ring epoch");
  if (rec.replica_nodes.size() != rec.subfile_falls.size())
    bad_record("placement row count mismatch");
  std::size_t widest = 1;
  for (const auto& row : rec.replica_nodes) {
    if (row.empty()) bad_record("empty placement row");
    if (has_duplicates(row)) bad_record("duplicate replica node");
    widest = std::max(widest, row.size());
  }
  if (rec.write_quorum < 0 || rec.write_quorum > static_cast<int>(widest))
    bad_record("write quorum outside [0, replica count]");
  if (has_duplicates(rec.retired_nodes)) bad_record("duplicate retired node");
  for (const auto& row : rec.replica_nodes)
    for (const int node : row)
      if (std::find(rec.retired_nodes.begin(), rec.retired_nodes.end(),
                    node) != rec.retired_nodes.end())
        bad_record("placement references a retired node");
  validate_pattern_input(rec);
}

/// The rules update() adds on top of validate_record: what may change
/// between a file's stored record and its next one.
void check_transition(const FileRecord& cur, const FileRecord& next) {
  if (next.size < cur.size) bad_record("files never shrink");
  if (next.subfile_falls.size() != cur.subfile_falls.size())
    bad_record("subfile count changed");
  if (next.displacement != cur.displacement) bad_record("displacement changed");
  if (next.write_quorum != cur.write_quorum) bad_record("write quorum changed");
  if (next.placement_epoch < cur.placement_epoch ||
      (next.placement_epoch == cur.placement_epoch &&
       next.replica_nodes != cur.replica_nodes))
    bad_record("placement epoch must advance");
  if (next.ring_epoch < cur.ring_epoch) bad_record("ring epoch must advance");
  if (next.ring_epoch == cur.ring_epoch &&
      next.retired_nodes != cur.retired_nodes) {
    // Same epoch: only recording *strictly more* retirement is allowed.
    if (next.retired_nodes.size() <= cur.retired_nodes.size())
      bad_record("ring epoch must advance");
    for (const int node : cur.retired_nodes)
      if (std::find(next.retired_nodes.begin(), next.retired_nodes.end(),
                    node) == next.retired_nodes.end())
        bad_record("ring epoch must advance");
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
// whole-state checkpoint manifest and the journal's `put` records so the
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
    write_node_list(os, rec.replica_nodes[i]);
    os << " " << serialize(rec.subfile_falls[i]) << "\n";
  }
}

/// Parses and validates the lines written by write_record_body (checkpoint
/// manifests and journal `put` records share it).
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
  for (std::int64_t i = 0; i < count; ++i) {
    std::string nodes;
    std::string falls_text;
    if (!(is >> nodes)) bad_manifest("missing io node");
    std::getline(is, falls_text);
    rec.replica_nodes.push_back(parse_node_list(nodes, "io node"));
    rec.subfile_falls.push_back(parse_falls_set(falls_text));
  }
  validate_record(rec);
  return rec;
}

}  // namespace

// --- Mutations --------------------------------------------------------------

void MetadataManager::create(FileRecord record) {
  AccessCanary::Scope guard(canary_);
  validate_record(record);
  if (files_.count(record.name))
    throw std::invalid_argument("MetadataManager: file exists: " + record.name);
  put(std::move(record));
}

void MetadataManager::update(FileRecord record) {
  AccessCanary::Scope guard(canary_);
  const auto it = files_.find(record.name);
  if (it == files_.end())
    throw std::out_of_range("MetadataManager: no such file: " + record.name);
  if (record == it->second) return;
  validate_record(record);
  check_transition(it->second, record);
  put(std::move(record));
}

void MetadataManager::put(FileRecord record) {
  std::ostringstream os;
  os << "put " << record.name << "\n";
  write_record_body(os, record);
  const std::exception_ptr crash = journal_op(os.str());
  std::string name = record.name;
  files_.insert_or_assign(std::move(name), std::move(record));
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
// One format: <nodes> is the subfile's placement row, comma-separated and
// primary first (e.g. "5,7"; an unreplicated subfile's row is one node),
// and every optional line of the record body may appear.
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
  if (op != "put" && op != "remove") bad_journal("unknown op '" + op + "'");
  // Each record replaces the file's record (or drops it). A crash between a
  // checkpoint's directory fsync and the journal truncation leaves a
  // journal whose records the checkpoint already holds; replaying them
  // over it converges on the same state, because the last record for a
  // name decides that name.
  const std::string name = journal_token(is, "file name");
  if (op == "remove") {
    expect_journal_end(is);
    files_.erase(name);
    return;
  }
  FileRecord rec = parse_record_body(is, name);
  expect_journal_end(is);
  files_.insert_or_assign(name, std::move(rec));
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
