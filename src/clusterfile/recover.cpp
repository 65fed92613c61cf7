#include "clusterfile/recover.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <system_error>

#include "clusterfile/journal.h"
#include "clusterfile/storage.h"

namespace pfm {

namespace {

/// Parses "subfile_<id>.n<node>" (the node-suffixed scheme Clusterfile
/// writes). Returns false for anything else — including the legacy
/// "subfile_<id>" / "subfile_<id>.r<replica>" names, which carry no node
/// identity and go into StorageInventory::unmapped.
bool parse_copy_name(const std::string& name, int* subfile, int* node) {
  const std::string prefix = "subfile_";
  if (name.rfind(prefix, 0) != 0) return false;
  std::size_t i = prefix.size();
  std::size_t digits = 0;
  std::int64_t id = 0;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
    id = id * 10 + (name[i] - '0');
    if (id > INT32_MAX) return false;
    ++i;
    ++digits;
  }
  if (digits == 0) return false;
  if (i + 2 >= name.size() || name[i] != '.' || name[i + 1] != 'n')
    return false;
  i += 2;
  std::size_t ndigits = 0;
  std::int64_t nd = 0;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
    nd = nd * 10 + (name[i] - '0');
    if (nd > INT32_MAX) return false;
    ++i;
    ++ndigits;
  }
  if (ndigits == 0 || i != name.size()) return false;
  *subfile = static_cast<int>(id);
  *node = static_cast<int>(nd);
  return true;
}

bool is_subfile_like(const std::string& name) {
  return name.rfind("subfile_", 0) == 0;
}

bool has_suffix(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

StorageInventory scan_storage(const std::filesystem::path& dir) {
  StorageInventory inv;
  std::error_code ec;
  if (dir.empty() || !std::filesystem::is_directory(dir, ec)) return inv;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!is_subfile_like(name)) continue;
    // Sidecars and atomic-write leftovers describe other files, they are
    // not copies themselves.
    if (has_suffix(name, ".epoch") || has_suffix(name, ".tmp")) continue;
    SubfileCopy copy;
    if (!parse_copy_name(name, &copy.subfile, &copy.node)) {
      inv.unmapped.push_back(entry.path());
      continue;
    }
    copy.path = entry.path();
    copy.bytes = static_cast<std::int64_t>(entry.file_size(ec));
    if (ec) copy.bytes = 0;
    copy.epoch = load_epoch_sidecar(entry.path().string() + ".epoch");
    inv.copies.push_back(std::move(copy));
  }
  std::sort(inv.copies.begin(), inv.copies.end(),
            [](const SubfileCopy& a, const SubfileCopy& b) {
              return a.subfile != b.subfile ? a.subfile < b.subfile
                                            : a.node < b.node;
            });
  std::sort(inv.unmapped.begin(), inv.unmapped.end());
  return inv;
}

ReconcilePlan plan_reconcile(const FileRecord& rec,
                             const StorageInventory& inv,
                             const std::function<bool(int)>& node_serving) {
  ReconcilePlan plan;
  // An empty inventory means there is nothing on disk to reconcile against
  // (memory-backed cluster, or a metadata dir mounted over fresh storage):
  // the record is the only authority and every row stands as recorded.
  const bool cold_data = !inv.copies.empty();
  for (std::size_t i = 0; i < rec.subfile_falls.size(); ++i) {
    ReconcileRow row;
    row.subfile = static_cast<int>(i);
    const std::vector<int>& recorded = rec.replica_nodes[i];
    const auto is_recorded = [&](int node) {
      return std::find(recorded.begin(), recorded.end(), node) !=
             recorded.end();
    };
    // On-disk copies of this subfile on serving nodes.
    std::vector<const SubfileCopy*> candidates;
    for (const SubfileCopy& c : inv.copies)
      if (c.subfile == row.subfile && node_serving(c.node))
        candidates.push_back(&c);
    const auto copy_of = [&](int node) -> const SubfileCopy* {
      for (const SubfileCopy* c : candidates)
        if (c->node == node) return c;
      return nullptr;
    };
    if (!cold_data || candidates.empty()) {
      row.replicas = recorded;
      if (cold_data)
        for (const int node : recorded)
          if (node_serving(node)) row.missing.push_back(node);
      plan.rows.push_back(std::move(row));
      continue;
    }
    // Authority: highest epoch wins; a recorded copy wins epoch ties over
    // an orphan (no reason to churn the placement for an equal copy); then
    // most bytes; then the earlier place in the recorded row, so equal
    // copies keep the recorded primary; lowest node among orphans.
    const auto key = [&](const SubfileCopy* s) {
      const auto at = std::find(recorded.begin(), recorded.end(), s->node);
      const bool in_row = at != recorded.end();
      const auto rank = in_row ? -(at - recorded.begin()) : -s->node;
      return std::tuple<std::int64_t, bool, std::int64_t, std::int64_t>(
          s->epoch, in_row, s->bytes, rank);
    };
    const SubfileCopy* best = candidates[0];
    for (const SubfileCopy* c : candidates)
      if (key(c) > key(best)) best = c;
    row.authority = best->node;
    row.orphan_adopted = !is_recorded(best->node);
    row.replicas.push_back(best->node);
    for (const int node : recorded) {
      if (node == best->node) continue;
      if (!node_serving(node)) continue;
      if (row.replicas.size() >= recorded.size()) break;
      row.replicas.push_back(node);
    }
    if (row.replicas.empty()) row.replicas = recorded;  // defensive
    for (std::size_t k = 1; k < row.replicas.size(); ++k) {
      const SubfileCopy* c = copy_of(row.replicas[k]);
      if (c == nullptr) {
        row.missing.push_back(row.replicas[k]);
        row.lagging.push_back(row.replicas[k]);
      } else if (c->epoch < best->epoch) {
        row.lagging.push_back(row.replicas[k]);
      }
    }
    plan.rows.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < plan.rows.size(); ++i)
    if (plan.rows[i].replicas != rec.replica_nodes[i]) plan.changed = true;
  return plan;
}

namespace {

std::string row_label(const std::string& file, int subfile) {
  return "file '" + file + "' subfile " + std::to_string(subfile);
}

}  // namespace

FsckReport run_fsck(const FsckOptions& opts) {
  FsckReport rep;
  MetadataManager meta;
  RecoveryInfo info;
  try {
    info = meta.recover_from(opts.metadata_dir);
    rep.metadata_readable = true;
  } catch (const std::invalid_argument& e) {
    rep.errors.push_back(std::string("metadata unrecoverable: ") + e.what());
    return rep;
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("metadata unreadable: ") + e.what());
    return rep;
  }
  rep.manifest_loaded = info.manifest_loaded;
  rep.journal_records = info.journal_records;
  rep.journal_torn_tail = info.journal_torn_tail;
  rep.journal_bytes_discarded = info.journal_bytes_discarded;
  rep.files = static_cast<std::int64_t>(meta.count());
  if (info.journal_torn_tail)
    rep.warnings.push_back(
        "journal has a torn tail (" +
        std::to_string(info.journal_bytes_discarded) +
        " byte(s) after the last valid record); --repair truncates it");

  const StorageInventory inv = scan_storage(opts.storage_dir);
  for (const std::filesystem::path& p : inv.unmapped)
    rep.warnings.push_back("unmapped storage file (no .n<node> suffix): " +
                           p.filename().string());

  // Reconcile every record against the inventory, exactly as a mount would.
  struct Fix {
    std::string name;
    ReconcilePlan plan;
  };
  std::vector<Fix> fixes;
  for (const std::string& name : meta.list()) {
    const FileRecord& rec = meta.lookup(name);
    const auto serving = [&rec](int node) {
      return std::find(rec.retired_nodes.begin(), rec.retired_nodes.end(),
                       node) == rec.retired_nodes.end();
    };
    ReconcilePlan plan = plan_reconcile(rec, inv, serving);
    for (const ReconcileRow& row : plan.rows) {
      if (row.orphan_adopted)
        rep.warnings.push_back(
            row_label(name, row.subfile) + ": node " +
            std::to_string(row.authority) +
            " holds the highest-epoch copy but is not in the recorded "
            "placement (lost placement record); mount or --repair adopts it");
      for (const int node : row.missing)
        rep.warnings.push_back(row_label(name, row.subfile) +
                               ": recorded copy on node " +
                               std::to_string(node) +
                               " has no storage file; a mount re-syncs it");
      for (const int node : row.lagging) {
        if (std::find(row.missing.begin(), row.missing.end(), node) !=
            row.missing.end())
          continue;  // already reported as missing
        rep.warnings.push_back(
            row_label(name, row.subfile) + ": copy on node " +
            std::to_string(node) + " lags the authority epoch; a mount "
            "re-syncs it");
      }
    }
    if (plan.changed) fixes.push_back({name, std::move(plan)});
  }

  if (!opts.repair) return rep;

  // --repair: identical to what the mount does — cut the torn tail, adopt
  // reconciled placements (orphans become primaries), fold everything into
  // a fresh checkpoint. Data re-sync needs the live sync protocol and is
  // left to the next mount.
  try {
    MetadataManager fixer;
    fixer.open_durable(opts.metadata_dir);
    if (info.journal_torn_tail)
      rep.repairs.push_back("truncated the torn journal tail (" +
                            std::to_string(info.journal_bytes_discarded) +
                            " byte(s))");
    for (const Fix& fix : fixes) {
      FileRecord rec = fixer.lookup(fix.name);
      rec.replica_nodes.clear();
      for (const ReconcileRow& row : fix.plan.rows)
        rec.replica_nodes.push_back(row.replicas);
      const std::int64_t epoch = ++rec.placement_epoch;
      try {
        fixer.update(std::move(rec));
        rep.repairs.push_back("file '" + fix.name +
                              "': recorded the reconciled placement (epoch " +
                              std::to_string(epoch) + ")");
      } catch (const std::invalid_argument& e) {
        rep.errors.push_back("file '" + fix.name +
                             "': reconciled placement rejected: " + e.what());
      }
    }
    fixer.checkpoint();
    rep.repairs.push_back("checkpointed metadata (journal folded and "
                          "truncated)");
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("repair failed: ") + e.what());
  }
  return rep;
}

}  // namespace pfm
