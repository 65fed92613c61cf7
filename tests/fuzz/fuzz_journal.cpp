// Fuzz target: the metadata journal (clusterfile/journal.h) and the
// journal-record applier (clusterfile/metadata.h).
//
// Contract under test, both halves of cold-start recovery:
//   1. Journal::replay on arbitrary bytes never throws — malformed framing
//      is data, not an error; it marks where the valid prefix ends. The
//      replay's accounting must be self-consistent: valid_bytes +
//      bytes_discarded == input size, torn_tail <=> bytes_discarded > 0.
//   2. MetadataManager::apply_journal_record on each replayed payload (and,
//      for coverage, on the raw input as a single payload) throws nothing
//      but std::invalid_argument. A record is `put <name>` plus a whole
//      record body, or `remove <name>`; a put replaces the file's record
//      only after the body passed the same validator create() and the
//      manifest loader use, so applying cannot corrupt the manager either:
//      every file surviving the applied prefix must still produce a valid
//      pattern.
//
// Kept in tests/fuzz/regressions/journal/:
//   - huge_len_prefix, torn_tail: framing a replay must stop at, not throw
//     on: a length prefix past any sane record and a cut-off last frame.
//   - i64_overflow_payload: a size field past int64 in a raw payload.
//   - interleaved_subfiles_1e8: one valid `put` record whose two subfiles
//     are {(0,0,2,100000000)} and {(1,1,2,100000000)}; applying it merged
//     their 2*10^8 runs before the tiling check tested FALLS nodes pairwise.
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "clusterfile/journal.h"
#include "clusterfile/metadata.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data), size);
  const pfm::Journal::Replay replay = pfm::Journal::replay(bytes);
  PFM_CHECK(replay.valid_bytes + replay.bytes_discarded ==
                static_cast<std::int64_t>(size),
            "fuzz_journal: replay accounting does not cover the input");
  PFM_CHECK(replay.torn_tail == (replay.bytes_discarded > 0),
            "fuzz_journal: torn_tail disagrees with bytes_discarded");

  pfm::MetadataManager meta;
  const auto apply = [&meta](const std::string& payload) {
    try {
      meta.apply_journal_record(payload);
    } catch (const std::invalid_argument&) {
      // The one permitted escape on malformed payloads.
    }
  };
  for (const std::string& record : replay.records) apply(record);
  // The raw input as one payload reaches the record parser with framing the
  // journal itself would never produce.
  apply(std::string(reinterpret_cast<const char*>(data), size));
  for (const std::string& name : meta.list()) {
    PFM_CHECK(meta.exists(name), "fuzz_journal: listed file missing: ", name);
    (void)meta.lookup(name).pattern();
  }
  return 0;
}
