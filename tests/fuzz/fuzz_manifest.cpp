// Fuzz target: the metadata manifest parser (clusterfile/metadata.h), which
// reads the one `pfm-manifest 5` format.
//
// Contract under test: MetadataManager::load(istream) on arbitrary bytes
// either loads a manifest or throws std::invalid_argument — never
// ContractViolation or std::overflow_error from PartitioningPattern
// validation, never std::out_of_range from integer fields. Every record of
// a loaded manifest must be listed, lookup-able and yield its pattern.
//
// Historical crashers, now fixed and kept in tests/fuzz/regressions/manifest/:
//   - "disp 99999999999999999999": std::out_of_range leaked from std::stoll
//     (fixed: manifest_i64 over pfm::parse_i64).
//   - a record whose FALLS extent overflows the declared displacement:
//     ContractViolation leaked from FileRecord::pattern() (fixed: converted
//     to std::invalid_argument at the load() boundary).
//   - interleaved_subfiles_1e8: a valid 91-byte manifest whose two subfiles
//     are {(0,0,2,100000000)} and {(1,1,2,100000000)}; the pattern's tiling
//     check merged their 2*10^8 runs before it tested FALLS nodes pairwise.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "clusterfile/metadata.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data), size));
  pfm::MetadataManager meta;
  try {
    meta.load(is);
  } catch (const std::invalid_argument&) {
    return 0;
  }
  // Accepted input: every loaded record must be lookup-able and the listing
  // consistent (exercises pattern() on the accepted records again).
  for (const std::string& name : meta.list()) {
    PFM_CHECK(meta.exists(name), "fuzz_manifest: listed file missing: ", name);
    (void)meta.lookup(name).pattern();
  }
  return 0;
}
