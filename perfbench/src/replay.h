// The traced run's second part: the inputs the traced phases of the closed
// loop recorded (views, accesses) are replayed through the layers' public
// functions one at a time, so each layer's cost is measured in isolation
// rather than inferred from the end-to-end latency.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core.h"

namespace perfbench {

/// A set_view call of a traced phase, with the t_i the client reported.
struct RecordedView {
  Grid2D shape;
  std::int64_t elem = 0;
  double t_i_us = 0;
};

/// A read or write of a traced phase, through view (shape, elem).
struct RecordedAccess {
  Grid2D shape;
  std::int64_t elem = 0;
  std::int64_t offset = 0;
  std::int64_t length = 0;
  bool write = false;
};

/// Per-layer costs, each a mean per call of the unit named.
struct ReplayResult {
  // Per set_view (summed over the subfiles the view touches).
  double nested_us = 0;        ///< intersect_nested
  double project_us = 0;       ///< both projections
  double serialize_us = 0;     ///< serialize(PROJ_S)
  double parse_us = 0;         ///< parse_falls_set on the server side
  double proj_meta_bytes = 0;  ///< serialized PROJ_S bytes shipped
  double t_i_unattributed_us = 0;  ///< client t_i minus the serial sum above
  // Per read or write.
  double materialize_us = 0;   ///< IndexSet::materialize_in over the targets
  double runs_per_op = 0;      ///< client-side runs over the targets
  // Per message.
  double handoff_us = 0;       ///< one Channel hand-off between two threads
  // Per storage call on one replica's storage stack.
  double writev_us = 0;
  double readv_us = 0;
  double flush_us = 0;
  double epoch_us = 0;         ///< set_epoch (the file backend's sidecar)
  double crc32c_us = 0;        ///< block CRC32C over a write's payload
                               ///< (0 when the stack has no integrity layer)
};

/// `storage_dir` holds the file-backed storage stack of a workload whose
/// replay is on the file backend (WorkloadSpec::replay_on_file); it is
/// emptied first and removed after.
ReplayResult replay(const WorkloadSpec& spec,
                    const std::vector<RecordedView>& views,
                    const std::vector<RecordedAccess>& accesses,
                    const pfm::Buffer& image,
                    const std::filesystem::path& storage_dir);

}  // namespace perfbench
