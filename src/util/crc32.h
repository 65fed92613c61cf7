// CRC-32 (IEEE 802.3) and CRC-32C (Castagnoli). CRC-32C checks Clusterfile
// messages (meta and payload; checksumming is only enabled at all when a
// fault plan is installed, see Network::checksums_enabled) and integrity
// blocks at rest. The IEEE CRC-32 stays in two on-disk formats, the
// metadata journal and the epoch sidecar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace pfm {

/// CRC-32 (polynomial 0xEDB88320) of `n` bytes at `data`, continuing from
/// `crc` (pass 0 to start a fresh checksum; feed the previous return value
/// to chain buffers). Slice-by-4 table lookup.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

/// CRC-32C (Castagnoli, polynomial 0x82F63B78), same chaining convention.
/// Runs the first entry of crc32c_impls(), chosen once, at the first call.
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t crc = 0);

/// One CRC-32C implementation: its name and its function, which has
/// crc32c's signature and convention.
struct Crc32cImpl {
  const char* name;
  std::uint32_t (*fn)(const void* data, std::size_t n, std::uint32_t crc);
};

/// The CRC-32C implementations this CPU (and its OS) can run, in dispatch
/// order; every one returns bit-identical values for every input:
///   avx512_vpclmulqdq  avx512f, avx512vl, vpclmulqdq, pclmul and sse4.2:
///                      folds 256 bytes per step in four 512-bit
///                      accumulators, and the crc32 instruction finishes
///                      the folded 16 bytes and the tail; below 256 bytes
///                      it is the sse42 path;
///   sse42              the crc32 instruction, three chains at a time;
///   table              slice-by-4 lookup, on every CPU.
/// Nothing selects a path but the CPU: no option or build flag.
std::span<const Crc32cImpl> crc32c_impls();

}  // namespace pfm
