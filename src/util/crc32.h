// CRC-32 (IEEE 802.3) and CRC-32C (Castagnoli). CRC-32C checks Clusterfile
// messages (meta and payload; checksumming is only enabled at all when a
// fault plan is installed, see Network::checksums_enabled) and integrity
// blocks at rest. The IEEE CRC-32 stays in two on-disk formats, the
// metadata journal and the epoch sidecar.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pfm {

/// CRC-32 (polynomial 0xEDB88320) of `n` bytes at `data`, continuing from
/// `crc` (pass 0 to start a fresh checksum; feed the previous return value
/// to chain buffers). Slice-by-4 table lookup.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

/// CRC-32C (Castagnoli, polynomial 0x82F63B78), same chaining convention.
/// Uses the SSE4.2 CRC32 instruction, three chains at a time, when the CPU
/// has it (runtime-detected; the slice-by-4 table fallback is
/// bit-identical).
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t crc = 0);

}  // namespace pfm
