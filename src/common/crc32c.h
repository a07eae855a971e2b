// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// Used by the WAL frame format: the Castagnoli polynomial has better
// error-detection properties for storage payloads than CRC32 (it is what
// ext4, Btrfs, LevelDB and iSCSI use). Portable software slice-by-8:
// eight table lookups per eight bytes, no CPU-specific instructions, so
// the sanitizer builds and every target take the same path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rlscommon {

/// Extends a running CRC32C over `data`. Seed with 0 for a fresh
/// checksum; chain calls to checksum discontiguous regions.
uint32_t Crc32cExtend(uint32_t crc, const void* data, std::size_t len);

inline uint32_t Crc32c(const void* data, std::size_t len) {
  return Crc32cExtend(0, data, len);
}

inline uint32_t Crc32c(std::string_view data) {
  return Crc32cExtend(0, data.data(), data.size());
}

}  // namespace rlscommon
