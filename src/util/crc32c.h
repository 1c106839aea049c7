#ifndef TREELATTICE_UTIL_CRC32C_H_
#define TREELATTICE_UTIL_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace treelattice {
namespace crc32c {

/// Continues a CRC-32C (Castagnoli polynomial, reflected) over `data`,
/// starting from the CRC of all bytes hashed so far. Pass 0 for the first
/// chunk. Matches the crc32c used by RocksDB/LevelDB file formats (before
/// their masking step), so values are stable across platforms.
uint32_t Extend(uint32_t crc, std::string_view data);

/// CRC-32C of `data` in one shot.
inline uint32_t Value(std::string_view data) { return Extend(0, data); }

}  // namespace crc32c
}  // namespace treelattice

#endif  // TREELATTICE_UTIL_CRC32C_H_
