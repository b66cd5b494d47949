// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.
//
// Used by the model container format (io/serialize.h, format v2) to
// detect bit-level corruption of the body: structural checks catch
// truncation and implausible lengths, the checksum catches flips inside
// otherwise well-formed payload bytes. Incremental API so streaming
// writers/readers can fold bytes in as they go: seed with kCrc32Init,
// Crc32Feed each chunk, Crc32Finalize at the end.

#ifndef HAMLET_COMMON_CRC32_H_
#define HAMLET_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace hamlet {

/// Initial state for an incremental CRC-32 computation.
inline constexpr uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `n` bytes into the running state.
uint32_t Crc32Feed(uint32_t state, const void* data, size_t n);

/// Turns a running state into the final checksum value.
inline uint32_t Crc32Finalize(uint32_t state) { return state ^ 0xFFFFFFFFu; }

}  // namespace hamlet

#endif  // HAMLET_COMMON_CRC32_H_
