#ifndef IOTDB_COMMON_CRC32C_H_
#define IOTDB_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace iotdb {
namespace crc32c {

/// Returns the CRC32C (Castagnoli polynomial) of data[0,n-1], continuing from
/// `init_crc` which must be the CRC32C of some prior byte string. Runs the
/// SSE4.2 kernel when the CPU has it and the portable one otherwise; both
/// give the same values.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The kernels behind Extend, reachable so tests can check each against a
/// reference. Everything else calls Extend / Value.
namespace internal {

using ExtendFn = uint32_t (*)(uint32_t init_crc, const char* data, size_t n);

/// Slicing-by-8 table kernel; runs on every CPU.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// The SSE4.2 crc32-instruction kernel, or nullptr when this CPU lacks the
/// instruction or the build is not for x86-64.
ExtendFn Sse42Kernel();

}  // namespace internal

/// CRC32C of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// The WAL stores CRCs "masked" so that a CRC of a string that itself contains
/// embedded CRCs does not collide trivially (same trick as LevelDB).
static constexpr uint32_t kMaskDelta = 0xa282ead8ul;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace iotdb

#endif  // IOTDB_COMMON_CRC32C_H_
