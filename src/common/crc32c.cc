#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace iotdb {
namespace crc32c {

namespace {

// Slicing-by-8 tables for CRC32C (Castagnoli, reflected polynomial
// 0x82f63b78), generated at first use. t[0] is the classic bytewise table;
// t[k][i] is the CRC of byte i followed by k zero bytes, so eight input
// bytes fold in with eight independent lookups instead of a chain of eight
// dependent ones. The WAL append checksums every group commit's bytes
// inside the write queue, where the bytewise loop is ~5x slower.
struct Tables {
  uint32_t t[8][256];
  Tables() {
    constexpr uint32_t kPoly = 0x82f63b78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Tables& GetTables() {
  static const Tables* tables = new Tables();
  return *tables;
}

inline uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes this polynomial in the same
// reflected bit order, so its values match the portable kernel bit for bit.
// The instruction is enabled for this one function by attribute rather than
// by a build flag, so the rest of the build still runs on CPUs without it.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++data) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const auto& t = GetTables().t;
  uint32_t crc = init_crc ^ 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc ^ LoadLE32(p);
    const uint32_t hi = LoadLE32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

ExtendFn Sse42Kernel() {
#if defined(__x86_64__)
  // Makes the feature query valid even when called from a static
  // initializer that runs before the runtime's own CPU probe.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return nullptr;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  // Chosen once; a function-local static is safe to initialize from other
  // static initializers and from concurrent first callers.
  static const internal::ExtendFn kernel = [] {
    internal::ExtendFn sse42 = internal::Sse42Kernel();
    return sse42 != nullptr ? sse42 : internal::ExtendPortable;
  }();
  return kernel(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace iotdb
