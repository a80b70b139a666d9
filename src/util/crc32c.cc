#include "util/crc32c.h"

#include <array>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace elmo::crc32c {

namespace {

// Build the 256-entry CRC32C lookup table at compile time.
struct Table {
  std::array<uint32_t, 256> t{};
  constexpr Table() {
    const uint32_t poly = 0x82f63b78u;  // reversed 0x1EDC6F41
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc & 1) ? (crc >> 1) ^ poly : crc >> 1;
      }
      t[i] = crc;
    }
  }
};

constexpr Table kTable;

}  // namespace

namespace internal {

uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable.t[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#if defined(__x86_64__)

bool HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const char* data,
                                                          size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));  // data may be unaligned
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; data++, n--) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*data));
  }
  return crc32 ^ 0xffffffffu;
}

#else

bool HardwareAvailable() { return false; }

uint32_t ExtendHardware(uint32_t, const char*, size_t) { std::abort(); }

#endif

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  // Chosen on the first call, which may come from another object's
  // static initialiser.
  static const bool hardware = internal::HardwareAvailable();
  return hardware ? internal::ExtendHardware(init_crc, data, n)
                  : internal::ExtendTable(init_crc, data, n);
}

}  // namespace elmo::crc32c
