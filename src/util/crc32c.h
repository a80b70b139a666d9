// CRC32C (Castagnoli) with the leveldb-style Mask/Unmask helpers used
// when the checksum itself is stored inside checksummed data.
//
// Extend has two kernels that give bit-identical results: an SSE4.2
// kernel (the `crc32` instruction over 8-byte words, then single bytes
// for the tail) and a byte-at-a-time 256-entry table. The first call
// asks the CPU whether it supports SSE4.2 and every later call uses the
// kernel chosen then. Only the SSE4.2 kernel is compiled for SSE4.2, so
// the binary runs on any x86-64 CPU and on non-x86 hosts, where the
// table kernel is always used.
#pragma once

#include <cstddef>
#include <cstdint>

namespace elmo::crc32c {

// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

// Rotate right 15 bits and add a constant so that a crc of a string
// containing embedded crcs does not degenerate.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

// The two kernels behind Extend, for tests that check one against the
// other.
namespace internal {

uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n);

// True when this CPU can run ExtendHardware.
bool HardwareAvailable();

// Requires HardwareAvailable().
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);

}  // namespace internal

}  // namespace elmo::crc32c
