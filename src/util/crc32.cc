#include "src/util/crc32.h"

#include <array>
#include <cstring>

#ifdef __SSE4_2__
#include <nmmintrin.h>
#endif

namespace flashtier {
namespace {

// Reflected CRC32-C polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace

uint32_t Crc32cBytewise(uint32_t seed, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(uint32_t seed, const void* data, size_t n) {
#ifdef __SSE4_2__
  // The SSE4.2 CRC32 instruction computes exactly this polynomial with the
  // same reflection, so it folds eight bytes per step and finishes the tail
  // bytewise.
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t), p += sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
#else
  return Crc32cBytewise(seed, data, n);
#endif
}

}  // namespace flashtier
