#include "src/util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define FLASHTIER_CRC32C_SSE42 1
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

using Crc32cKernel = uint32_t (*)(uint32_t, const void*, size_t);

#ifdef FLASHTIER_CRC32C_SSE42
// The SSE4.2 CRC32 instruction computes exactly this polynomial with the same
// reflection, so it folds eight bytes per step and finishes the tail bytewise.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t seed, const void* data, size_t n) {
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
}
#endif

Crc32cKernel SelectKernel() {
#ifdef FLASHTIER_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return Crc32cSse42;
  }
#endif
  return Crc32cBytewise;
}

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
  // Chosen on first use rather than at namespace scope: a static initializer
  // could run before the runtime has filled in the CPU model.
  static const Crc32cKernel kernel = SelectKernel();
  return kernel(seed, data, n);
}

}  // namespace flashtier
