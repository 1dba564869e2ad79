// CRC32-C (Castagnoli) checksums.
//
// Used to protect simulated persistent structures: SSC log records, map
// checkpoints, and (in integrity-testing mode) cached page payloads. The
// polynomial matches iSCSI/ext4 so test vectors are widely available.
//
// `Crc32c` picks its kernel once, on first call, from the CPU: the SSE4.2
// CRC32 instruction on x86-64 hosts that have it, else a portable bytewise
// table loop. Both kernels produce identical output for every input, so
// checksums, and every virtual-time result built on them, do not depend on
// the host. The checksum is host work, not a modelled device cost.

#ifndef FLASHTIER_UTIL_CRC32_H_
#define FLASHTIER_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace flashtier {

// Extends a running CRC32-C with `n` bytes at `data`. Pass 0 as the seed for
// a fresh checksum.
uint32_t Crc32c(uint32_t seed, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) { return Crc32c(0, data, n); }

// The portable bytewise kernel, same contract as `Crc32c`. It is the fallback
// on CPUs without a CRC32-C instruction and the reference the tests compare
// the dispatched kernel against.
uint32_t Crc32cBytewise(uint32_t seed, const void* data, size_t n);

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_CRC32_H_
