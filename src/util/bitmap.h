// A compact dynamic bitmap: the dirty-page map `SscDevice::Exists` fills
// for a range of blocks (Section 4.2.1).

#ifndef FLASHTIER_UTIL_BITMAP_H_
#define FLASHTIER_UTIL_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace flashtier {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t bits) : bits_(bits), words_((bits + 63) / 64, 0) {}

  size_t size() const { return bits_; }

  void Resize(size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }

  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1u; }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  void Reset() {
    for (auto& w : words_) {
      w = 0;
    }
  }

  // Number of set bits in [0, size).
  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) {
      n += static_cast<size_t>(std::popcount(w));
    }
    return n;
  }

  // Approximate heap footprint, used by the memory-accounting experiments.
  size_t MemoryUsage() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_BITMAP_H_
