// Deterministic random number generation for workload synthesis.
//
// The trace generators must be reproducible across runs and platforms, so we
// avoid <random> distributions (whose outputs are implementation-defined) and
// ship a fixed xorshift generator plus the samplers the generators need.

#ifndef FLASHTIER_UTIL_RNG_H_
#define FLASHTIER_UTIL_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace flashtier {

// xorshift128+: fast, good-quality 64-bit generator.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 seeding to spread low-entropy seeds.
    auto next = [&seed]() {
      seed += 0x9e3779b97f4a7c15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    s0_ = next();
    s1_ = next();
    if (s0_ == 0 && s1_ == 0) {
      s1_ = 1;
    }
  }

  uint64_t Next() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  // Uniform in [0, n). n must be nonzero.
  uint64_t Below(uint64_t n) { return Next() % n; }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Bernoulli with probability p.
  bool Chance(double p) { return NextDouble() < p; }

 private:
  uint64_t s0_;
  uint64_t s1_;
};

// A fault plan's decision for the operation with 1-based `ordinal`: a
// scripted trigger on `script`, else a draw of probability `prob` on `rng`.
// A zero probability draws nothing, so a plan with no probabilities leaves
// the stream untouched. The flash and disk fault models both use it.
inline bool InjectFault(const std::vector<uint64_t>& script, uint64_t ordinal, double prob,
                        Rng& rng) {
  if (std::find(script.begin(), script.end(), ordinal) != script.end()) {
    return true;
  }
  return prob > 0.0 && rng.Chance(prob);
}

// The seed of shard `shard`'s own stream, derived from a configured seed by
// a golden-ratio stride: shard 0 keeps the configured seed, and no two
// shards draw the same stream.
inline uint64_t ShardSeed(uint64_t seed, uint32_t shard) {
  return seed + 0x9e3779b97f4a7c15ull * shard;
}

// Zipf(s) sampler over {0, ..., n-1} using rejection inversion
// (W. Hörmann & G. Derflinger, "Rejection-inversion to generate variates from
// monotone discrete distributions", 1996). A draw inverts H at a uniform point
// and accepts rank k if the point lies above H(k + 1/2) - k^-s. That bound
// depends on k alone, so it is computed once per rank at construction: 8 B a
// rank (1 MB for 125 k keys), and one log/exp pair per draw instead of three.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
    h_x1_ = H(1.5) - 1.0;
    h_n_ = H(static_cast<double>(n_) + 0.5);
    dist_ = h_x1_ - h_n_;
    accept_.reserve(n_);
    for (uint64_t k = 1; k <= n_; ++k) {
      const double kd = static_cast<double>(k);
      accept_.push_back(H(kd + 0.5) - std::exp(-std::log(kd) * s_));
    }
  }

  uint64_t Sample(Rng& rng) {
    while (true) {
      const double u = h_n_ + rng.NextDouble() * dist_;
      const double x = Hinv(u);
      uint64_t k = static_cast<uint64_t>(x + 0.5);
      if (k < 1) {
        k = 1;
      } else if (k > n_) {
        k = n_;
      }
      if (u >= accept_[k - 1]) {
        return k - 1;
      }
    }
  }

 private:
  // H(x) = integral of x^-s.
  double H(double x) const {
    if (s_ == 1.0) {
      return std::log(x);
    }
    return std::exp((1.0 - s_) * std::log(x)) / (1.0 - s_);
  }

  double Hinv(double x) const {
    if (s_ == 1.0) {
      return std::exp(x);
    }
    return std::exp(std::log((1.0 - s_) * x) / (1.0 - s_));
  }

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double dist_;
  std::vector<double> accept_;  // [k - 1]: H(k + 1/2) - k^-s, rank k's bound
};

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_RNG_H_
