// Deterministic pseudo-random number generation.
//
// Every stochastic component in hamlet takes an explicit 64-bit seed so that
// experiments are reproducible run-to-run. The generator is xoshiro256**,
// seeded via SplitMix64 (the recommended pairing); helpers cover the common
// sampling needs of the data generators and learners.

#ifndef HAMLET_COMMON_RNG_H_
#define HAMLET_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hamlet {

/// SplitMix64 step; used for seeding and cheap hash mixing.
uint64_t SplitMix64(uint64_t& state);

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed);

  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }

  uint64_t operator()() { return Next(); }
  uint64_t Next();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Standard normal variate (Box-Muller).
  double Normal();

  /// Derives an independent child generator; `stream` distinguishes children.
  Rng Fork(uint64_t stream);

  /// In-place Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_RNG_H_
