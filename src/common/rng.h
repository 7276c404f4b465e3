// Deterministic, splittable random number generation.
//
// Every stochastic component in SimDC (data synthesis, dropout, traffic
// jitter, phone noise) draws from an explicitly-seeded Rng so experiments
// are exactly reproducible. Rng::Split derives independent child streams
// (per device, per round) from a parent without sharing state, which keeps
// results invariant to execution order across threads.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace simdc {

/// SplitMix64 step — used both as a seed scrambler and stream splitter.
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform value in [0, span), span >= 1, from the 64-bit draws of `gen`.
/// Rejection sampling avoids modulo bias: draws at or above the largest
/// multiple of span that fits, 2^64 - 1 - (2^64 - 1) % span, are rejected.
/// A draw is there exactly when its own multiple, draw - draw % span,
/// leaves no room for one more span below 2^64 - 1; testing that reuses
/// the remainder the result needs, so each draw costs one division.
template <typename Gen>
std::uint64_t UniformBelow(Gen& gen, std::uint64_t span) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::uint64_t draw;
  std::uint64_t remainder;
  do {
    draw = gen();
    remainder = draw % span;
  } while (draw - remainder > kMax - span);
  return remainder;
}

/// Stable 64-bit FNV-1a hash of a string (used to derive stream labels).
constexpr std::uint64_t HashString(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Seeded random generator wrapping xoshiro256**.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) {
    std::uint64_t s = seed;
    for (auto& word : state_) {
      s = SplitMix64(s);
      word = s;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Raw 64 random bits (xoshiro256** step).
  result_type operator()() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child stream keyed by `label`.
  /// Splitting with the same label twice yields the same child.
  Rng Split(std::uint64_t label) const {
    std::uint64_t mix = state_[0];
    mix = SplitMix64(mix ^ SplitMix64(label));
    mix = SplitMix64(mix ^ state_[3]);
    return Rng(mix);
  }
  Rng Split(std::string_view label) const { return Split(HashString(label)); }

  /// Uniform double in [0, 1).
  double Uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached pair).
  double Normal();
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Bernoulli trial with probability p of true.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Exponential with given rate (lambda).
  double Exponential(double rate);

  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// Samples an index in [0, weights.size()) proportional to weights.
  std::size_t Categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (reservoir; order unspecified).
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n, std::size_t k);

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace simdc
