#include "common/rng.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace simdc {

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("UniformInt: lo > hi");
  // Unsigned arithmetic: hi - lo overflows int64 for spans above 2^63.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   UniformBelow(*this, span));
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller transform; u1 in (0,1] so log is finite.
  double u1;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  have_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("Exponential: rate must be > 0");
  double u;
  do {
    u = Uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("Categorical: empty weights");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("Categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("Categorical: zero total weight");
  double target = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on last bucket
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  if (k > n) throw std::invalid_argument("SampleWithoutReplacement: k > n");
  // Reservoir sampling keeps memory at O(k) even for large n.
  std::vector<std::size_t> reservoir;
  reservoir.reserve(k);
  for (std::size_t i = 0; i < n; ++i) {
    if (reservoir.size() < k) {
      reservoir.push_back(i);
    } else {
      const auto j = static_cast<std::size_t>(
          UniformInt(0, static_cast<std::int64_t>(i)));
      if (j < k) reservoir[j] = i;
    }
  }
  return reservoir;
}

}  // namespace simdc
