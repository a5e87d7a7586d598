// Deterministic seeded RNG used across workload generators and the testbed
// simulator so every experiment in EXPERIMENTS.md is bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace ps {

/// Thin wrapper over std::mt19937_64 with convenience draws.
class Rng {
 public:
  /// The root seed every deterministic component defaults to.
  static constexpr std::uint64_t kDefaultSeed = 0x5eedULL;

  explicit Rng(std::uint64_t seed = kDefaultSeed) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  double normal(double mean, double stdev) {
    return std::normal_distribution<double>(mean, stdev)(engine_);
  }

  /// Log-normal jitter multiplier with unit median; sigma controls spread.
  /// Used to model run-to-run variance in network/service times.
  double jitter(double sigma) {
    return std::exp(std::normal_distribution<double>(0.0, sigma)(engine_));
  }

  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Samples k distinct indices from [0, n).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ps
