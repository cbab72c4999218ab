// Deterministic random number generation. Every stochastic component in the
// simulator takes an explicit 64-bit seed; the generator is a xoshiro256**
// implemented here so results do not depend on a standard library's
// distribution implementations.
#pragma once

#include <array>
#include <cstdint>
#include <cmath>

namespace src::common {

/// splitmix64 — used to expand a single seed into generator state and to
/// derive independent child seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG with distribution sampling implemented from first
/// principles (inverse-CDF / Box–Muller) for cross-platform determinism.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derive an independent child generator (for per-entity streams).
  Rng fork() { return Rng{next_u64()}; }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. The modulo bias for
  /// n << 2^64 is negligible for simulation purposes.
  std::uint64_t uniform_index(std::uint64_t n) { return next_u64() % n; }

  /// log(u) of a uniform u in (0, 1): the draw behind exponential(), for
  /// callers that scale one stream of draws by several means.
  double log_uniform() {
    double u;
    do { u = uniform(); } while (u <= 0.0);
    return std::log(u);
  }

  /// Exponential with the given mean (inverse CDF).
  double exponential(double mean) { return -mean * log_uniform(); }

  /// Standard normal via Box–Muller (one value per call; simple and
  /// deterministic).
  double normal(double mean = 0.0, double stddev = 1.0) {
    double u1;
    do { u1 = uniform(); } while (u1 <= 0.0);
    const double u2 = uniform();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return mean + stddev * z;
  }

  /// Lognormal such that the result has the given mean and squared
  /// coefficient of variation (SCV). Useful for generating request-size
  /// distributions with controlled variability.
  double lognormal_mean_scv(double mean, double scv) {
    const double sigma2 = std::log(1.0 + scv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(normal(mu, std::sqrt(sigma2)));
  }

  bool bernoulli(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace src::common
