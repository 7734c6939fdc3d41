#pragma once

// Deterministic random number generation.
//
// Every stochastic choice in the simulator (latency jitter, workload
// generation, Gaussian tree sizes, churn) flows from a seeded Xoshiro256**
// generator so repeated runs are bit-identical.  Benches accept --seed.

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "util/contract.hpp"

namespace rbay::util {

/// SplitMix64 — used to expand a single seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** by Blackman & Vigna — fast, high-quality, tiny state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5EED) {
    SplitMix64 sm{seed};
    for (auto& s : state_) s = sm.next();
  }

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

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) {
    RBAY_REQUIRE(bound > 0, "Rng::uniform: bound must be positive");
    // Lemire's nearly-divisionless bounded sampling, rejection version.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    RBAY_REQUIRE(lo <= hi, "Rng::uniform_int: lo must be <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform(span));
  }

  /// Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform_double() < p; }

  /// Standard normal via Box-Muller (no cached spare; simple & stateless).
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    double u1 = uniform_double();
    while (u1 <= 1e-300) u1 = uniform_double();
    const double u2 = uniform_double();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
    return mean + stddev * z;
  }

  /// Exponential with rate lambda (mean 1/lambda).
  double exponential(double lambda) {
    RBAY_REQUIRE(lambda > 0, "Rng::exponential: lambda must be positive");
    double u = uniform_double();
    while (u <= 1e-300) u = uniform_double();
    return -std::log(u) / lambda;
  }

  /// Zipf-distributed rank in [1, n] with skew s (s = 0 is uniform).
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform(i)]);
    }
  }

  /// Derives an independent child generator (for per-node streams).
  Rng fork() { return Rng{next_u64()}; }

  /// Derives the `stream_id`-th independent stream of `seed` *without*
  /// consuming state from any live generator.  The sharded engine seeds
  /// shard s's generator with stream(seed, s), so the draw sequence each
  /// shard sees is a pure function of (seed, shard) — independent of how
  /// many worker threads execute the shards or in what order.
  /// stream(seed, 0) is deliberately distinct from Rng(seed): the control
  /// shard draws Rng(seed) itself.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id) {
    SplitMix64 a{seed};
    SplitMix64 b{stream_id ^ 0xD1B54A32D192ED03ULL};
    return Rng{a.next() ^ (b.next() + 0x9E3779B97F4A7C15ULL)};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace rbay::util
