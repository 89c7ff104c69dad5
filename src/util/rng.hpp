// Deterministic, splittable random number generation.
//
// Every stochastic component in the library (TGFF-style graph generation,
// implementation characterization, GA operators) takes an explicit Rng so
// experiments are reproducible bit-for-bit from a single seed. The engine is
// xoshiro256** (Blackman & Vigna) — tiny state, excellent statistical quality
// and trivially fork-able for independent sub-streams.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace clrearly::util {

class Rng {
 public:
  /// Seeded via SplitMix64 expansion of `seed` (an all-zero state is
  /// impossible by construction).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // next_u64(), uniform() and bernoulli() are defined inline: the Monte
  // Carlo trial loop calls them millions of times per simulation.

  /// Next raw 64-bit draw.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform index in [0, n); requires n > 0.
  std::size_t index(std::size_t n) noexcept;

  /// Bernoulli draw with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept {
    return uniform() < std::clamp(p, 0.0, 1.0);
  }

  /// Standard normal via Box-Muller.
  double normal() noexcept;

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev) noexcept;

  /// Log-normal: exp(normal(mu, sigma)) — used for execution-time spreads.
  double lognormal(double mu, double sigma) noexcept;

  /// Fisher-Yates shuffle of an index-addressable container.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = index(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Independent child stream, deterministically derived from this one.
  Rng split() noexcept;

  /// UTF state equality — used by tests to check split() independence setup.
  bool operator==(const Rng&) const noexcept = default;

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace clrearly::util
