#pragma once
/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation.
///
/// Every stochastic component in the framework takes an explicit `Rng&` so
/// that experiments are reproducible from a single seed. The generator is
/// xoshiro256++ (Blackman & Vigna), which is fast, has a 2^256-1 period, and
/// is fully specified here (no standard-library distribution variability).

#include <array>
#include <cstdint>

namespace biochip {

/// xoshiro256++ PRNG with splitmix64 seeding. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed deterministically; two Rng with the same seed produce identical streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached pair).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double sigma);

  /// Log-normal such that the *resulting* distribution has the given
  /// arithmetic mean and coefficient of variation (sigma/mean).
  double lognormal_mean_cv(double mean, double cv);
  /// Exponential with the given mean. Requires mean > 0.
  double exponential(double mean);
  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool bernoulli(double p);
  /// Poisson-distributed count with the given mean (Knuth for small, normal
  /// approximation for large means).
  std::uint64_t poisson(double mean);
  /// Failures before the first success in Bernoulli(p) trials, drawn as
  /// ⌊ln U / ln(1 − p)⌋ from one uniform; saturates at the largest
  /// `std::uint64_t`. Requires 0 < p <= 1.
  std::uint64_t geometric(double p);
  /// Standard normal conditioned on z >= k (the upper tail). For k >= 1,
  /// Marsaglia's tail method (Technometrics 1964): x = √(k² − 2 ln U₁),
  /// accepted if U₂·x <= k; below 1, plain normals until one reaches k.
  /// Requires k > 0 and finite.
  double normal_tail(double k);

  /// Derive an independent child stream (for per-agent/per-trial streams).
  /// Advances this generator; successive calls give distinct children.
  Rng split();

  /// Counter-based stream splitting: derive the `stream_id`-th child WITHOUT
  /// advancing this generator. The child depends only on (parent state,
  /// stream_id), so a population fanned out over worker threads gets the
  /// same per-member stream no matter how the work is partitioned or
  /// ordered — the foundation for deterministic parallel physics.
  Rng fork(std::uint64_t stream_id) const;

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace biochip
