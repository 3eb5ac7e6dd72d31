#pragma once
/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation.
///
/// Every stochastic component in the framework takes an explicit `Rng&` so
/// that experiments are reproducible from a single seed. The generator is
/// xoshiro256++ (Blackman & Vigna), which is fast, has a 2^256-1 period, and
/// is fully specified here (no standard-library distribution variability).

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

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

  /// One normal of a `walk_normals` pass: its position in the sequence of
  /// `normal()` calls the walk stands in for, and its value.
  struct IndexedNormal {
    std::size_t index = 0;
    double value = 0.0;
  };
  /// Walk the normals that `count` successive `normal()` calls would return
  /// without computing most of them. Every uniform is drawn, but a
  /// Box-Muller pair is transformed only when its radius can reach
  /// `radius`, when it holds an index in `listed` (ascending), or when its
  /// second normal is left cached. Appends, in ascending index, the normals
  /// of the transformed pairs and a normal cached on entry (index 0), each
  /// bit-identical to what `normal()` returns there. So every normal with
  /// |value| >= `radius` and every listed index is reported. Leaves the
  /// generator exactly as `count` calls to `normal()` would: the same state
  /// and the same cached half-pair.
  void walk_normals(std::size_t count, double radius, const std::vector<std::size_t>& listed,
                    std::vector<IndexedNormal>& out);
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
