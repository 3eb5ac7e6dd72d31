#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/units.hpp"

namespace biochip {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
constexpr std::uint64_t rotl(std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

// A uniform moved into (0, 1] to avoid log(0).
double open_unit(double u) { return u <= 0.0 ? 0x1.0p-53 : u; }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // Avoid the (astronomically unlikely) all-zero state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  BIOCHIP_REQUIRE(lo <= hi, "uniform_int bounds inverted");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  // Rejection sampling to kill modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller.
  const double r = std::sqrt(-2.0 * std::log(open_unit(uniform())));
  const double theta = 2.0 * constants::pi * uniform();
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) { return mean + sigma * normal(); }

double Rng::lognormal_mean_cv(double mean, double cv) {
  BIOCHIP_REQUIRE(mean > 0.0, "lognormal mean must be positive");
  BIOCHIP_REQUIRE(cv >= 0.0, "coefficient of variation must be non-negative");
  if (cv == 0.0) return mean;
  const double s2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * s2;
  return std::exp(normal(mu, std::sqrt(s2)));
}

double Rng::exponential(double mean) {
  BIOCHIP_REQUIRE(mean > 0.0, "exponential mean must be positive");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) { return uniform() < clamp(p, 0.0, 1.0); }

std::uint64_t Rng::poisson(double mean) {
  BIOCHIP_REQUIRE(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's product method.
    const double limit = std::exp(-mean);
    double prod = uniform();
    std::uint64_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction; adequate for model use.
  const double v = normal(mean, std::sqrt(mean));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

std::uint64_t Rng::geometric(double p) {
  BIOCHIP_REQUIRE(p > 0.0 && p <= 1.0, "geometric probability must be in (0, 1]");
  // P(G >= n) = P(U <= (1 − p)^n) = (1 − p)^n.
  const double g = std::floor(std::log(open_unit(uniform())) / std::log1p(-p));
  return g < 0x1.0p64 ? static_cast<std::uint64_t>(g) : ~std::uint64_t{0};
}

double Rng::normal_tail(double k) {
  BIOCHIP_REQUIRE(std::isfinite(k) && k > 0.0, "normal tail bound must be positive and finite");
  if (k < 1.0) {
    // Acceptance Φ(−k) > 0.158.
    for (;;) {
      const double z = normal();
      if (z >= k) return z;
    }
  }
  // Acceptance above 0.65 at k = 1, rising to 1 as k grows.
  for (;;) {
    const double x = std::sqrt(k * k - 2.0 * std::log(open_unit(uniform())));
    if (uniform() * x <= k) return x;
  }
}

Rng Rng::split() { return Rng((*this)() ^ 0xD2B74407B1CE6E93ull); }

Rng Rng::fork(std::uint64_t stream_id) const {
  // Fold the full 256-bit parent state and the counter through splitmix64 so
  // nearby stream ids (0,1,2,...) land on unrelated seeds. Distinct from
  // split()'s constant to keep the two derivation families apart.
  std::uint64_t x = stream_id ^ 0xA0761D6478BD642Full;
  std::uint64_t seed = splitmix64(x);
  seed ^= s_[0] + splitmix64(x);
  seed ^= rotl(s_[1], 17) + splitmix64(x);
  seed ^= rotl(s_[2], 31) + splitmix64(x);
  seed ^= rotl(s_[3], 47) + splitmix64(x);
  return Rng(seed);
}

}  // namespace biochip
