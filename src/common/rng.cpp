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

// Box-Muller on one pair of uniforms, u1 moved into (0, 1] to avoid log(0).
// `normal()` and `walk_normals()` both transform through here, so their
// normals agree bit for bit.
struct NormalPair {
  double first = 0.0;   ///< returned by the call that draws the pair
  double second = 0.0;  ///< cached for the next call
};
double open_unit(double u1) { return u1 <= 0.0 ? 0x1.0p-53 : u1; }
NormalPair box_muller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * constants::pi * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}
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
  const double u1 = open_unit(uniform());
  const double u2 = uniform();
  const NormalPair pair = box_muller(u1, u2);
  cached_normal_ = pair.second;
  has_cached_normal_ = true;
  return pair.first;
}

void Rng::walk_normals(std::size_t count, double radius, const std::vector<std::size_t>& listed,
                       std::vector<IndexedNormal>& out) {
  // Walk a local copy, which the compiler can keep in registers across the
  // rare transforms, and store it back at the end.
  Rng g = *this;
  std::size_t i = 0;
  if (count > 0 && g.has_cached_normal_) {
    g.has_cached_normal_ = false;
    out.push_back({0, g.cached_normal_});
    i = 1;
  }
  // r = sqrt(-2 ln u1) >= radius exactly when u1 <= exp(-radius²/2).
  const double reach_u1 = std::exp(-0.5 * radius * radius);
  auto next_listed = listed.begin();
  const auto listed_end = listed.end();
  for (; i < count; i += 2) {
    const double u1 = open_unit(g.uniform());
    const double u2 = g.uniform();
    while (next_listed != listed_end && *next_listed < i) ++next_listed;
    const bool holds_listed = next_listed != listed_end && *next_listed <= i + 1;
    const bool half_pair = i + 1 == count;
    if (u1 > reach_u1 && !holds_listed && !half_pair) continue;
    const NormalPair pair = box_muller(u1, u2);
    out.push_back({i, pair.first});
    if (half_pair) {
      g.cached_normal_ = pair.second;
      g.has_cached_normal_ = true;
    } else {
      out.push_back({i + 1, pair.second});
    }
  }
  *this = g;
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
