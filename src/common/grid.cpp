#include "common/grid.hpp"

#include <algorithm>
#include <cmath>

namespace biochip {

namespace {
// Clamped continuous index -> (base node, fraction) for interpolation.
struct Frac {
  std::size_t i0;
  double t;
};
Frac split_axis(double pos, double spacing, std::size_t n) {
  if (n <= 1 || spacing <= 0.0) return {0, 0.0};
  double u = pos / spacing;
  const double umax = static_cast<double>(n - 1);
  if (u <= 0.0) return {0, 0.0};
  if (u >= umax) return {n - 2, 1.0};
  const double fl = std::floor(u);
  return {static_cast<std::size_t>(fl), u - fl};
}
}  // namespace

Grid2::Grid2(std::size_t nx, std::size_t ny, double spacing, double init)
    : nx_(nx), ny_(ny), spacing_(spacing), data_(nx * ny, init) {
  BIOCHIP_REQUIRE(nx >= 1 && ny >= 1, "Grid2 needs at least one node per axis");
  BIOCHIP_REQUIRE(spacing > 0.0, "Grid2 spacing must be positive");
}

double Grid2::sample(Vec2 p) const {
  const Frac fx = split_axis(p.x, spacing_, nx_);
  const Frac fy = split_axis(p.y, spacing_, ny_);
  const std::size_t i1 = (nx_ > 1) ? fx.i0 + 1 : fx.i0;
  const std::size_t j1 = (ny_ > 1) ? fy.i0 + 1 : fy.i0;
  const double v00 = at(fx.i0, fy.i0), v10 = at(i1, fy.i0);
  const double v01 = at(fx.i0, j1), v11 = at(i1, j1);
  return lerp(lerp(v00, v10, fx.t), lerp(v01, v11, fx.t), fy.t);
}

double Grid2::min() const { return *std::min_element(data_.begin(), data_.end()); }
double Grid2::max() const { return *std::max_element(data_.begin(), data_.end()); }

Grid3::Grid3(std::size_t nx, std::size_t ny, std::size_t nz, double spacing, double init)
    : nx_(nx), ny_(ny), nz_(nz), spacing_(spacing), data_(nx * ny * nz, init) {
  BIOCHIP_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1, "Grid3 needs at least one node per axis");
  BIOCHIP_REQUIRE(spacing > 0.0, "Grid3 spacing must be positive");
}

double Grid3::sample(Vec3 p) const {
  const Frac fx = split_axis(p.x, spacing_, nx_);
  const Frac fy = split_axis(p.y, spacing_, ny_);
  const Frac fz = split_axis(p.z, spacing_, nz_);
  const std::size_t i1 = (nx_ > 1) ? fx.i0 + 1 : fx.i0;
  const std::size_t j1 = (ny_ > 1) ? fy.i0 + 1 : fy.i0;
  const std::size_t k1 = (nz_ > 1) ? fz.i0 + 1 : fz.i0;
  const double c000 = at(fx.i0, fy.i0, fz.i0), c100 = at(i1, fy.i0, fz.i0);
  const double c010 = at(fx.i0, j1, fz.i0), c110 = at(i1, j1, fz.i0);
  const double c001 = at(fx.i0, fy.i0, k1), c101 = at(i1, fy.i0, k1);
  const double c011 = at(fx.i0, j1, k1), c111 = at(i1, j1, k1);
  const double z0 = lerp(lerp(c000, c100, fx.t), lerp(c010, c110, fx.t), fy.t);
  const double z1 = lerp(lerp(c001, c101, fx.t), lerp(c011, c111, fx.t), fy.t);
  return lerp(z0, z1, fz.t);
}

Vec3 Grid3::gradient(Vec3 p) const {
  const double h = spacing_;
  // Central differences of the interpolant; sample() clamps at boundaries,
  // which degrades gracefully to one-sided differences there.
  const double dx = (sample({p.x + h, p.y, p.z}) - sample({p.x - h, p.y, p.z})) / (2.0 * h);
  const double dy = (sample({p.x, p.y + h, p.z}) - sample({p.x, p.y - h, p.z})) / (2.0 * h);
  const double dz = (sample({p.x, p.y, p.z + h}) - sample({p.x, p.y, p.z - h})) / (2.0 * h);
  return {dx, dy, dz};
}

void Grid3::fill(double v) { std::fill(data_.begin(), data_.end(), v); }
double Grid3::min() const { return *std::min_element(data_.begin(), data_.end()); }
double Grid3::max() const { return *std::max_element(data_.begin(), data_.end()); }

}  // namespace biochip
