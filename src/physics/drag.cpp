#include "physics/drag.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biochip::physics {

double stokes_drag_coefficient(const Medium& medium, double radius) {
  BIOCHIP_REQUIRE(radius > 0.0, "particle radius must be positive");
  return 6.0 * constants::pi * medium.viscosity * radius;
}

double faxen_wall_correction(double radius, double wall_distance) {
  BIOCHIP_REQUIRE(radius > 0.0, "particle radius must be positive");
  const double h = std::max(wall_distance, radius);
  const double r = radius / h;  // in (0, 1]
  // Faxén series for translation parallel to a plane wall.
  const double denom =
      1.0 - (9.0 / 16.0) * r + (1.0 / 8.0) * r * r * r - (45.0 / 256.0) * r * r * r * r -
      (1.0 / 16.0) * r * r * r * r * r;
  // The series stays positive for r <= 1 (denom(1) = 0.324); guard regardless.
  return denom > 0.05 ? 1.0 / denom : 20.0;
}

double buoyant_weight(const Medium& medium, double radius, double particle_density) {
  BIOCHIP_REQUIRE(radius > 0.0, "particle radius must be positive");
  const double volume = (4.0 / 3.0) * constants::pi * radius * radius * radius;
  return -(particle_density - medium.density) * volume * constants::g0;
}

double sedimentation_velocity(const Medium& medium, double radius, double particle_density) {
  return buoyant_weight(medium, radius, particle_density) /
         stokes_drag_coefficient(medium, radius);
}

double particle_reynolds(const Medium& medium, double radius, double speed) {
  BIOCHIP_REQUIRE(radius > 0.0, "particle radius must be positive");
  return medium.density * std::fabs(speed) * 2.0 * radius / medium.viscosity;
}

}  // namespace biochip::physics
