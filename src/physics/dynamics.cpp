#include "physics/dynamics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "physics/dep.hpp"
#include "physics/levitation.hpp"

namespace biochip::physics {

OverdampedIntegrator::OverdampedIntegrator(const Medium& medium, const DynamicsOptions& opts)
    : medium_(medium), opts_(opts) {
  validate(medium);
  BIOCHIP_REQUIRE(opts.dt > 0.0, "time step must be positive");
  BIOCHIP_REQUIRE(opts.bounds.extent().x > 0.0 && opts.bounds.extent().y > 0.0 &&
                      opts.bounds.extent().z > 0.0,
                  "dynamics bounds must be a non-empty box");
}

namespace {

// One axis of the step chain x' = x - (dt k/γ)(x - eq) + s ξ, i.e.
// x' - eq = a (x - eq) + s ξ with a = 1 - dt k/γ. After n steps x_n - eq =
// a^n (x0 - eq) + s·sqrt((1 - a^2n)/(1 - a^2))·ξ. This is the chain's own
// law, not the continuous Ornstein-Uhlenbeck one (e^{-kt/γ}, variance
// kT/k): at dt = 1 ms a is 0.81 (lymphocyte, z) to 0.65 (5 µm bead, z), and
// the chain's stationary variance is 2/(1 + a) times kT/k.
struct AxisLaw {
  double mean = 0.0;
  double sd = 0.0;
  double lo = 0.0;  ///< reach interval: hull of x0 and eq, widened
  double hi = 0.0;
};

AxisLaw axis_law(double x0, double eq, double a, double s2, double n, double reach_sigmas) {
  const double an = std::pow(a, n);
  const double stationary = s2 / (1.0 - a * a);
  const double margin = reach_sigmas * std::sqrt(stationary);
  return {eq + an * (x0 - eq), std::sqrt(stationary * (1.0 - an * an)),
          std::min(x0, eq) - margin, std::max(x0, eq) + margin};
}

}  // namespace

std::optional<OverdampedIntegrator::BasinLaw> OverdampedIntegrator::basin_law(
    const ParticleBody& p, const field::HarmonicCage& trap, std::size_t steps) const {
  const double dt = opts_.dt;
  const double gamma = drag(p.radius, p.position.z);
  const TrapStiffness k = trap_stiffness(trap, p.dep_prefactor);
  const double a_r = 1.0 - dt * k.radial / gamma;
  const double a_z = 1.0 - dt * k.vertical / gamma;
  // 0 < a < 1: the chain is stable and monotone, so each axis's mean moves
  // monotonically from x0 to eq and the reach box below holds the chain.
  if (!(a_r > 0.0 && a_r < 1.0 && a_z > 0.0 && a_z < 1.0)) return std::nullopt;

  const double eq_z =
      opts_.gravity
          ? levitation_equilibrium(trap, p.dep_prefactor, medium_, p.radius, p.density).height
          : trap.center.z;
  const double s2 =
      opts_.brownian ? 2.0 * constants::kB * medium_.temperature * dt / gamma : 0.0;
  const auto n = static_cast<double>(steps);
  const AxisLaw x = axis_law(p.position.x, trap.center.x, a_r, s2, n, kReachSigmas);
  const AxisLaw y = axis_law(p.position.y, trap.center.y, a_r, s2, n, kReachSigmas);
  const AxisLaw z = axis_law(p.position.z, eq_z, a_z, s2, n, kReachSigmas);
  const BasinLaw law{{x.mean, y.mean, z.mean}, {x.sd, y.sd, z.sd}, {{x.lo, y.lo, z.lo},
                                                                    {x.hi, y.hi, z.hi}}};

  // Strictly inside the bounds shrunk by the radius: confine never clamps.
  const Aabb& b = opts_.bounds;
  const double r = p.radius;
  const Aabb& reach = law.reach;
  if (!(reach.min.x > b.min.x + r && reach.max.x < b.max.x - r && reach.min.y > b.min.y + r &&
        reach.max.y < b.max.y - r && reach.min.z > b.min.z + r && reach.max.z < b.max.z - r))
    return std::nullopt;

  // The step chain re-evaluates the drag at every step; the law freezes it
  // at the start height. The Faxén factor falls monotonically with height,
  // so its spread over the reach box is drag(min z) - drag(max z).
  if (opts_.wall_correction &&
      drag(r, reach.min.z) - drag(r, reach.max.z) > kDragTolerance * gamma)
    return std::nullopt;
  return law;
}

std::optional<Aabb> OverdampedIntegrator::free_column(const ParticleBody& p,
                                                      std::size_t steps) const {
  // The Faxén factor is >= 1, so no substep's lateral kick is wider than
  // the Stokes one.
  const double s_max =
      opts_.brownian ? std::sqrt(2.0 * constants::kB * medium_.temperature * opts_.dt /
                                 stokes_drag_coefficient(medium_, p.radius))
                     : 0.0;
  const double reach = kReachSigmas * std::sqrt(static_cast<double>(steps)) * s_max;
  const Aabb& b = opts_.bounds;
  const double r = p.radius;
  const Vec3 x0 = p.position;
  // Strictly inside the side walls shrunk by the radius: confine never
  // clamps x or y.
  if (!(x0.x - reach > b.min.x + r && x0.x + reach < b.max.x - r &&
        x0.y - reach > b.min.y + r && x0.y + reach < b.max.y - r))
    return std::nullopt;
  return Aabb{{x0.x - reach, x0.y - reach, b.min.z}, {x0.x + reach, x0.y + reach, b.max.z}};
}

double OverdampedIntegrator::step_height(ParticleBody& p, Rng& rng, std::size_t steps) const {
  // `step` at zero drive, z only: force.z is the buoyant weight, and the
  // kick and clamp use the same expressions, so given the same z normals
  // this chain is bit-identical to the stepped z.
  const double dt = opts_.dt;
  const double weight = opts_.gravity ? buoyant_weight(medium_, p.radius, p.density) : 0.0;
  const double lo = opts_.bounds.min.z + p.radius;
  const double hi = opts_.bounds.max.z - p.radius;
  double z = p.position.z;
  double var = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    const double gamma = drag(p.radius, z);
    double dz = weight * (dt / gamma);
    if (opts_.brownian) {
      const double s2 = 2.0 * constants::kB * medium_.temperature * dt / gamma;
      dz += std::sqrt(s2) * rng.normal();
      var += s2;
    }
    z = clamp(z + dz, lo, hi);
  }
  p.position.z = z;
  return var;
}

void OverdampedIntegrator::confine(ParticleBody& p) const {
  // A rigid sphere cannot penetrate the chip surface, lid, or side walls:
  // clamp the center to the bounds shrunk by the radius (hard-contact model).
  const Aabb& b = opts_.bounds;
  const double r = p.radius;
  p.position.x = clamp(p.position.x, b.min.x + r, b.max.x - r);
  p.position.y = clamp(p.position.y, b.min.y + r, b.max.y - r);
  p.position.z = clamp(p.position.z, b.min.z + r, b.max.z - r);
}

double OverdampedIntegrator::suggested_dt(double trap_stiffness, double radius,
                                          double safety) const {
  BIOCHIP_REQUIRE(trap_stiffness > 0.0, "trap stiffness must be positive");
  BIOCHIP_REQUIRE(safety >= 1.0, "safety factor must be >= 1");
  const double gamma = stokes_drag_coefficient(medium_, radius);
  return gamma / trap_stiffness / safety;
}

}  // namespace biochip::physics
