#pragma once
/// \file dynamics.hpp
/// \brief Overdamped (Langevin) particle dynamics in the chamber.
///
/// At cell scale the particle Reynolds number is ~1e-5 and inertia decays in
/// microseconds, so dynamics are overdamped: velocity = force / drag. The
/// integrator is Euler-Maruyama with an optional Brownian term whose
/// amplitude is consistent with the (wall-corrected) drag via
/// fluctuation-dissipation.

#include <concepts>
#include <cstddef>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "physics/brownian.hpp"
#include "physics/drag.hpp"
#include "physics/medium.hpp"

namespace biochip::physics {

/// Mobile body state for simulation. Plain data.
struct ParticleBody {
  Vec3 position;               ///< [m]
  double radius = 0.0;         ///< [m]
  double density = 0.0;        ///< [kg/m³]
  double dep_prefactor = 0.0;  ///< 2π ε_m R³ Re K [F·m]
  int id = 0;                  ///< caller-assigned identity
};

/// A callable returning ∇E_rms² at a position.
template <typename F>
concept FieldGradient = requires(F f, Vec3 p) {
  { f(p) } -> std::convertible_to<Vec3>;
};

/// Integrator configuration.
struct DynamicsOptions {
  double dt = 1e-3;             ///< step [s]
  bool brownian = true;         ///< include thermal kicks
  bool gravity = true;          ///< include buoyant weight
  bool wall_correction = true;  ///< Faxén drag enhancement near chip surface
  Aabb bounds;                  ///< chamber interior (particle centers clamped
                                ///< to bounds shrunk by the particle radius)
};

/// Overdamped integrator. Stateless apart from configuration; all randomness
/// flows through the caller's Rng.
class OverdampedIntegrator {
 public:
  OverdampedIntegrator(const Medium& medium, const DynamicsOptions& opts);

  const DynamicsOptions& options() const { return opts_; }
  const Medium& medium() const { return medium_; }

  /// Advance one particle by one step under the given field gradient.
  template <FieldGradient GradFn>
  void step(ParticleBody& p, GradFn&& grad_erms2, Rng& rng) const {
    double gamma = stokes_drag_coefficient(medium_, p.radius);
    if (opts_.wall_correction) {
      const double wall_gap = p.position.z - opts_.bounds.min.z;
      gamma *= faxen_wall_correction(p.radius, std::max(wall_gap, p.radius));
    }
    Vec3 force = static_cast<Vec3>(grad_erms2(p.position)) * p.dep_prefactor;
    if (opts_.gravity) force.z += buoyant_weight(medium_, p.radius, p.density);
    Vec3 dx = force * (opts_.dt / gamma);
    if (opts_.brownian) {
      const double s =
          std::sqrt(2.0 * constants::kB * medium_.temperature * opts_.dt / gamma);
      dx += Vec3{s * rng.normal(), s * rng.normal(), s * rng.normal()};
    }
    p.position += dx;
    confine(p);
  }

  /// Advance one particle by `steps` steps on one stream, with the field
  /// held fixed — the period advance every driver calls (one site period of
  /// a chamber tick, a settle). Populations are the caller's loop: the
  /// caller owns the fan-out and keys one stream per body, so trajectories
  /// do not depend on how a pool chunks the bodies.
  template <FieldGradient GradFn>
  void advance(ParticleBody& p, GradFn&& grad_erms2, Rng& rng, std::size_t steps) const {
    for (std::size_t s = 0; s < steps; ++s) step(p, grad_erms2, rng);
  }

  /// Suggested stable time step for a trap of the given stiffness: the
  /// relaxation time γ/k divided by a safety factor.
  double suggested_dt(double trap_stiffness, double radius, double safety = 10.0) const;

 private:
  void confine(ParticleBody& p) const;

  Medium medium_;
  DynamicsOptions opts_;
};

}  // namespace biochip::physics
