#pragma once
/// \file dynamics.hpp
/// \brief Overdamped (Langevin) particle dynamics in the chamber.
///
/// At cell scale the particle Reynolds number is ~1e-5 and inertia decays in
/// microseconds, so dynamics are overdamped: velocity = force / drag. The
/// integrator is Euler-Maruyama with an optional Brownian term whose
/// amplitude is consistent with the (wall-corrected) drag via
/// fluctuation-dissipation. Inside one harmonic trap's basin the chain is a
/// linear Gaussian recursion, so a period advance can draw its end point from
/// the chain's own N-step law instead of stepping (see `advance`).

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <optional>
#include <type_traits>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "field/analytic.hpp"
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

/// A field gradient that can also certify a harmonic basin:
/// `harmonic_basin(box)` returns the one trap whose quadratic drive *is* the
/// field's gradient at every point of `box`, or nullopt when no single trap
/// governs the whole box (no trap in range, a competing or tied trap).
template <typename F>
concept HarmonicBasinField = FieldGradient<F> && requires(const F& f, const Aabb& box) {
  { f.harmonic_basin(box) } -> std::same_as<std::optional<field::HarmonicCage>>;
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
    const double gamma = drag(p.radius, p.position.z);
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
  ///
  /// The field's type picks the path at compile time. A plain gradient
  /// callable always steps. A `HarmonicBasinField` (core::CageFieldModel)
  /// takes the exact path when everything the body can reach in the period
  /// lies inside one trap's basin, clear of the walls, with the drag frozen
  /// at the start height: the end point is drawn from the step chain's own
  /// N-step Gaussian law with three normals (x, y, z) from `rng`. Any other
  /// body steps, bit for bit as a plain callable would. `steps == 0` draws
  /// nothing. Returns true when the exact path advanced the body.
  template <FieldGradient GradFn>
  bool advance(ParticleBody& p, GradFn&& grad_erms2, Rng& rng, std::size_t steps) const {
    if constexpr (HarmonicBasinField<std::remove_cvref_t<GradFn>>) {
      if (steps > 0 && advance_exact(p, grad_erms2, rng, steps)) return true;
    }
    for (std::size_t s = 0; s < steps; ++s) step(p, grad_erms2, rng);
    return false;
  }

  /// Reach margin of the exact path, in stationary standard deviations per
  /// axis. Each step's marginal lies between the start and the equilibrium
  /// with at most the stationary spread, so the union bound over 400 steps
  /// and three axes puts the chance that the step chain leaves the widened
  /// box in one period at about 1.5e-12.
  static constexpr double kReachSigmas = 8.0;
  /// Largest relative change of the Faxén drag factor over the reach box's
  /// z range for which the exact path freezes the drag at the start height.
  /// At the levitation height (z ≈ 21 µm, R = 5 µm) the factor varies
  /// 1.8e-3 across ±8 σ_z and 2.3e-4 across ±1 σ_z; a 1e-3 tolerance
  /// rejects every caged advance.
  static constexpr double kDragTolerance = 1e-2;

  /// Suggested stable time step for a trap of the given stiffness: the
  /// relaxation time γ/k divided by a safety factor.
  double suggested_dt(double trap_stiffness, double radius, double safety = 10.0) const;

 private:
  /// The step chain's N-step law inside one trap's basin: per axis
  /// x_N = eq + a^N (x0 - eq) + sd·ξ, and the box the chain can reach.
  struct BasinLaw {
    Vec3 mean;
    Vec3 sd;
    Aabb reach;
  };

  /// Stokes drag with the Faxén wall factor at height z (when enabled).
  double drag(double radius, double z) const {
    double gamma = stokes_drag_coefficient(medium_, radius);
    if (opts_.wall_correction) {
      const double wall_gap = z - opts_.bounds.min.z;
      gamma *= faxen_wall_correction(radius, std::max(wall_gap, radius));
    }
    return gamma;
  }
  /// The law of `steps` steps of p inside `trap`, or nullopt when the exact
  /// path does not apply: a step factor a outside (0, 1), a reach box that
  /// touches the walls, or drag varying beyond `kDragTolerance`.
  std::optional<BasinLaw> basin_law(const ParticleBody& p, const field::HarmonicCage& trap,
                                    std::size_t steps) const;

  template <HarmonicBasinField Field>
  bool advance_exact(ParticleBody& p, const Field& basins, Rng& rng, std::size_t steps) const {
    // The trap governing the start point is the only candidate: the reach
    // box contains the start, so a trap certified for the box must be it.
    const std::optional<field::HarmonicCage> trap =
        basins.harmonic_basin(Aabb{p.position, p.position});
    if (!trap) return false;
    const std::optional<BasinLaw> law = basin_law(p, *trap, steps);
    if (!law || !basins.harmonic_basin(law->reach)) return false;
    p.position = law->mean;
    if (opts_.brownian)
      p.position += Vec3{law->sd.x * rng.normal(), law->sd.y * rng.normal(),
                         law->sd.z * rng.normal()};
    confine(p);
    return true;
  }

  void confine(ParticleBody& p) const;

  Medium medium_;
  DynamicsOptions opts_;
};

}  // namespace biochip::physics
