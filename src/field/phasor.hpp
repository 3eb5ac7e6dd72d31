#pragma once
/// \file phasor.hpp
/// \brief AC (phasor) field solution and derived DEP drive quantities.
///
/// For electrodes driven at a common angular frequency with per-electrode
/// amplitude and phase, the potential is the real part of a complex phasor
/// field Φ(x)e^{jωt}. We solve Laplace for Re Φ and Im Φ independently
/// (the medium is treated as homogeneous at drive frequencies of interest),
/// then derive:
///   E_rms²(x) = ½ (|∇Re Φ|² + |∇Im Φ|²)
/// whose gradient drives the time-averaged DEP force
///   F = 2π ε_m R³ Re[K(ω)] ∇E_rms².

#include <complex>
#include <optional>
#include <vector>

#include "common/geometry.hpp"
#include "common/grid.hpp"
#include "field/boundary.hpp"
#include "field/solver.hpp"

namespace biochip::field {

/// Solved phasor potential with lazily derived E_rms² grid.
class PhasorSolution {
 public:
  PhasorSolution(Grid3 phi_re, Grid3 phi_im);

  const Grid3& phi_re() const { return phi_re_; }
  const Grid3& phi_im() const { return phi_im_; }

  /// E_rms² at each node [V²/m²] (central differences; cached on first use).
  const Grid3& erms2() const;

  /// Sampled E_rms² at a physical point.
  double erms2_at(Vec3 p) const { return erms2().sample(p); }

  /// ∇E_rms² at a physical point [V²/m³] — the DEP drive vector.
  Vec3 grad_erms2_at(Vec3 p) const { return erms2().gradient(p); }

  /// RMS field magnitude [V/m].
  double erms_at(Vec3 p) const;

 private:
  Grid3 phi_re_;
  Grid3 phi_im_;
  mutable Grid3 erms2_;
  mutable bool erms2_ready_ = false;
};

/// Combined convergence report for the two quadrature solves.
struct PhasorStats {
  SolveStats re;
  SolveStats im;
};

/// Solve the phasor problem for the given domain/electrodes/lid.
/// The two quadrature solves share one multigrid hierarchy: `workspace`'s
/// when given, which callers performing many solves on one domain reuse
/// throughout, else one prepared for this call. A quadrature whose Dirichlet
/// values are all zero (the imaginary half of a real drive) is not solved:
/// it is the zero grid, reported as a converged solve of no cycles.
PhasorSolution solve_phasor(const ChamberDomain& domain,
                            const std::vector<ElectrodePatch>& electrodes,
                            std::optional<std::complex<double>> lid,
                            const SolverOptions& opts = {}, PhasorStats* stats = nullptr,
                            MultigridWorkspace* workspace = nullptr);

/// Compute the E_rms² grid from a pair of quadrature potentials.
Grid3 erms2_from_quadratures(const Grid3& phi_re, const Grid3& phi_im);

}  // namespace biochip::field
