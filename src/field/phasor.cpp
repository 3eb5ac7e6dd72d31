#include "field/phasor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace biochip::field {

namespace {
// Node-centered gradient with one-sided differences at the domain faces.
Vec3 node_gradient(const Grid3& g, std::size_t i, std::size_t j, std::size_t k) {
  const double h = g.spacing();
  auto diff = [&](std::size_t lo_i, std::size_t lo_j, std::size_t lo_k, std::size_t hi_i,
                  std::size_t hi_j, std::size_t hi_k, double span) {
    return (g.at(hi_i, hi_j, hi_k) - g.at(lo_i, lo_j, lo_k)) / span;
  };
  Vec3 grad;
  grad.x = (i == 0)            ? diff(0, j, k, 1, j, k, h)
           : (i == g.nx() - 1) ? diff(i - 1, j, k, i, j, k, h)
                               : diff(i - 1, j, k, i + 1, j, k, 2.0 * h);
  grad.y = (j == 0)            ? diff(i, 0, k, i, 1, k, h)
           : (j == g.ny() - 1) ? diff(i, j - 1, k, i, j, k, h)
                               : diff(i, j - 1, k, i, j + 1, k, 2.0 * h);
  grad.z = (k == 0)            ? diff(i, j, 0, i, j, 1, h)
           : (k == g.nz() - 1) ? diff(i, j, k - 1, i, j, k, h)
                               : diff(i, j, k - 1, i, j, k + 1, 2.0 * h);
  return grad;
}

// Solve one quadrature into `phi` (zero on entry). When every Dirichlet value
// is zero — the imaginary half of a real drive — the zero grid already is the
// solution: return it as a converged solve of no cycles instead of running a
// V-cycle to find it.
SolveStats solve_quadrature(Grid3& phi, const DirichletBc& bc, const SolverOptions& opts,
                            MultigridWorkspace& ws) {
  if (std::all_of(bc.value.begin(), bc.value.end(), [](double v) { return v == 0.0; })) {
    SolveStats zero;
    zero.converged = true;
    return zero;
  }
  return solve_laplace(phi, bc, opts, &ws);
}
}  // namespace

PhasorSolution::PhasorSolution(Grid3 phi_re, Grid3 phi_im)
    : phi_re_(std::move(phi_re)), phi_im_(std::move(phi_im)) {
  BIOCHIP_REQUIRE(phi_re_.nx() == phi_im_.nx() && phi_re_.ny() == phi_im_.ny() &&
                      phi_re_.nz() == phi_im_.nz(),
                  "quadrature grids differ in shape");
}

const Grid3& PhasorSolution::erms2() const {
  if (!erms2_ready_) {
    erms2_ = erms2_from_quadratures(phi_re_, phi_im_);
    erms2_ready_ = true;
  }
  return erms2_;
}

double PhasorSolution::erms_at(Vec3 p) const { return std::sqrt(std::max(0.0, erms2_at(p))); }

Grid3 erms2_from_quadratures(const Grid3& phi_re, const Grid3& phi_im) {
  BIOCHIP_REQUIRE(phi_re.nx() == phi_im.nx() && phi_re.ny() == phi_im.ny() &&
                      phi_re.nz() == phi_im.nz(),
                  "quadrature grids differ in shape");
  Grid3 w(phi_re.nx(), phi_re.ny(), phi_re.nz(), phi_re.spacing());
  for (std::size_t k = 0; k < w.nz(); ++k)
    for (std::size_t j = 0; j < w.ny(); ++j)
      for (std::size_t i = 0; i < w.nx(); ++i) {
        const Vec3 er = node_gradient(phi_re, i, j, k);
        const Vec3 ei = node_gradient(phi_im, i, j, k);
        w.at(i, j, k) = 0.5 * (er.norm2() + ei.norm2());
      }
  return w;
}

PhasorSolution solve_phasor(const ChamberDomain& domain,
                            const std::vector<ElectrodePatch>& electrodes,
                            std::optional<std::complex<double>> lid,
                            const SolverOptions& opts, PhasorStats* stats,
                            MultigridWorkspace* workspace) {
  const PhasorBc bc = build_boundary(domain, electrodes, lid);
  Grid3 re = domain.make_grid();
  Grid3 im = domain.make_grid();
  // Both quadratures pin the same nodes, so the hierarchy prepared for the
  // real solve is reused as-is by the imaginary one: the caller's workspace,
  // or one prepared here for this call.
  MultigridWorkspace local;
  MultigridWorkspace& ws = workspace != nullptr ? *workspace : local;
  const SolveStats sre = solve_quadrature(re, bc.re, opts, ws);
  const SolveStats sim = solve_quadrature(im, bc.im, opts, ws);
  if (stats != nullptr) *stats = {sre, sim};
  return PhasorSolution(std::move(re), std::move(im));
}

}  // namespace biochip::field
