// Tests for the quasi-electrostatic field solver: analytic reference cases,
// multilevel acceleration, boundary construction, phasor solutions and cage
// calibration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "chip/device.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "field/analytic.hpp"
#include "field/boundary.hpp"
#include "field/phasor.hpp"
#include "field/solver.hpp"
#include "field/stencil_kernel.hpp"

namespace biochip::field {
namespace {

using namespace biochip::units;

// Fix both z-planes to constants: the exact solution is linear in z.
DirichletBc plate_bc(const Grid3& g, double v_bottom, double v_top) {
  DirichletBc bc = DirichletBc::all_free(g);
  for (std::size_t j = 0; j < g.ny(); ++j)
    for (std::size_t i = 0; i < g.nx(); ++i) {
      bc.fixed[g.index(i, j, 0)] = 1;
      bc.value[g.index(i, j, 0)] = v_bottom;
      bc.fixed[g.index(i, j, g.nz() - 1)] = 1;
      bc.value[g.index(i, j, g.nz() - 1)] = v_top;
    }
  return bc;
}

TEST(Solver, ParallelPlatesGiveLinearPotential) {
  Grid3 phi(9, 9, 17, 1e-6);
  const DirichletBc bc = plate_bc(phi, 0.0, 3.3);
  SolverOptions opts;
  opts.tolerance = 1e-9;
  const SolveStats stats = solve_laplace(phi, bc, opts);
  EXPECT_TRUE(stats.converged);
  const double gap = 16.0 * phi.spacing();
  for (std::size_t k = 0; k < phi.nz(); ++k) {
    const double z = static_cast<double>(k) * phi.spacing();
    const double expect = parallel_plate_potential(0.0, 3.3, gap, z);
    EXPECT_NEAR(phi.at(4, 4, k), expect, 1e-5) << "k=" << k;
  }
}

TEST(Solver, MultilevelMatchesPlainSor) {
  Grid3 a(17, 17, 17, 1e-6), b(17, 17, 17, 1e-6);
  DirichletBc bc = plate_bc(a, -1.0, 2.0);
  // Pin one bottom node differently to break the trivial symmetry.
  bc.value[a.index(8, 8, 0)] = 1.0;
  SolverOptions plain;
  plain.multilevel = false;
  plain.tolerance = 1e-9;
  SolverOptions multi;
  multi.multilevel = true;
  multi.tolerance = 1e-9;
  const SolveStats sa = solve_laplace(a, bc, plain);
  const SolveStats sb = solve_laplace(b, bc, multi);
  EXPECT_TRUE(sa.converged);
  EXPECT_TRUE(sb.converged);
  for (std::size_t n = 0; n < a.size(); ++n)
    EXPECT_NEAR(a.data()[n], b.data()[n], 1e-5);
  // The V-cycle should not need more fine sweeps than plain SOR.
  EXPECT_LE(sb.sweeps, sa.sweeps);
}

TEST(Solver, ResidualDropsBelowTolerance) {
  Grid3 phi(17, 17, 9, 1e-6);
  DirichletBc bc = plate_bc(phi, 0.0, 1.0);
  SolverOptions opts;
  opts.tolerance = 1e-8;
  solve_laplace(phi, bc, opts);
  EXPECT_LT(laplacian_residual(phi, bc), 1e-6);
}

TEST(Solver, MismatchedBcSizeThrows) {
  Grid3 phi(5, 5, 5, 1e-6);
  DirichletBc bc;  // wrong (empty) sizes
  EXPECT_THROW(solve_laplace(phi, bc), PreconditionError);
}

TEST(Solver, OptimalOmegaIncreasesWithGridSize) {
  EXPECT_GT(optimal_omega(64), optimal_omega(16));
  EXPECT_LT(optimal_omega(1024), 2.0);
  EXPECT_GE(optimal_omega(8), 1.0);
}

TEST(Solver, SolutionObeysMaximumPrinciple) {
  // Laplace solutions attain extrema on the boundary: interior must stay
  // within the prescribed range.
  Grid3 phi(17, 17, 9, 1e-6);
  DirichletBc bc = plate_bc(phi, -2.0, 5.0);
  SolverOptions opts;
  opts.tolerance = 1e-8;
  solve_laplace(phi, bc, opts);
  EXPECT_GE(phi.min(), -2.0 - 1e-6);
  EXPECT_LE(phi.max(), 5.0 + 1e-6);
}

TEST(Solver, FieldDecaysAboveStripeArray) {
  // ±V stripes of period 2·pitch: the dominant harmonic of the potential
  // decays like exp(-z/(λ/2π)). Sample low enough that the field is well
  // above the solver tolerance floor.
  const double pitch = 20.0_um;
  ChamberDomain domain{8.0 * pitch, 4.0 * pitch, 4.0 * pitch, pitch / 8.0};
  std::vector<ElectrodePatch> patches;
  for (int s = 0; s < 8; ++s) {
    const double x0 = s * pitch;
    patches.push_back({{{x0, 0.0}, {x0 + pitch, 4.0 * pitch}},
                       {(s % 2 == 0) ? 1.0 : -1.0, 0.0}});
  }
  SolverOptions opts;
  opts.tolerance = 1e-8;
  const PhasorSolution sol = solve_phasor(domain, patches, std::nullopt, opts);
  // Above the center of stripe 4, mid-domain in y.
  const double x = 4.5 * pitch, y = 2.0 * pitch;
  const double expected_decay = periodic_decay_length(2.0 * pitch);
  const double z1 = 10.0_um, z2 = 20.0_um;
  const double w1 = sol.erms2_at({x, y, z1});
  const double w2 = sol.erms2_at({x, y, z2});
  ASSERT_GT(w1, 0.0);
  ASSERT_GT(w2, 0.0);
  ASSERT_GT(w1, w2);
  // W = |E|² decays at twice the potential rate: ratio ≈ exp(-2Δz/λ_d).
  const double measured = std::log(w1 / w2) / (2.0 * (z2 - z1));
  EXPECT_NEAR(1.0 / measured, expected_decay, expected_decay * 0.30);
}

// ------------------------------------------------------------- multigrid ----

// The production-shaped cage workload lives in the library
// (cage_reference_bc, field/boundary.hpp) so the bench and these tests
// exercise the identical boundary condition.
DirichletBc cage_bc(const Grid3& g, double v) { return cage_reference_bc(g, v); }

// Unit box with Dirichlet values on every face from the harmonic quadratic
// u = x² + y² − 2z². The 7-point stencil differences a quadratic exactly
// (Δ_h x² = 2), so u is also the exact solution of the discrete problem:
// any gap between a converged solve and u is solver error, not
// discretization error.
struct HarmonicBox {
  Grid3 grid;
  DirichletBc bc;
  explicit HarmonicBox(std::size_t n) : grid(n, n, n, 1.0 / static_cast<double>(n - 1)) {
    bc = DirichletBc::all_free(grid);
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < n; ++i)
          if (i == 0 || j == 0 || k == 0 || i == n - 1 || j == n - 1 || k == n - 1) {
            bc.fixed[grid.index(i, j, k)] = 1;
            bc.value[grid.index(i, j, k)] = exact(i, j, k, grid.spacing());
          }
  }
  static double exact(std::size_t i, std::size_t j, std::size_t k, double h) {
    const double x = static_cast<double>(i) * h, y = static_cast<double>(j) * h,
                 z = static_cast<double>(k) * h;
    return x * x + y * y - 2.0 * z * z;
  }
};

TEST(Multigrid, ContractionFactorRoughlyGridIndependent) {
  // Per-cycle residual contraction, measured between cycles 2 and 4 so the
  // initial transient is excluded. O(N) multigrid means the factor must not
  // degrade as the grid is refined — the defining property plain SOR lacks.
  const auto contraction = [](std::size_t n) {
    const HarmonicBox prob(n);
    const auto residual_after = [&](std::size_t cycles) {
      Grid3 phi(n, n, n, prob.grid.spacing());
      SolverOptions o;
      o.cycle_tolerance = 1e-300;  // never satisfied: run exactly max_cycles
      o.max_cycles = cycles;
      o.max_sweeps = 0;  // no SOR fallback work after the cycles
      return solve_laplace(phi, prob.bc, o).final_residual;
    };
    return std::sqrt(residual_after(4) / residual_after(2));
  };
  const double rho33 = contraction(33);
  const double rho65 = contraction(65);
  EXPECT_LT(rho33, 0.25);
  EXPECT_LT(rho65, 0.25);
  EXPECT_NEAR(rho65, rho33, 0.10);
}

TEST(Multigrid, VcycleAndSorAgreeOnCageBc) {
  Grid3 a(33, 33, 33, 1e-6), b(33, 33, 33, 1e-6);
  const DirichletBc bc = cage_bc(a, 3.3);
  SolverOptions plain;
  plain.multilevel = false;
  plain.tolerance = 1e-8;
  SolverOptions vcycle;
  vcycle.tolerance = 1e-8;
  EXPECT_TRUE(solve_laplace(a, bc, plain).converged);
  EXPECT_TRUE(solve_laplace(b, bc, vcycle).converged);
  for (std::size_t n = 0; n < a.size(); ++n)
    EXPECT_NEAR(a.data()[n], b.data()[n], 1e-5) << "node " << n;
}

TEST(Multigrid, VcycleRecoversExactDiscreteSolution) {
  // The harmonic box's discrete solution is known exactly, so the V-cycle
  // must recover it to the order of its convergence target.
  const std::size_t n = 33;
  const HarmonicBox prob(n);
  const double h = prob.grid.spacing();
  Grid3 phi(n, n, n, h);
  SolverOptions o;
  o.tolerance = 1e-9;
  const SolveStats s = solve_laplace(phi, prob.bc, o);
  EXPECT_TRUE(s.converged);
  EXPECT_LE(s.cycles, 15u);
  double err = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i)
        err = std::max(err, std::fabs(phi.at(i, j, k) - HarmonicBox::exact(i, j, k, h)));
  // Measured 8.8e-10 at this tolerance; the bound leaves 10x headroom.
  EXPECT_LT(err, 10.0 * o.tolerance);
}

TEST(Multigrid, TerminalSorTailFinishesCappedCycles) {
  // When max_cycles runs out before cycle_tolerance is met, the V-cycle
  // hands its iterate to plain SOR, which must finish the solve: the stats
  // show fine sweeps beyond the cycles' V(2,2) budget, and the result
  // matches a plain-SOR solve at the same tolerance. Because the tail
  // continues from the cycle's iterate instead of restarting, the whole
  // solve takes fewer fine sweeps than plain SOR from zero. One arm on the
  // cage BC and one on the harmonic box.
  const std::size_t n = 33;
  SolverOptions capped;
  capped.max_cycles = 1;
  capped.cycle_tolerance = 1e-300;  // never satisfied by the cycles
  capped.tolerance = 1e-8;
  SolverOptions plain;
  plain.multilevel = false;
  plain.tolerance = 1e-8;
  const auto check = [&](const Grid3& a, const Grid3& b, const SolveStats& s,
                         const SolveStats& reference) {
    EXPECT_TRUE(s.converged);
    EXPECT_EQ(s.cycles, 1u);
    EXPECT_GT(s.sweeps, 4 * s.cycles);
    EXPECT_LT(s.sweeps, reference.sweeps);
    for (std::size_t m = 0; m < a.size(); ++m)
      ASSERT_NEAR(a.data()[m], b.data()[m], 1e-5) << "node " << m;
  };
  {
    Grid3 a(n, n, n, 1e-6), b(n, n, n, 1e-6);
    const DirichletBc bc = cage_bc(a, 3.3);
    const SolveStats s = solve_laplace(a, bc, capped);
    const SolveStats reference = solve_laplace(b, bc, plain);
    ASSERT_TRUE(reference.converged);
    check(a, b, s, reference);
  }
  {
    const HarmonicBox prob(n);
    Grid3 a(n, n, n, prob.grid.spacing()), b(n, n, n, prob.grid.spacing());
    const SolveStats s = solve_laplace(a, prob.bc, capped);
    const SolveStats reference = solve_laplace(b, prob.bc, plain);
    ASSERT_TRUE(reference.converged);
    check(a, b, s, reference);
  }
}

TEST(Multigrid, SimdAndScalarPathsBitIdentical) {
  // The AVX2 row kernels use the same IEEE operations in the same order as
  // the scalar loop (no FMA contraction), so the full V-cycle must reproduce
  // the scalar solve bit for bit.
  Grid3 simd(33, 33, 33, 1e-6), scalar(33, 33, 33, 1e-6);
  DirichletBc bc = cage_bc(simd, 3.3);
  bc.value[simd.index(16, 16, 0)] = 1.1;  // break symmetry
  SolverOptions o;
  o.tolerance = 1e-8;
  stencil::force_scalar(false);
  solve_laplace(simd, bc, o);
  stencil::force_scalar(true);
  solve_laplace(scalar, bc, o);
  stencil::force_scalar(false);
  EXPECT_EQ(laplacian_residual(simd, bc), laplacian_residual(scalar, bc));
  for (std::size_t n = 0; n < simd.size(); ++n)
    ASSERT_EQ(simd.data()[n], scalar.data()[n]) << "node " << n;
}

TEST(Multigrid, WorkspaceReuseBitIdentical) {
  // A shared hierarchy (grids + restricted masks prepared once) must not
  // change any result: solves through a reused workspace reproduce solves
  // through fresh ones exactly, including after the drive values change.
  const std::size_t n = 17;
  const DirichletBc bc1 = cage_bc(Grid3(n, n, n, 1e-6), 3.3);
  DirichletBc bc2 = bc1;  // same mask, different values
  for (double& v : bc2.value) v *= -0.5;
  MultigridWorkspace shared;
  Grid3 a1(n, n, n, 1e-6), a2(n, n, n, 1e-6);
  solve_laplace(a1, bc1, {}, &shared);
  solve_laplace(a2, bc2, {}, &shared);  // reuses grids and masks
  Grid3 f1(n, n, n, 1e-6), f2(n, n, n, 1e-6);
  solve_laplace(f1, bc1);
  solve_laplace(f2, bc2);
  for (std::size_t m = 0; m < a1.size(); ++m) {
    ASSERT_EQ(a1.data()[m], f1.data()[m]) << "node " << m;
    ASSERT_EQ(a2.data()[m], f2.data()[m]) << "node " << m;
  }
}

TEST(Multigrid, ThinGapContractionGridIndependentWithoutFallback) {
  // The paper's calibration-patch geometry: 1-node electrode gaps that mask
  // injection erases on the first coarse level. With Galerkin (RAP) coarse
  // operators the V-cycle must converge WITHOUT any fallback at a
  // grid-independent contraction factor ≤ 0.15 (the injected-mask operator
  // stalled near the smoothing-only rate here and bailed to the cascade).
  const auto contraction = [](std::size_t n) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = cage_thin_gap_bc(g, 3.3, 1);
    const auto residual_after = [&](std::size_t cycles) {
      Grid3 phi(n, n, n, 1e-6);
      SolverOptions o;
      o.cycle_tolerance = 1e-300;  // never satisfied: run exactly max_cycles
      o.max_cycles = cycles;
      o.max_sweeps = 0;  // no fallback budget
      return solve_laplace(phi, bc, o).final_residual;
    };
    return std::sqrt(residual_after(4) / residual_after(2));
  };
  const double rho33 = contraction(33);
  const double rho65 = contraction(65);
  EXPECT_LT(rho33, 0.15);
  EXPECT_LT(rho65, 0.15);
  EXPECT_NEAR(rho65, rho33, 0.05);
  // Full solve: converges within the cycle budget, and every fine smoothing
  // sweep is a cycle sweep (V(2,2): four per cycle) — no fallback tail ran.
  Grid3 phi(33, 33, 33, 1e-6);
  const DirichletBc bc = cage_thin_gap_bc(phi, 3.3, 1);
  SolverOptions o;
  o.tolerance = 1e-8;
  const SolveStats s = solve_laplace(phi, bc, o);
  EXPECT_TRUE(s.converged);
  EXPECT_LE(s.cycles, 10u);
  EXPECT_EQ(s.sweeps, 4 * s.cycles);
}

TEST(Multigrid, VcycleAndSorAgreeOnThinGapBc) {
  // The agreement test on the hostile thin-gap geometry.
  const std::size_t n = 33;
  Grid3 a(n, n, n, 1e-6), b(n, n, n, 1e-6);
  const DirichletBc bc = cage_thin_gap_bc(a, 3.3, 1);
  SolverOptions plain;
  plain.multilevel = false;
  plain.tolerance = 1e-8;
  SolverOptions vcycle;
  vcycle.tolerance = 1e-8;
  EXPECT_TRUE(solve_laplace(a, bc, plain).converged);
  EXPECT_TRUE(solve_laplace(b, bc, vcycle).converged);
  for (std::size_t m = 0; m < a.size(); ++m)
    EXPECT_NEAR(a.data()[m], b.data()[m], 1e-5) << "node " << m;
}

TEST(Multigrid, VarCoefficientKernelsBitIdenticalAcrossPaths) {
  // The thin-gap hierarchy smooths every coarse level with the 27-point
  // variable-coefficient kernels; SIMD vs scalar must stay bit-identical
  // there exactly as on the constant kernels.
  const std::size_t n = 33;
  Grid3 simd(n, n, n, 1e-6), scalar(n, n, n, 1e-6);
  DirichletBc bc = cage_thin_gap_bc(simd, 3.3, 1);
  bc.value[simd.index(16, 16, 0)] = 1.1;  // break symmetry
  SolverOptions o;
  o.tolerance = 1e-8;
  stencil::force_scalar(false);
  solve_laplace(simd, bc, o);
  stencil::force_scalar(true);
  solve_laplace(scalar, bc, o);
  stencil::force_scalar(false);
  for (std::size_t m = 0; m < simd.size(); ++m)
    ASSERT_EQ(simd.data()[m], scalar.data()[m]) << "node " << m;
}

TEST(Multigrid, BroadcastSmootherBitIdenticalToVarOnUniformRows) {
  // The constant-stencil broadcast fast path (smooth_plane_var_bcast) must
  // reproduce smooth_plane_var bit for bit: the flagged rows' coefficients
  // are literal copies of the level's uniform interior stencil, so only the
  // memory traffic may differ — never a bit of the result.
  const std::size_t n = 33;
  Grid3 g(n, n, n, 1e-6);
  const DirichletBc bc = cage_bc(g, 3.3);
  MultigridWorkspace ws;
  ws.prepare(g, bc);
  ASSERT_FALSE(ws.levels().empty());

  bool any_uniform_row = false;
  for (MultigridWorkspace::Level& lev : ws.levels()) {
    const stencil::Dims dims{lev.e.nx(), lev.e.ny(), lev.e.nz()};
    std::size_t flagged = 0;
    for (const std::uint8_t u : lev.row_uniform) flagged += u;
    if (flagged > 0) any_uniform_row = true;

    // Deterministic non-trivial iterate and RHS.
    Grid3 a = lev.e;
    std::vector<double> rhs(lev.e.size());
    for (std::size_t m = 0; m < a.size(); ++m) {
      a.data()[m] = lev.fixed[m] ? 0.0 : 1e-3 * static_cast<double>(m % 89) - 0.04;
      rhs[m] = 2e-4 * static_cast<double>((m * 7) % 97) - 0.01;
    }
    Grid3 b = a;
    for (const bool scalar : {false, true}) {
      stencil::force_scalar(scalar);
      for (int color = 0; color < 2; ++color)
        for (std::size_t k = 0; k < dims.nz; ++k) {
          const double ua = stencil::smooth_plane_var(
              a.data().data(), lev.fixed.data(), lev.stencil.data(),
              lev.inv_diag.data(), rhs.data(), dims, 1.15, color, k);
          const double ub = stencil::smooth_plane_var_bcast(
              b.data().data(), lev.fixed.data(), lev.stencil.data(),
              lev.row_uniform.data(), lev.uniform_stencil.data(),
              lev.uniform_inv_diag, lev.inv_diag.data(), rhs.data(), dims, 1.15,
              color, k);
          ASSERT_EQ(ua, ub) << "color " << color << " plane " << k;
        }
      for (std::size_t m = 0; m < a.size(); ++m)
        ASSERT_EQ(a.data()[m], b.data()[m]) << "node " << m << " scalar=" << scalar;
    }
    stencil::force_scalar(false);
  }
  // The cage BC's coarse interior is translation-invariant away from the
  // electrodes: the fast path must actually trigger somewhere.
  EXPECT_TRUE(any_uniform_row);
}

TEST(Multigrid, CoarsestLevelSolvedToCycleAccuracy) {
  // Grids whose coarsening stops at a large level: 31³ halves once, to 16³,
  // and 33×33×11 once, to 17×17×6. The coarsest level is relaxed only until
  // its max update falls to 1e-2 of its first sweep's, so the default solve
  // keeps the cycle counts of a near-exact coarse solve (5, 4 and 6) and
  // runs at most 40 coarsest-level sweeps per cycle. A near-exact solve ran
  // the 100-sweep cap on every cycle of both 31³ grids.
  struct Case {
    const char* name;
    std::size_t nx, ny, nz;
    bool thin_gap;
    std::size_t cycles;
  };
  for (const Case& c : {Case{"31^3 reference", 31, 31, 31, false, 5},
                        Case{"31^3 thin gap", 31, 31, 31, true, 4},
                        Case{"33x33x11 reference", 33, 33, 11, false, 6}}) {
    SCOPED_TRACE(c.name);
    Grid3 phi(c.nx, c.ny, c.nz, 1e-6);
    const DirichletBc bc = c.thin_gap ? cage_thin_gap_bc(phi, 3.3, 1) : cage_bc(phi, 3.3);
    MultigridWorkspace ws;
    ws.prepare(phi, bc);
    // One coarse level: every sweep beyond V(2,2)'s four fine sweeps per
    // cycle is a coarsest-level sweep.
    ASSERT_EQ(ws.levels().size(), 1u);
    const SolveStats s = solve_laplace(phi, bc);
    EXPECT_TRUE(s.converged);
    EXPECT_EQ(s.cycles, c.cycles);
    EXPECT_EQ(s.sweeps, 4 * s.cycles);
    EXPECT_LE(s.total_sweeps - 4 * s.cycles, 40 * s.cycles);
  }
}

TEST(Solver, AnisotropicAutoOmegaDoesNotRegress) {
  // Auto-omega derives the model-problem ω from per-axis dimensions; on an
  // elongated chamber grid the historical longest-side formula over-relaxes
  // the short axis. The per-axis choice must not need more sweeps.
  EXPECT_NEAR(optimal_omega(33, 33, 33), optimal_omega(33), 1e-12);
  EXPECT_LT(optimal_omega(65, 65, 9), optimal_omega(65));
  Grid3 a(65, 65, 9, 1e-6), b(65, 65, 9, 1e-6);
  const DirichletBc bc = plate_bc(a, 0.0, 3.3);
  SolverOptions auto_omega;
  auto_omega.multilevel = false;
  auto_omega.tolerance = 1e-8;
  SolverOptions longest;
  longest.multilevel = false;
  longest.tolerance = 1e-8;
  longest.omega = optimal_omega(65);  // the historical longest-side choice
  const SolveStats sa = solve_laplace(a, bc, auto_omega);
  const SolveStats sl = solve_laplace(b, bc, longest);
  EXPECT_TRUE(sa.converged);
  EXPECT_TRUE(sl.converged);
  EXPECT_LE(sa.sweeps, sl.sweeps);
}

TEST(Multigrid, VcycleBeatsSorOnFineEquivalentWork) {
  // The headline property: at matched achieved residual on the cage BC, the
  // V-cycle spends a small fraction of plain SOR's fine-grid-equivalent
  // sweeps (the bench records the exact ratio; here we assert a safe 2x).
  Grid3 a(33, 33, 33, 1e-6), b(33, 33, 33, 1e-6);
  const DirichletBc bc = cage_bc(a, 3.3);
  SolverOptions plain;
  plain.multilevel = false;
  const SolveStats sp = solve_laplace(a, bc, plain);
  ASSERT_TRUE(sp.converged);
  SolverOptions vcycle;
  vcycle.cycle_tolerance = laplacian_residual(a, bc);  // match plain SOR
  const SolveStats sv = solve_laplace(b, bc, vcycle);
  ASSERT_TRUE(sv.converged);
  EXPECT_LE(laplacian_residual(b, bc), laplacian_residual(a, bc));
  EXPECT_LT(sv.fine_equiv_sweeps * 2.0, sp.fine_equiv_sweeps);
}

// -------------------------------------------------------------- boundary ----

TEST(Boundary, NodesUnderElectrodeArePinned) {
  ChamberDomain domain{100.0_um, 100.0_um, 50.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{
      {{{20.0_um, 20.0_um}, {60.0_um, 60.0_um}}, {2.0, 1.0}}};
  const PhasorBc bc = build_boundary(domain, patches, std::nullopt);
  Grid3 probe = domain.make_grid();
  // Node at (40µm, 40µm, 0) lies inside the patch.
  const std::size_t inside = probe.index(4, 4, 0);
  EXPECT_EQ(bc.re.fixed[inside], 1);
  EXPECT_DOUBLE_EQ(bc.re.value[inside], 2.0);
  EXPECT_DOUBLE_EQ(bc.im.value[inside], 1.0);
  // Node at the far corner is free.
  const std::size_t outside = probe.index(9, 9, 0);
  EXPECT_EQ(bc.re.fixed[outside], 0);
}

TEST(Boundary, LidPinsTopPlane) {
  ChamberDomain domain{40.0_um, 40.0_um, 20.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{{{{0.0, 0.0}, {40.0_um, 40.0_um}}, {1.0, 0.0}}};
  const PhasorBc bc = build_boundary(domain, patches, std::complex<double>{-1.0, 0.0});
  Grid3 probe = domain.make_grid();
  for (std::size_t j = 0; j < probe.ny(); ++j)
    for (std::size_t i = 0; i < probe.nx(); ++i) {
      EXPECT_EQ(bc.re.fixed[probe.index(i, j, probe.nz() - 1)], 1);
      EXPECT_DOUBLE_EQ(bc.re.value[probe.index(i, j, probe.nz() - 1)], -1.0);
    }
}

TEST(Boundary, OverlappingElectrodesRejected) {
  ChamberDomain domain{100.0_um, 100.0_um, 50.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{
      {{{0.0, 0.0}, {50.0_um, 50.0_um}}, {1.0, 0.0}},
      {{{40.0_um, 40.0_um}, {90.0_um, 90.0_um}}, {-1.0, 0.0}}};
  EXPECT_THROW(build_boundary(domain, patches, std::nullopt), ConfigError);
}

TEST(Boundary, DomainNodeCounts) {
  ChamberDomain domain{100.0_um, 60.0_um, 40.0_um, 20.0_um};
  EXPECT_EQ(domain.nodes_x(), 6u);
  EXPECT_EQ(domain.nodes_y(), 4u);
  EXPECT_EQ(domain.nodes_z(), 3u);
}

// ---------------------------------------------------------------- phasor ----

TEST(Phasor, PureRealDriveHasZeroImaginaryPart) {
  ChamberDomain domain{80.0_um, 80.0_um, 40.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{
      {{{20.0_um, 20.0_um}, {60.0_um, 60.0_um}}, {1.0, 0.0}}};
  const PhasorSolution sol = solve_phasor(domain, patches, std::complex<double>{0.0, 0.0});
  EXPECT_NEAR(sol.phi_im().max(), 0.0, 1e-12);
  EXPECT_NEAR(sol.phi_im().min(), 0.0, 1e-12);
}

TEST(Phasor, QuadratureDriveSplitsAcrossParts) {
  ChamberDomain domain{80.0_um, 80.0_um, 40.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{
      {{{20.0_um, 20.0_um}, {60.0_um, 60.0_um}}, {0.0, 1.5}}};  // 90° drive
  const PhasorSolution sol = solve_phasor(domain, patches, std::complex<double>{0.0, 0.0});
  EXPECT_NEAR(sol.phi_re().max(), 0.0, 1e-12);
  EXPECT_GT(sol.phi_im().max(), 1.0);
}

TEST(Phasor, Erms2OfUniformFieldMatchesAnalytic) {
  // Whole bottom at +V, lid at -V: |E| = 2V/gap, E_rms² = |E|²/2.
  ChamberDomain domain{80.0_um, 80.0_um, 40.0_um, 5.0_um};
  std::vector<ElectrodePatch> patches{{{{0.0, 0.0}, {80.0_um, 80.0_um}}, {1.0, 0.0}}};
  SolverOptions opts;
  opts.tolerance = 1e-9;
  const PhasorSolution sol =
      solve_phasor(domain, patches, std::complex<double>{-1.0, 0.0}, opts);
  const double e_mag = 2.0 / 40.0_um;
  const double expect = 0.5 * e_mag * e_mag;
  EXPECT_NEAR(sol.erms2_at({40.0_um, 40.0_um, 20.0_um}), expect, expect * 0.01);
  EXPECT_NEAR(sol.erms_at({40.0_um, 40.0_um, 20.0_um}), e_mag / std::sqrt(2.0),
              e_mag * 0.01);
}

TEST(Phasor, NullWorkspaceSharesOneHierarchyBitwise) {
  // Without a workspace, solve_phasor prepares one hierarchy for both
  // quadratures. Its grids and stats must equal, bit for bit, a call with
  // an explicit workspace and two solve_laplace calls that each build their
  // own hierarchy.
  const ChamberDomain domain{80.0_um, 80.0_um, 40.0_um, 2.5_um};
  const std::vector<ElectrodePatch> patches{
      {{{10.0_um, 10.0_um}, {35.0_um, 35.0_um}}, {1.0, 0.5}},
      {{{45.0_um, 45.0_um}, {70.0_um, 70.0_um}}, {-0.7, 0.3}}};
  const std::complex<double> lid{0.2, -0.4};
  SolverOptions opts;
  opts.tolerance = 1e-7;
  PhasorStats shared_stats, explicit_stats;
  const PhasorSolution shared = solve_phasor(domain, patches, lid, opts, &shared_stats);
  MultigridWorkspace ws;
  const PhasorSolution with_ws =
      solve_phasor(domain, patches, lid, opts, &explicit_stats, &ws);
  const PhasorBc bc = build_boundary(domain, patches, lid);
  Grid3 re = domain.make_grid(), im = domain.make_grid();
  const PhasorStats separate_stats{solve_laplace(re, bc.re, opts),
                                   solve_laplace(im, bc.im, opts)};
  ASSERT_GT(separate_stats.re.cycles, 0u);
  ASSERT_GT(separate_stats.im.cycles, 0u);

  const auto same_grid = [](const Grid3& a, const Grid3& b) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)), 0);
  };
  const auto same_stats = [](const SolveStats& a, const SolveStats& b) {
    EXPECT_EQ(a.sweeps, b.sweeps);
    EXPECT_EQ(a.total_sweeps, b.total_sweeps);
    EXPECT_EQ(a.fine_equiv_sweeps, b.fine_equiv_sweeps);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.final_update, b.final_update);
    EXPECT_EQ(a.final_residual, b.final_residual);
    EXPECT_EQ(a.converged, b.converged);
  };
  same_grid(shared.phi_re(), with_ws.phi_re());
  same_grid(shared.phi_im(), with_ws.phi_im());
  same_grid(shared.phi_re(), re);
  same_grid(shared.phi_im(), im);
  same_stats(shared_stats.re, explicit_stats.re);
  same_stats(shared_stats.im, explicit_stats.im);
  same_stats(shared_stats.re, separate_stats.re);
  same_stats(shared_stats.im, separate_stats.im);
}

TEST(Phasor, AllZeroQuadratureIsNotSolved) {
  // A real drive under a real lid pins every imaginary Dirichlet value to 0:
  // that quadrature is returned as the zero grid, converged in no cycles,
  // while the real one is exactly a cold solve_laplace of its BC.
  const ChamberDomain domain{80.0_um, 80.0_um, 40.0_um, 2.5_um};
  const std::vector<ElectrodePatch> patches{
      {{{10.0_um, 10.0_um}, {35.0_um, 35.0_um}}, {1.0, 0.0}},
      {{{45.0_um, 45.0_um}, {70.0_um, 70.0_um}}, {-0.7, 0.0}}};
  const std::complex<double> lid{0.2, 0.0};
  SolverOptions opts;
  opts.tolerance = 1e-7;
  PhasorStats stats;
  const PhasorSolution sol = solve_phasor(domain, patches, lid, opts, &stats);

  EXPECT_EQ(stats.im.cycles, 0u);
  EXPECT_EQ(stats.im.sweeps, 0u);
  EXPECT_EQ(stats.im.fine_equiv_sweeps, 0.0);
  EXPECT_TRUE(stats.im.converged);
  const Grid3& im = sol.phi_im();
  for (std::size_t n = 0; n < im.size(); ++n)
    ASSERT_EQ(im.data()[n], 0.0) << "node " << n;

  const PhasorBc bc = build_boundary(domain, patches, lid);
  Grid3 re = domain.make_grid();
  const SolveStats cold = solve_laplace(re, bc.re, opts);
  ASSERT_GT(cold.cycles, 0u);
  EXPECT_EQ(stats.re.cycles, cold.cycles);
  EXPECT_EQ(stats.re.fine_equiv_sweeps, cold.fine_equiv_sweeps);
  ASSERT_EQ(sol.phi_re().size(), re.size());
  EXPECT_EQ(std::memcmp(sol.phi_re().data().data(), re.data().data(),
                        re.size() * sizeof(double)),
            0);
}

TEST(Phasor, MismatchedQuadratureGridsThrow) {
  Grid3 a(4, 4, 4, 1.0), b(5, 5, 5, 1.0);
  EXPECT_THROW(PhasorSolution(a, b), PreconditionError);
}

// -------------------------------------------------------------- analytic ----

TEST(Analytic, HarmonicCageFieldAndGradient) {
  HarmonicCage cage{{0, 0, 10e-6}, 100.0, 4.0e18, 8.0e18};
  EXPECT_DOUBLE_EQ(cage.erms2(cage.center), 100.0);
  const Vec3 p{1e-6, 0, 10e-6};
  EXPECT_NEAR(cage.erms2(p), 100.0 + 0.5 * 4.0e18 * 1e-12, 1e-3);
  const Vec3 g = cage.grad_erms2(p);
  EXPECT_NEAR(g.x, 4.0e18 * 1e-6, 1.0);
  EXPECT_DOUBLE_EQ(g.y, 0.0);
  EXPECT_DOUBLE_EQ(g.z, 0.0);
}

TEST(Analytic, MovedCageKeepsCurvatures) {
  HarmonicCage cage{{0, 0, 0}, 1.0, 2.0, 3.0};
  const HarmonicCage moved = cage.moved_to({5, 6, 7});
  EXPECT_EQ(moved.center, (Vec3{5, 6, 7}));
  EXPECT_DOUBLE_EQ(moved.c_r, 2.0);
  EXPECT_DOUBLE_EQ(moved.c_z, 3.0);
}

TEST(Analytic, CalibrationRecoversSyntheticQuadratic) {
  // Build a grid holding an exact quadratic bowl and calibrate against it.
  Grid3 re(33, 33, 33, 1e-6), im(33, 33, 33, 1e-6);
  // erms2_from_quadratures of a linear potential is constant; instead test
  // calibrate_cage through a hand-made PhasorSolution whose erms2 we control
  // is not possible without a solve, so validate on a synthetic solve:
  // a single in-phase electrode under counter-phase neighbours (as in the
  // device) must produce a closed cage — covered in test_chip. Here check
  // the error paths only.
  PhasorSolution sol(re, im);  // zero field everywhere
  const Aabb box{{5e-6, 5e-6, 5e-6}, {25e-6, 25e-6, 25e-6}};
  EXPECT_THROW(calibrate_cage(sol, box, 2e-6), NumericError);
}

TEST(Analytic, CageCalibrationAnchoredToExactCoarseSolve) {
  // calibrate_cage(5, 6) of the paper device, against the HarmonicCage that
  // commit 793b903 computed with the coarsest level relaxed to a 1e-10
  // relative update. Solving that level only to cycle accuracy moves these
  // values by at most about 2e-5 relative; the bound is 1e-4.
  const HarmonicCage cage = chip::paper_device().calibrate_cage(5, 6);
  const HarmonicCage anchor{{0x1.a36e2eb1c432dp-15, 0x1.a36e2eb1c3babp-15,
                             0x1.600e337da7036p-16},
                            0x1.8b3fe6fe7e338p+25,
                            0x1.55b5851a28e5ep+63,
                            0x1.b5c9d3d95f657p+66};
  const auto near = [](double got, double want) {
    EXPECT_LE(std::fabs(got - want), 1e-4 * std::fabs(want)) << got << " vs " << want;
  };
  near(cage.center.x, anchor.center.x);
  near(cage.center.y, anchor.center.y);
  near(cage.center.z, anchor.center.z);
  near(cage.w_min, anchor.w_min);
  near(cage.c_r, anchor.c_r);
  near(cage.c_z, anchor.c_z);
}

TEST(Analytic, CageCalibrationUnchangedBySkippingTheZeroQuadrature) {
  // calibrate_cage(5, 6) drives every electrode and the lid with real
  // phasors, so its imaginary quadrature is all zero and is no longer solved.
  // The HarmonicCage must equal, bit for bit, the one commit 46bd63b
  // computed by solving that quadrature (the same under BIOCHIP_SIMD_LEVEL 0
  // and 1).
  const HarmonicCage cage = chip::paper_device().calibrate_cage(5, 6);
  EXPECT_EQ(cage.center.x, 0x1.a36e2ebc189a9p-15);
  EXPECT_EQ(cage.center.y, 0x1.a36e360d20602p-15);
  EXPECT_EQ(cage.center.z, 0x1.600e62d997fdp-16);
  EXPECT_EQ(cage.w_min, 0x1.8b4227e79b9cbp+25);
  EXPECT_EQ(cage.c_r, 0x1.55b41e277629cp+63);
  EXPECT_EQ(cage.c_z, 0x1.b5c9899a6039cp+66);
}

TEST(Analytic, ParallelPlateHelperClamps) {
  EXPECT_DOUBLE_EQ(parallel_plate_potential(0.0, 10.0, 1e-4, 0.5e-4), 5.0);
  EXPECT_DOUBLE_EQ(parallel_plate_potential(0.0, 10.0, 1e-4, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(parallel_plate_potential(0.0, 10.0, 1e-4, 1.0), 10.0);
}

TEST(Analytic, DecayLengthFormula) {
  EXPECT_NEAR(periodic_decay_length(2.0 * constants::pi), 1.0, 1e-12);
  EXPECT_THROW(periodic_decay_length(0.0), PreconditionError);
}

}  // namespace
}  // namespace biochip::field
