// Experiment S-1 — field-solver engineering: plain SOR vs multigrid V-cycle
// scaling (with fine-grid-equivalent work accounting), solver accuracy
// against the analytic parallel-plate solution, cage calibration vs grid
// resolution, and the cold cage calibration every set-up runs.

#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "chip/device.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "field/analytic.hpp"
#include "field/boundary.hpp"
#include "field/incremental.hpp"
#include "field/phasor.hpp"
#include "field/solver.hpp"
#include "field/stencil_kernel.hpp"

using namespace biochip;
using namespace biochip::units;
using namespace biochip::field;

namespace {

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

// The cage-electrode workload shared with tests/test_field.cpp: see
// cage_reference_bc in field/boundary.hpp. Unlike the parallel-plate
// problem — whose solution is linear in z, so nested iteration interpolates
// it exactly and converges in one fine sweep — this is a genuinely 3D
// workload on which the multigrid cycle earns its keep; bm_multilevel runs
// on it for exactly that reason.
DirichletBc cage_bc(const Grid3& g, double v) { return cage_reference_bc(g, v); }

void print_solver_scaling() {
  print_banner(std::cout, "S-1: SOR vs V-cycle (cage-electrode BC, matched residual)");
  Table t({"grid", "SOR fe-sweeps", "vcycle fe-sweeps", "vcycle cycles", "residual [V]",
           "SOR/vcycle"});
  for (std::size_t n : {17u, 33u, 65u}) {
    Grid3 a(n, n, n, 1e-6), b(n, n, n, 1e-6);
    const DirichletBc bc = cage_bc(a, 3.3);
    SolverOptions plain;
    plain.multilevel = false;
    const SolveStats sa = solve_laplace(a, bc, plain);
    // The cycle targets the residual plain SOR actually achieved, so the
    // work columns compare equal-quality solves.
    SolverOptions vcycle;
    vcycle.cycle_tolerance = laplacian_residual(a, bc);
    const SolveStats sb = solve_laplace(b, bc, vcycle);
    t.row()
        .cell(std::to_string(n) + "^3")
        .cell(sa.fine_equiv_sweeps, 1)
        .cell(sb.fine_equiv_sweeps, 1)
        .cell(std::to_string(sb.cycles))
        .cell(laplacian_residual(b, bc), 9)
        .cell(sa.fine_equiv_sweeps / sb.fine_equiv_sweeps, 2);
  }
  t.print(std::cout);
  std::cout << "\nShape check: plain SOR's fine-equivalent work grows with grid size;\n"
               "the V-cycle corrects fine-grid error on coarse grids, so its work\n"
               "per solve stays nearly flat.\n";

  print_banner(std::cout,
               "S-1: thin-gap (1-node) calibration patch — RAP coarse operators");
  Table tg({"grid", "vcycle rho/cycle", "SOR fe-sweeps", "vcycle fe-sweeps",
            "fallback sweeps"});
  for (std::size_t n : {33u, 65u}) {
    Grid3 a(n, n, n, 1e-6), b(n, n, n, 1e-6);
    const DirichletBc bc = cage_thin_gap_bc(a, 3.3, 1);
    const auto residual_after = [&](std::size_t cycles) {
      Grid3 phi(n, n, n, 1e-6);
      SolverOptions o;
      o.cycle_tolerance = 1e-300;
      o.max_cycles = cycles;
      o.max_sweeps = 0;
      return solve_laplace(phi, bc, o).final_residual;
    };
    const double rho = std::sqrt(residual_after(4) / residual_after(2));
    SolverOptions plain;
    plain.multilevel = false;
    const SolveStats sa = solve_laplace(a, bc, plain);
    SolverOptions vcycle;
    vcycle.cycle_tolerance = laplacian_residual(a, bc);
    const SolveStats sb = solve_laplace(b, bc, vcycle);
    // Any fine sweep beyond the V(2,2) budget of four per cycle would be
    // fallback tail work; with RAP coarse operators this column must read 0.
    const std::size_t fallback = sb.sweeps - 4 * sb.cycles;
    tg.row()
        .cell(std::to_string(n) + "^3")
        .cell(rho, 4)
        .cell(sa.fine_equiv_sweeps, 1)
        .cell(sb.fine_equiv_sweeps, 1)
        .cell(std::to_string(fallback));
  }
  tg.print(std::cout);
  std::cout << "\nShape check: before the Galerkin (RAP) coarse operators this BC\n"
               "stalled the cycle (injected coarse masks erase a 1-node gap) and\n"
               "fell back to a slower solve; now the contraction is grid-independent\n"
               "and the fallback column is zero.\n";

  print_banner(std::cout, "S-1: plate-problem accuracy (both strategies, tol 1e-6)");
  Table t2({"grid", "vcycle err vs analytic [V]", "SOR err vs analytic [V]"});
  for (std::size_t n : {17u, 33u, 65u}) {
    Grid3 b(n, n, n, 1e-6), c(n, n, n, 1e-6);
    const DirichletBc bc = plate_bc(b, 0.0, 3.3);
    SolverOptions plain;
    plain.multilevel = false;
    solve_laplace(b, bc, plain);
    solve_laplace(c, bc);
    const double gap = static_cast<double>(n - 1) * 1e-6;
    double errb = 0.0, errc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double expect =
          parallel_plate_potential(0.0, 3.3, gap, static_cast<double>(k) * 1e-6);
      errb = std::max(errb, std::fabs(b.at(n / 2, n / 2, k) - expect));
      errc = std::max(errc, std::fabs(c.at(n / 2, n / 2, k) - expect));
    }
    t2.row().cell(std::to_string(n) + "^3").cell(errc, 6).cell(errb, 6);
  }
  t2.print(std::cout);
}

void print_cage_convergence() {
  print_banner(std::cout, "S-1: cage calibration vs grid resolution (paper device)");
  const chip::BiochipDevice dev = chip::paper_device();
  Table t({"nodes/pitch", "cage z [um]", "c_r [V^2/m^4]", "c_z [V^2/m^4]"});
  MultigridWorkspace workspace;  // re-derived only when npp changes the shape
  for (int npp : {4, 6, 8, 10}) {
    const HarmonicCage cage = dev.calibrate_cage(5, npp, &workspace);
    t.row()
        .cell(npp)
        .cell(cage.center.z * 1e6, 2)
        .cell(cage.c_r, 3)
        .cell(cage.c_z, 3);
  }
  t.print(std::cout);
  std::cout << "\nShape check: calibrated curvatures settle to within ~10% by 6-8\n"
               "nodes/pitch — the default used throughout the framework.\n";
}

void bm_sor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = plate_bc(g, 0.0, 3.3);
    SolverOptions opts;
    opts.multilevel = false;
    SolveStats s = solve_laplace(g, bc, opts);
    benchmark::DoNotOptimize(s.sweeps);
  }
}

// Production multilevel path: the V-cycle on the cage-electrode BC. (The
// historical bm_multilevel measured the cascade on the plate problem, which
// nested iteration solves exactly by interpolation — a degenerate case; see
// docs/perf.md for the trajectory discontinuity note.)
void bm_multilevel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  double fe = 0.0;
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = cage_bc(g, 3.3);
    SolveStats s = solve_laplace(g, bc);
    fe = s.fine_equiv_sweeps;
    benchmark::DoNotOptimize(s.sweeps);
  }
  state.counters["fe_sweeps"] = fe;
}


// The production repeated-solve pattern (phasor quadrature pairs,
// calibration sweeps): the Galerkin hierarchy is prepared once in a shared
// MultigridWorkspace and reused, so the RAP build cost amortizes away.
// bm_multilevel measures the cold path (fresh workspace per solve).
void bm_vcycle_warm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  MultigridWorkspace workspace;
  double fe = 0.0;
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = cage_bc(g, 3.3);
    SolveStats s = solve_laplace(g, bc, {}, &workspace);
    fe = s.fine_equiv_sweeps;
    benchmark::DoNotOptimize(s.sweeps);
  }
  state.counters["fe_sweeps"] = fe;
  // Accuracy column: the warm-workspace solve against a cold oracle solve of
  // the same problem (fresh hierarchy each time). The shared-workspace path
  // is bit-identical to the cold path, so this must read 0.
  Grid3 warm(n, n, n, 1e-6), cold(n, n, n, 1e-6);
  const DirichletBc bc = cage_bc(warm, 3.3);
  solve_laplace(warm, bc, {}, &workspace);
  solve_laplace(cold, bc);
  double worst = 0.0;
  for (std::size_t m = 0; m < warm.size(); ++m)
    worst = std::max(worst, std::fabs(warm.data()[m] - cold.data()[m]));
  state.counters["oracle_max_err"] = worst;
}

// Incremental dirty-region repair vs full-solve-per-tick on a 65^3-scale
// tile: 16x16 electrodes at 4 nodes/pitch under a 16-pitch-tall chamber
// (65x65x65 nodes). Each benchmark iteration is one closed-loop tick — a
// trapped cage hops to a lateral neighbour, its electrode drive follows, and
// the tracked potential is repaired. range(0) is the re-anchor period:
//   1  = full solve every tick (the baseline the speedup is measured against)
//   16 = production cadence (windowed corrections, periodic full re-anchor)
//   0  = pure windowed corrections, never re-anchored
// Counters carry the accuracy column for run_benches.sh, read from a replay
// after the timed loop (a fresh tracker walking the same loop for
// kReplayTicks ticks), so they do not depend on how many iterations the
// timed loop ran: max-|dphi| of the replay's final tracked state against a
// freshly solved full-grid oracle, plus the replay's mean window volume
// fraction (the per-tick work ratio).
void bm_incremental(benchmark::State& state) {
  const auto period = static_cast<std::size_t>(state.range(0));
  const double pitch = 20.0_um;
  const std::size_t cols = 16, rows = 16;
  ChamberDomain domain{cols * pitch, rows * pitch, 16 * pitch, pitch / 4.0};
  std::vector<Rect> footprints;
  footprints.reserve(cols * rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      const double x0 = static_cast<double>(c) * pitch + 0.1 * pitch;
      const double y0 = static_cast<double>(r) * pitch + 0.1 * pitch;
      footprints.push_back({{x0, y0}, {x0 + 0.8 * pitch, y0 + 0.8 * pitch}});
    }
  SolverOptions opts;
  opts.incremental.reanchor_period = period;

  // A tracker primed with one trapped cage at the tile centre; each tick
  // walks the cage one hop around a closed 4-hop loop (E, N, W, S), so every
  // tick changes two drives.
  struct Walk {
    IncrementalPotential tracker;
    std::vector<double> drive;
    std::size_t cage;
    int dir = 0;
  };
  const auto start = [&] {
    Walk w{IncrementalPotential(domain, footprints, /*lid_present=*/false, pitch, opts),
           std::vector<double>(cols * rows, 0.0), (rows / 2) * cols + cols / 2};
    w.drive[w.cage] = 1.0;
    w.tracker.update(w.drive);
    return w;
  };
  const std::ptrdiff_t hop[4] = {+1, static_cast<std::ptrdiff_t>(cols), -1,
                                 -static_cast<std::ptrdiff_t>(cols)};
  const auto tick = [&](Walk& w) {
    w.drive[w.cage] = 0.0;
    w.cage = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(w.cage) + hop[w.dir]);
    w.dir = (w.dir + 1) & 3;
    w.drive[w.cage] = 1.0;
    return w.tracker.update(w.drive);
  };

  Walk timed = start();
  for (auto _ : state) benchmark::DoNotOptimize(tick(timed).stats.sweeps);

  // 40 ticks: ten laps, ending 8 ticks past the /16 policy's second re-anchor.
  constexpr int kReplayTicks = 40;
  Walk replay = start();
  double fraction = 0.0;
  for (int t = 0; t < kReplayTicks; ++t) fraction += tick(replay).window_fraction;
  const Grid3 oracle = replay.tracker.oracle();
  double worst = 0.0;
  for (std::size_t m = 0; m < oracle.size(); ++m)
    worst = std::max(worst, std::fabs(replay.tracker.potential().data()[m] -
                                      oracle.data()[m]));
  state.counters["oracle_max_err"] = worst;
  state.counters["window_fraction"] = fraction / kReplayTicks;
}

// Thin-gap (1-node) calibration-patch BC: the geometry whose coarse masks
// lose the gap under injection — the RAP-critical case for the V-cycle.
void bm_thin_gap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  double fe = 0.0;
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = cage_thin_gap_bc(g, 3.3, 1);
    SolveStats s = solve_laplace(g, bc);
    fe = s.fine_equiv_sweeps;
    benchmark::DoNotOptimize(s.sweeps);
  }
  state.counters["fe_sweeps"] = fe;
}

// The set-up every closed-loop caller pays before simulating: a cold
// BiochipDevice::calibrate_cage(5, range(0)) on the paper device, with no
// workspace, as perfbench's set-up calls it. The counters come from one more
// calibration after the timed loop, through a fresh workspace (the same
// solves): fine-equivalent sweeps and V-cycles summed over both quadrature
// solves, and the calibrated curvatures.
void bm_calibrate_cage(benchmark::State& state) {
  const int npp = static_cast<int>(state.range(0));
  const chip::BiochipDevice dev = chip::paper_device();
  for (auto _ : state) benchmark::DoNotOptimize(dev.calibrate_cage(5, npp).c_r);
  MultigridWorkspace workspace;
  const HarmonicCage cage = dev.calibrate_cage(5, npp, &workspace);
  state.counters["fe_sweeps"] = workspace.accounting().fine_equiv_sweeps;
  state.counters["cycles"] = static_cast<double>(workspace.accounting().cycles);
  state.counters["c_r"] = cage.c_r;
  state.counters["c_z"] = cage.c_z;
}

// Coarse-level variable-coefficient smoothing sweep: range(1) selects the
// kernel (0 = per-node smooth_plane_var, 1 = the broadcast fast path that
// reads uniform rows' 27 coefficients from one cache line instead of 27
// grid-sized streams). Both are bit-identical by construction, so the delta
// is pure coefficient traffic — the cost that makes a var sweep ~3× the
// 27/7 flop model in measured wall time (docs/perf.md).
void bm_var_smooth(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Grid3 g(n, n, n, 1e-6);
  const DirichletBc bc = cage_bc(g, 3.3);
  MultigridWorkspace ws;
  ws.prepare(g, bc);
  MultigridWorkspace::Level& lev = ws.levels().front();
  const stencil::Dims dims{lev.e.nx(), lev.e.ny(), lev.e.nz()};
  std::vector<double> rhs(lev.e.size());
  for (std::size_t m = 0; m < rhs.size(); ++m)
    rhs[m] = 1e-4 * static_cast<double>(m % 53);
  for (std::size_t m = 0; m < lev.e.size(); ++m)
    lev.e.data()[m] = lev.fixed[m] ? 0.0 : 1e-3 * static_cast<double>(m % 89);
  const bool bcast = state.range(1) == 1;
  double uniform_rows = 0.0;
  for (const std::uint8_t u : lev.row_uniform) uniform_rows += u;
  for (auto _ : state) {
    double u = 0.0;
    for (int color = 0; color < 2; ++color)
      for (std::size_t k = 0; k < dims.nz; ++k) {
        u = bcast ? stencil::smooth_plane_var_bcast(
                        lev.e.data().data(), lev.fixed.data(), lev.stencil.data(),
                        lev.row_uniform.data(), lev.uniform_stencil.data(),
                        lev.uniform_inv_diag, lev.inv_diag.data(), rhs.data(), dims,
                        1.15, color, k)
                  : stencil::smooth_plane_var(lev.e.data().data(), lev.fixed.data(),
                                              lev.stencil.data(), lev.inv_diag.data(),
                                              rhs.data(), dims, 1.15, color, k);
      }
    benchmark::DoNotOptimize(u);
  }
  state.counters["uniform_rows"] = uniform_rows;
  state.counters["rows"] = static_cast<double>(dims.ny * dims.nz);
}

BENCHMARK(bm_sor)->Arg(17)->Arg(33)->Arg(65)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_multilevel)->Arg(17)->Arg(33)->Arg(65)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_vcycle_warm)->Arg(33)->Arg(65)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_incremental)->Arg(1)->Arg(16)->Arg(0)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_thin_gap)->Arg(33)->Arg(65)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_calibrate_cage)->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_var_smooth)
    ->Args({65, 0})
    ->Args({65, 1})
    ->Args({129, 0})
    ->Args({129, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_solver_scaling();
  print_cage_convergence();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
