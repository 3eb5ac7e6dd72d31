#include "field/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "field/stencil_kernel.hpp"

namespace biochip::field {

namespace {

void apply_dirichlet(Grid3& phi, const DirichletBc& bc) {
  for (std::size_t n = 0; n < phi.size(); ++n)
    if (bc.fixed[n]) phi.data()[n] = bc.value[n];
}

// One red-black sweep of the 7-point operator, fusing the two colors into
// one plane-pipelined pass: color 1 of plane k-1 relaxes immediately after
// color 0 of plane k, while the three-plane window is still cache-resident.
// Every read each relax makes sees exactly the value it would in the
// two-pass ordering (color 0 of plane k runs before color 1 of planes >=
// k-1; color 1 of plane k runs after color 0 of planes <= k+1), so the
// result is bitwise identical to the half-sweep pair — at half the DRAM
// traffic, which is what bounds large grids. Returns the max node update,
// or 0 when `track` is false (the relaxed values never depend on it).
double sweep_const(double* d, const std::uint8_t* fixed, const std::uint8_t* plane_fixed,
                   stencil::Dims dims, double omega, bool track) {
  const auto relax = [&](int color, std::size_t k) {
    return stencil::smooth_plane(d, fixed, dims, omega, color, k, plane_fixed[k] != 0,
                                 track);
  };
  double worst = relax(0, 0);
  for (std::size_t k = 1; k < dims.nz; ++k) {
    worst = std::max(worst, relax(0, k));
    worst = std::max(worst, relax(1, k - 1));
  }
  return std::max(worst, relax(1, dims.nz - 1));
}

// Per-plane Dirichlet classification: flags[k] != 0 when plane k holds any
// fixed node. Costs one pass over the mask; saves the mask loads and
// branches on every subsequent sweep of the (usually all-free) interior.
std::vector<std::uint8_t> classify_planes(const std::uint8_t* fixed, stencil::Dims dims) {
  std::vector<std::uint8_t> flags(dims.nz, 0);
  const std::size_t stride = dims.nx * dims.ny;
  for (std::size_t k = 0; k < dims.nz; ++k) {
    const std::uint8_t* p = fixed + k * stride;
    for (std::size_t n = 0; n < stride; ++n)
      if (p[n] != 0) {
        flags[k] = 1;
        break;
      }
  }
  return flags;
}

// Residual norm in laplacian_residual units over a raw strided grid.
double residual_norm(const double* d, const std::uint8_t* fixed, double h2,
                     stencil::Dims dims) {
  double worst = 0.0;
  for (std::size_t k = 0; k < dims.nz; ++k)
    worst = std::max(worst, stencil::residual_plane(d, fixed, nullptr, h2, dims, k));
  return worst;
}

// Red-black SOR on the Laplace equation.
SolveStats sor_solve(Grid3& phi, const DirichletBc& bc, const SolverOptions& opts) {
  // Auto-omega honours the actual per-axis dimensions: on anisotropic
  // chamber grids (129×129×9) the longest-side model formula over-relaxes
  // the short axis and slows convergence.
  const double omega =
      opts.omega > 0.0 ? opts.omega : optimal_omega(phi.nx(), phi.ny(), phi.nz());
  apply_dirichlet(phi, bc);
  const stencil::Dims dims{phi.nx(), phi.ny(), phi.nz()};
  double* d = phi.data().data();
  const std::vector<std::uint8_t> plane_fixed = classify_planes(bc.fixed.data(), dims);
  const auto sweep = [&](bool track) {
    return sweep_const(d, bc.fixed.data(), plane_fixed.data(), dims, omega, track);
  };

  // Convergence is tested after every second sweep (or the last one the cap
  // allows); the first sweep of a pair skips the update norm nobody reads.
  SolveStats stats;
  while (stats.sweeps < opts.max_sweeps) {
    if (stats.sweeps + 2 <= opts.max_sweeps) {
      sweep(false);
      ++stats.sweeps;
    }
    stats.final_update = sweep(true);
    ++stats.sweeps;
    if (stats.final_update < opts.tolerance) {
      stats.converged = true;
      break;
    }
  }
  stats.total_sweeps = stats.sweeps;
  stats.fine_equiv_sweeps = static_cast<double>(stats.sweeps);
  return stats;
}

bool can_coarsen_dims(std::size_t nx, std::size_t ny, std::size_t nz) {
  auto ok = [](std::size_t n) { return n >= 5 && (n - 1) % 2 == 0; };
  return ok(nx) && ok(ny) && ok(nz);
}

bool can_coarsen(const Grid3& g) { return can_coarsen_dims(g.nx(), g.ny(), g.nz()); }

// ----------------------------------------------------------------- V-cycle ----

// A 27-point variable-coefficient smoothing sweep touches ~27/7 of the
// memory/flops of a fine 7-point sweep per node; weight its work accordingly
// in the fine-equivalent accounting (see docs/perf.md).
constexpr double kVarSweepCost = 27.0 / 7.0;

// Smoothing sweeps before and after each coarse-grid correction: V(2,2).
constexpr std::size_t kSmoothSweeps = 2;

// The coarsest level is solved only as accurately as the cycle can use
// (Trottenberg, Oosterlee & Schüller, Multigrid, 2001). A coarse solve left
// with relative error ε hands the finer level the smooth error scaled by
// about ε instead of 0, so the cycle's contraction becomes about ρ + ε.
// V(2,2) contracts the cage grids' residual by ρ ≈ 0.01 (31³ thin gap) to
// 0.08 (33×33×11 chamber grid) per cycle, so ε = 1e-2 costs at most a
// fraction of a cycle. Measured: those grids and the 31³ reference grid keep
// their cycle counts for any threshold from 1e-3 to 3e-2, and the 31³ grids
// need one more cycle at 1e-1. The ratio of the last max update to the
// first stands in for ε.
constexpr double kCoarsestRelTol = 1e-2;
// Runaway guard on the coarsest level's sweeps per cycle.
constexpr std::size_t kCoarsestMaxSweeps = 100;

// One level of the V-cycle as raw views over either the caller's fine grid
// or a workspace level.
struct LevelView {
  double* phi = nullptr;
  const std::uint8_t* fixed = nullptr;
  double* rhs = nullptr;         // restricted residual; null on the fine Laplace level
  double* res = nullptr;         // residual scratch (unused at the coarsest level)
  const std::uint8_t* plane_fixed = nullptr;  // per-plane any-Dirichlet flags
  const double* coef = nullptr;      // Galerkin 27-point stencil (coarse levels)
  const double* inv_diag = nullptr;  // 1/diagonal (coarse levels)
  stencil::Dims dims;
  double h2 = 0.0;
  double ratio = 1.0;  // node-count ratio vs the finest level
  // Broadcast fast path for uniform coarse rows (null = plain var smoothing).
  const std::uint8_t* row_uniform = nullptr;
  const double* ustencil = nullptr;
  double uinv = 0.0;
};

class VcycleDriver {
 public:
  VcycleDriver(std::vector<LevelView> views, const SolverOptions& opts, SolveStats& stats)
      : views_(std::move(views)), stats_(stats),
        // Smoothing wants mild over-relaxation, not the near-2 plain-SOR
        // optimum (which barely damps high frequencies): 1.15 measured best
        // on the cage-electrode workload across 33³..65³.
        omega_(opts.omega > 0.0 ? opts.omega : 1.15) {}

  // Runs one V-cycle from the finest level; returns the last fine max update.
  double cycle() { return cycle_at(0); }

  // Residual norm of the finest level (update units; no residual store).
  double fine_residual_norm() {
    const LevelView& v = views_.front();
    stats_.fine_equiv_sweeps += v.ratio;
    return residual_norm(v.phi, v.fixed, v.h2, v.dims);
  }

 private:
  // Constant-coefficient smoothing for the finest (7-point Laplacian) level.
  double smooth_const(const LevelView& v, std::size_t sweeps, double omega) {
    double update = 0.0;
    for (std::size_t s = 0; s < sweeps; ++s)
      update = sweep_const(v.phi, v.fixed, v.plane_fixed, v.dims, omega, s + 1 == sweeps);
    stats_.total_sweeps += sweeps;
    stats_.sweeps += sweeps;
    stats_.fine_equiv_sweeps += static_cast<double>(sweeps) * v.ratio;
    return update;
  }

  // Variable-coefficient (Galerkin) smoothing for coarse levels. The
  // 27-point stencil couples same-color nodes of adjacent planes, so the
  // plane order changes the result: each half-sweep relaxes the even planes,
  // then the odd ones. That order is pinned — the calibrated `HarmonicCage`
  // constants were computed in it.
  double smooth_var(const LevelView& v, std::size_t sweeps, double omega) {
    double update = 0.0;
    for (std::size_t s = 0; s < sweeps; ++s) {
      update = 0.0;
      for (int color = 0; color < 2; ++color)
        for (std::size_t parity = 0; parity < 2; ++parity)
          for (std::size_t k = parity; k < v.dims.nz; k += 2) {
            // Uniform coarse rows take the broadcast-coefficient fast path
            // (bit-identical; see smooth_plane_var_bcast).
            const double u =
                v.row_uniform != nullptr
                    ? stencil::smooth_plane_var_bcast(v.phi, v.fixed, v.coef,
                                                      v.row_uniform, v.ustencil, v.uinv,
                                                      v.inv_diag, v.rhs, v.dims, omega,
                                                      color, k)
                    : stencil::smooth_plane_var(v.phi, v.fixed, v.coef, v.inv_diag, v.rhs,
                                                v.dims, omega, color, k);
            update = std::max(update, u);
          }
    }
    stats_.total_sweeps += sweeps;
    stats_.fine_equiv_sweeps += static_cast<double>(sweeps) * v.ratio * kVarSweepCost;
    return update;
  }

  double smooth(const LevelView& v, std::size_t sweeps, double omega) {
    if (v.coef != nullptr) return smooth_var(v, sweeps, omega);
    return smooth_const(v, sweeps, omega);
  }

  // Relax the coarsest level with SOR until its max update falls below
  // kCoarsestRelTol of its first sweep's. The level is not always small: a
  // grid whose coarsening stops early keeps a large one (31³ stops at 16³,
  // 27-point), where relaxing to a 1e-10 update runs the 100-sweep cap on
  // every cycle and costs 85% of a cage calibration's fine-equivalent work.
  void solve_coarsest(const LevelView& v) {
    const double omega = optimal_omega(v.dims.nx, v.dims.ny, v.dims.nz);
    double first = -1.0;
    for (std::size_t s = 0; s < kCoarsestMaxSweeps; ++s) {
      const double u = smooth(v, 1, omega);
      if (first < 0.0) first = u;
      if (u == 0.0 || u < kCoarsestRelTol * first) break;
    }
  }

  // One V-cycle rooted at level l.
  double cycle_at(std::size_t l) {
    const LevelView& v = views_[l];
    if (l + 1 == views_.size()) {
      solve_coarsest(v);
      return 0.0;
    }
    const LevelView& c = views_[l + 1];
    smooth(v, kSmoothSweeps, omega_);
    // Residual, restricted by full weighting, becomes the coarse RHS of the
    // error equation A_{l+1} e = R r with e = 0 at restricted Dirichlet
    // nodes. A_{l+1} is the Galerkin product R·A_l·P, so features thinner
    // than the coarse spacing stay represented in its coefficients and the
    // correction needs no damping safeguards.
    for (std::size_t k = 0; k < v.dims.nz; ++k) {
      if (v.coef != nullptr)
        stencil::residual_plane_var(v.phi, v.fixed, v.coef, v.rhs, v.res, v.dims, k);
      else
        stencil::residual_plane(v.phi, v.fixed, v.res, v.h2, v.dims, k);
    }
    stats_.fine_equiv_sweeps += v.coef != nullptr ? v.ratio * kVarSweepCost : v.ratio;
    for (std::size_t kc = 0; kc < c.dims.nz; ++kc)
      stencil::restrict_plane(v.res, v.dims, c.rhs, c.fixed, c.dims, kc);
    std::fill_n(c.phi, c.dims.size(), 0.0);
    stats_.fine_equiv_sweeps += c.ratio;
    cycle_at(l + 1);
    // Plain multigrid correction: phi += P·e.
    for (std::size_t kf = 0; kf < v.dims.nz; ++kf)
      stencil::prolong_correct_plane(c.phi, c.dims, v.phi, v.fixed, v.dims, kf);
    stats_.fine_equiv_sweeps += v.ratio;
    return smooth(v, kSmoothSweeps, omega_);
  }

  std::vector<LevelView> views_;
  SolveStats& stats_;
  double omega_;
};

SolveStats vcycle_solve(Grid3& phi, const DirichletBc& bc, const SolverOptions& opts,
                        MultigridWorkspace* workspace) {
  MultigridWorkspace local;
  MultigridWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.prepare(phi, bc);
  if (ws.levels().empty())  // hierarchy degenerate (no Dirichlet node at all)
    return sor_solve(phi, bc, opts);

  std::vector<LevelView> views;
  views.reserve(ws.levels().size() + 1);
  const double fine_nodes = static_cast<double>(phi.size());
  views.push_back({phi.data().data(), bc.fixed.data(), nullptr, ws.fine_residual().data(),
                   ws.fine_plane_fixed().data(), nullptr, nullptr,
                   {phi.nx(), phi.ny(), phi.nz()},
                   phi.spacing() * phi.spacing(), 1.0});
  for (MultigridWorkspace::Level& lev : ws.levels()) {
    LevelView lv{lev.e.data().data(), lev.fixed.data(), lev.rhs.data(), lev.res.data(),
                 lev.plane_fixed.data(), lev.stencil.data(), lev.inv_diag.data(),
                 {lev.e.nx(), lev.e.ny(), lev.e.nz()},
                 lev.e.spacing() * lev.e.spacing(),
                 static_cast<double>(lev.e.size()) / fine_nodes};
    if (lev.uniform_inv_diag != 0.0 && !lev.row_uniform.empty()) {
      lv.row_uniform = lev.row_uniform.data();
      lv.ustencil = lev.uniform_stencil.data();
      lv.uinv = lev.uniform_inv_diag;
    }
    views.push_back(lv);
  }

  SolveStats stats;
  VcycleDriver driver(std::move(views), opts, stats);
  const double target = opts.cycle_tolerance > 0.0 ? opts.cycle_tolerance : opts.tolerance;
  // With Galerkin (RAP) coarse operators the coarse-grid correction is
  // variationally consistent with the fine operator on every geometry —
  // including boundary features thinner than the coarse spacing — so the
  // cycle contracts at a grid-independent rate and needs none of the
  // damped-correction/bail-out machinery the injected-mask operators
  // required (see docs/perf.md history).
  for (std::size_t c = 0; c < opts.max_cycles && !stats.converged; ++c) {
    stats.final_update = driver.cycle();
    ++stats.cycles;
    stats.final_residual = driver.fine_residual_norm();
    if (stats.final_residual < target) stats.converged = true;
  }
  // Terminal safety net only (max_cycles exhausted): with RAP coarse
  // operators the cycle no longer stalls on representable geometry, so this
  // is not a mid-flight bail-out. Plain SOR continues from the cycles'
  // iterate. Skipped when the caller left no sweep budget (max_sweeps = 0),
  // so the stats then report the cycles alone.
  if (!stats.converged && opts.max_sweeps > 0) {
    const SolveStats tail = sor_solve(phi, bc, opts);
    stats.sweeps += tail.sweeps;
    stats.total_sweeps += tail.total_sweeps;
    stats.fine_equiv_sweeps += tail.fine_equiv_sweeps;
    stats.final_update = tail.final_update;
    stats.converged = tail.converged;
    stats.final_residual = laplacian_residual(phi, bc);
  }
  return stats;
}

// ---------------------------------------------------------- Galerkin (RAP) ----

// Per-axis transfer support of one fine index: at most two coarse taps.
// For R (full weighting) the table is built by inverting the forward map —
// each coarse I reads fine mirror_index(2I+r), so folded boundary weights
// merge into the same tap. For P (trilinear) even fine indices map to their
// coincident coarse node, odd ones to the two flanking nodes at 1/2.
struct AxisTaps {
  int count = 0;
  std::int32_t idx[2] = {0, 0};
  double w[2] = {0.0, 0.0};

  void add(std::size_t coarse, double weight) {
    for (int t = 0; t < count; ++t)
      if (idx[t] == static_cast<std::int32_t>(coarse)) {
        w[t] += weight;
        return;
      }
    idx[count] = static_cast<std::int32_t>(coarse);
    w[count] = weight;
    ++count;
  }
};

// Single source of the trilinear P tap rule (even fine index → coincident
// coarse node, odd → the two flanking nodes at 1/2), shared by the absolute
// per-axis tables and uniform_rap's relative composition so the Galerkin
// build can never drift from prolong_correct_plane's weights. Signed so
// relative indices work; truncating division is exact for every branch.
inline int prolong_taps(std::ptrdiff_t g, std::ptrdiff_t idx[2], double w[2]) {
  if (g % 2 == 0) {
    idx[0] = g / 2;
    w[0] = 1.0;
    return 1;
  }
  idx[0] = (g - 1) / 2;
  idx[1] = (g + 1) / 2;
  w[0] = w[1] = 0.5;
  return 2;
}

std::vector<AxisTaps> prolong_axis_taps(std::size_t fn) {
  std::vector<AxisTaps> taps(fn);
  for (std::size_t g = 0; g < fn; ++g) {
    std::ptrdiff_t idx[2];
    double w[2];
    const int count = prolong_taps(static_cast<std::ptrdiff_t>(g), idx, w);
    for (int t = 0; t < count; ++t)
      taps[g].add(static_cast<std::size_t>(idx[t]), w[t]);
  }
  return taps;
}

// Interior constant stencil of the next-coarser level: the Galerkin product
// evaluated in relative coordinates around a reference coarse node far from
// every boundary and mask (where the product is translation invariant).
// `parent` is the parent level's interior stencil (27 entries), or null for
// the unmasked 7-point Laplacian with inv_h2 = 1/h².
std::array<double, 27> uniform_rap(const double* parent, double inv_h2) {
  std::array<double, 27> out{};
  const double wr[3] = {0.25, 0.5, 0.25};
  const auto accumulate = [&](int fx, int fy, int fz, double wR) {
    const auto entry = [&](int dx, int dy, int dz, double a) {
      std::ptrdiff_t is[2], js[2], ks[2];
      double wi[2], wj[2], wk[2];
      const int ni = prolong_taps(fx + dx, is, wi);
      const int nj = prolong_taps(fy + dy, js, wj);
      const int nk = prolong_taps(fz + dz, ks, wk);
      for (int a3 = 0; a3 < nk; ++a3)
        for (int b3 = 0; b3 < nj; ++b3)
          for (int c3 = 0; c3 < ni; ++c3) {
            const int m = ((ks[a3] + 1) * 3 + (js[b3] + 1)) * 3 + (is[c3] + 1);
            out[static_cast<std::size_t>(m)] += wR * a * wk[a3] * wj[b3] * wi[c3];
          }
    };
    if (parent == nullptr) {
      entry(0, 0, 0, -6.0 * inv_h2);
      entry(-1, 0, 0, inv_h2);
      entry(1, 0, 0, inv_h2);
      entry(0, -1, 0, inv_h2);
      entry(0, 1, 0, inv_h2);
      entry(0, 0, -1, inv_h2);
      entry(0, 0, 1, inv_h2);
      return;
    }
    for (int m = 0; m < 27; ++m)
      entry(stencil::var_off_i(m), stencil::var_off_j(m), stencil::var_off_k(m),
            parent[m]);
  };
  for (int rz = -1; rz <= 1; ++rz)
    for (int ry = -1; ry <= 1; ++ry)
      for (int rx = -1; rx <= 1; ++rx)
        accumulate(rx, ry, rz, wr[rz + 1] * wr[ry + 1] * wr[rx + 1]);
  return out;
}

// Accumulate the Galerkin product A_c = R·A_f·P for one coarse level into
// `coef` (27-slot SoA layout, see stencil_kernel.hpp). `fine_row(fi, fj, fk,
// emit)` enumerates the nonzero entries of the fine operator's row at a free
// fine node as emit(gi, gj, gk, a); entries landing on fixed fine nodes are
// dropped (Dirichlet elimination of the error equation, e = 0 there).
// R is full weighting with face mirroring (restrict_plane's geometry), P is
// trilinear (prolong_correct_plane's weights), so the coarse operator is
// variationally consistent with the transfers the cycle actually applies —
// this is what keeps 1–2-node electrode gaps represented after coarsening,
// where mask injection erases them.
//
// Cost control for the cold-start (no-workspace) solve: the Galerkin product
// is translation invariant wherever the fine operator is unmasked AND
// itself uniform, so "regular" coarse nodes — per-axis index in [1, cn-2]
// (no mirror anywhere in the R/A/P chain), an all-free 5³ fine support, and
// (for variable-coefficient sources) a uniform parent stencil over the 3³
// R-support rows — just copy `uniform` (the interior constant stencil,
// composed per level in uniform_rap). Only nodes near Dirichlet masks or
// domain faces run the full triple product. `parent_uniform` flags which
// parent nodes hold the parent's constant stencil (null for the 7-point
// source, where the mask check alone decides); `uniform_out`, when given,
// records the same flag for this level so the next build can chain it —
// without it a feature thinner than the coarse spacing (the thin gap whose
// mask injection already erased) would silently re-uniformize one level
// down and the operator would lose exactly the structure RAP exists to keep.
template <typename RowFn>
void build_rap(const RowFn& fine_row, stencil::Dims fd, const std::uint8_t* ffixed,
               stencil::Dims cd, const std::uint8_t* cfixed, double* coef,
               const double* uniform, const std::uint8_t* parent_uniform,
               std::uint8_t* uniform_out) {
  const std::size_t cn = cd.size();
  std::fill_n(coef, 27 * cn, 0.0);
  if (uniform_out != nullptr) std::fill_n(uniform_out, cn, 0);
  const std::vector<AxisTaps> px = prolong_axis_taps(fd.nx);
  const std::vector<AxisTaps> py = prolong_axis_taps(fd.ny);
  const std::vector<AxisTaps> pz = prolong_axis_taps(fd.nz);
  const double wr[3] = {0.25, 0.5, 0.25};

  for (std::size_t K = 0; K < cd.nz; ++K)
    for (std::size_t J = 0; J < cd.ny; ++J)
      for (std::size_t I = 0; I < cd.nx; ++I) {
        const std::size_t cidx = (K * cd.ny + J) * cd.nx + I;
        if (cfixed[cidx]) continue;
        // Regularity probe: interior per axis, an all-free 5³ fine support,
        // and uniform parent rows across the 3³ R-support.
        if (uniform != nullptr && I >= 1 && I + 2 <= cd.nx && J >= 1 && J + 2 <= cd.ny &&
            K >= 1 && K + 2 <= cd.nz) {
          bool regular = true;
          for (std::size_t fk = 2 * K - 2; regular && fk <= 2 * K + 2; ++fk)
            for (std::size_t fj = 2 * J - 2; regular && fj <= 2 * J + 2; ++fj) {
              const std::uint8_t* fr = ffixed + (fk * fd.ny + fj) * fd.nx + 2 * I - 2;
              regular = (fr[0] | fr[1] | fr[2] | fr[3] | fr[4]) == 0;
            }
          if (regular && parent_uniform != nullptr)
            for (std::size_t fk = 2 * K - 1; regular && fk <= 2 * K + 1; ++fk)
              for (std::size_t fj = 2 * J - 1; regular && fj <= 2 * J + 1; ++fj) {
                const std::uint8_t* fr =
                    parent_uniform + (fk * fd.ny + fj) * fd.nx + 2 * I - 1;
                regular = (fr[0] & fr[1] & fr[2]) != 0;
              }
          if (regular) {
            for (int m = 0; m < 27; ++m)
              coef[static_cast<std::size_t>(m) * cn + cidx] = uniform[m];
            if (uniform_out != nullptr) uniform_out[cidx] = 1;
            continue;
          }
        }
        for (int rz = -1; rz <= 1; ++rz) {
          const std::size_t fz =
              stencil::mirror_index(static_cast<std::ptrdiff_t>(2 * K) + rz, fd.nz);
          for (int ry = -1; ry <= 1; ++ry) {
            const std::size_t fy =
                stencil::mirror_index(static_cast<std::ptrdiff_t>(2 * J) + ry, fd.ny);
            for (int rx = -1; rx <= 1; ++rx) {
              const std::size_t fx =
                  stencil::mirror_index(static_cast<std::ptrdiff_t>(2 * I) + rx, fd.nx);
              if (ffixed[(fz * fd.ny + fy) * fd.nx + fx]) continue;
              const double wR = wr[rz + 1] * wr[ry + 1] * wr[rx + 1];
              fine_row(fx, fy, fz, [&](std::size_t gi, std::size_t gj, std::size_t gk,
                                       double aval) {
                if (ffixed[(gk * fd.ny + gj) * fd.nx + gi]) return;
                const AxisTaps& pi = px[gi];
                const AxisTaps& pj = py[gj];
                const AxisTaps& pk = pz[gk];
                const double wa = wR * aval;
                for (int a = 0; a < pk.count; ++a)
                  for (int b = 0; b < pj.count; ++b)
                    for (int c = 0; c < pi.count; ++c) {
                      const std::size_t c2 =
                          (static_cast<std::size_t>(pk.idx[a]) * cd.ny +
                           static_cast<std::size_t>(pj.idx[b])) *
                              cd.nx +
                          static_cast<std::size_t>(pi.idx[c]);
                      if (cfixed[c2]) continue;
                      // |offset| <= 1 per axis by construction: R spans fine
                      // nodes 2I±1, the operator reaches one further, and P
                      // maps that back into [I-1, I+1].
                      const int oi = pi.idx[c] - static_cast<int>(I);
                      const int oj = pj.idx[b] - static_cast<int>(J);
                      const int ok = pk.idx[a] - static_cast<int>(K);
                      const int m = ((ok + 1) * 3 + (oj + 1)) * 3 + (oi + 1);
                      coef[static_cast<std::size_t>(m) * cn + cidx] +=
                          wa * pk.w[a] * pj.w[b] * pi.w[c];
                    }
              });
            }
          }
        }
      }
}

}  // namespace

// --------------------------------------------------------------- workspace ----

void MultigridWorkspace::prepare(const Grid3& fine, const DirichletBc& bc) {
  const bool same_shape = fine.nx() == fnx_ && fine.ny() == fny_ && fine.nz() == fnz_ &&
                          fine.spacing() == fspacing_;
  if (same_shape && mask_copy_ == bc.fixed) return;  // fully reusable as-is
  if (!same_shape) {
    levels_.clear();
    fnx_ = fine.nx();
    fny_ = fine.ny();
    fnz_ = fine.nz();
    fspacing_ = fine.spacing();
    fine_residual_.assign(fine.size(), 0.0);
  }

  // A fine mask with no Dirichlet node at all makes the error equation
  // singular on every level; leave the hierarchy empty (the caller falls
  // back to plain SOR, matching the historical behaviour).
  bool any_fixed = false;
  for (const std::uint8_t f : bc.fixed)
    if (f != 0) {
      any_fixed = true;
      break;
    }

  // Build (or re-derive) the level chain. Masks restrict by injection; the
  // coarse OPERATORS are Galerkin products A_{l+1} = R·A_l·P, so geometry
  // thinner than the coarse spacing — 1–2-node electrode gaps that injection
  // erases from the mask — survives in the variable coefficients, and the
  // chain no longer has to stop when a coarse mask loses its pinned nodes
  // (the eliminated-neighbor diagonal strengthening keeps A_{l+1} regular).
  std::size_t nx = fine.nx(), ny = fine.ny(), nz = fine.nz();
  double spacing = fine.spacing();
  const std::uint8_t* parent_fixed = bc.fixed.data();
  stencil::Dims parent_dims{nx, ny, nz};
  const double* parent_coef = nullptr;  // null = 7-point fine Laplacian
  const double fine_inv_h2 = 1.0 / (fine.spacing() * fine.spacing());
  // Interior constant stencil of the level being built (regular-node fast
  // path in build_rap); recomposed level to level, with per-node uniformity
  // flags chained so sub-coarse-spacing features never re-uniformize.
  std::array<double, 27> uniform = uniform_rap(nullptr, fine_inv_h2);
  std::vector<std::uint8_t> parent_uniform;  // empty = 7-point source level
  std::vector<std::uint8_t> level_uniform;
  std::size_t depth = 0;
  while (any_fixed && can_coarsen_dims(nx, ny, nz)) {
    const std::size_t cnx = (nx - 1) / 2 + 1, cny = (ny - 1) / 2 + 1,
                      cnz = (nz - 1) / 2 + 1;
    spacing *= 2.0;
    if (levels_.size() <= depth) {
      Level lev;
      lev.e = Grid3(cnx, cny, cnz, spacing);
      lev.rhs.assign(lev.e.size(), 0.0);
      lev.res.assign(lev.e.size(), 0.0);
      lev.fixed.assign(lev.e.size(), 0);
      lev.plane_fixed.assign(cnz, 0);
      lev.stencil.assign(27 * lev.e.size(), 0.0);
      lev.inv_diag.assign(lev.e.size(), 0.0);
      levels_.push_back(std::move(lev));
    }
    Level& lev = levels_[depth];
    // Mask restriction by injection: a coarse node is pinned (e = 0) exactly
    // when its coincident fine node is pinned.
    for (std::size_t k = 0; k < cnz; ++k)
      for (std::size_t j = 0; j < cny; ++j)
        for (std::size_t i = 0; i < cnx; ++i)
          lev.fixed[(k * cny + j) * cnx + i] =
              parent_fixed[(2 * k * parent_dims.ny + 2 * j) * parent_dims.nx + 2 * i];

    const stencil::Dims cdims{cnx, cny, cnz};
    if (parent_coef == nullptr) {
      // Fine operator: 7-point Laplacian with Neumann mirror folding (a
      // folded edge emits the same interior target twice, matching the
      // smoother's doubled neighbor read) and Dirichlet elimination.
      const auto row7 = [&](std::size_t fi, std::size_t fj, std::size_t fk,
                            const auto& emit) {
        emit(fi, fj, fk, -6.0 * fine_inv_h2);
        const auto p = [](std::size_t v) { return static_cast<std::ptrdiff_t>(v); };
        emit(stencil::mirror_index(p(fi) - 1, parent_dims.nx), fj, fk, fine_inv_h2);
        emit(stencil::mirror_index(p(fi) + 1, parent_dims.nx), fj, fk, fine_inv_h2);
        emit(fi, stencil::mirror_index(p(fj) - 1, parent_dims.ny), fk, fine_inv_h2);
        emit(fi, stencil::mirror_index(p(fj) + 1, parent_dims.ny), fk, fine_inv_h2);
        emit(fi, fj, stencil::mirror_index(p(fk) - 1, parent_dims.nz), fine_inv_h2);
        emit(fi, fj, stencil::mirror_index(p(fk) + 1, parent_dims.nz), fine_inv_h2);
      };
      level_uniform.assign(lev.e.size(), 0);
      build_rap(row7, parent_dims, parent_fixed, cdims, lev.fixed.data(),
                lev.stencil.data(), uniform.data(), nullptr, level_uniform.data());
    } else {
      const std::size_t pn = parent_dims.size();
      const auto rowvar = [&](std::size_t fi, std::size_t fj, std::size_t fk,
                              const auto& emit) {
        const std::size_t idx = (fk * parent_dims.ny + fj) * parent_dims.nx + fi;
        for (int m = 0; m < 27; ++m) {
          const double a = parent_coef[static_cast<std::size_t>(m) * pn + idx];
          if (a == 0.0) continue;  // includes every out-of-range offset
          emit(static_cast<std::size_t>(static_cast<std::ptrdiff_t>(fi) +
                                        stencil::var_off_i(m)),
               static_cast<std::size_t>(static_cast<std::ptrdiff_t>(fj) +
                                        stencil::var_off_j(m)),
               static_cast<std::size_t>(static_cast<std::ptrdiff_t>(fk) +
                                        stencil::var_off_k(m)),
               a);
        }
      };
      level_uniform.assign(lev.e.size(), 0);
      build_rap(rowvar, parent_dims, parent_fixed, cdims, lev.fixed.data(),
                lev.stencil.data(), uniform.data(), parent_uniform.data(),
                level_uniform.data());
    }

    // inv_diag + degenerate-node fixup: a free coarse node whose entire R
    // support is fixed has an all-zero row (and zero diagonal); pin it so
    // the smoother keeps e = 0 there. Columns pointing at such nodes are
    // harmless — e is zeroed per cycle and never written at fixed nodes —
    // and the next level's RAP build drops them explicitly.
    const std::size_t cn = lev.e.size();
    std::size_t fixed_count = 0;
    for (std::size_t n = 0; n < cn; ++n) {
      if (lev.fixed[n]) {
        lev.inv_diag[n] = 0.0;
        ++fixed_count;
        continue;
      }
      const double diag = lev.stencil[13 * cn + n];
      if (diag == 0.0) {
        lev.fixed[n] = 1;
        lev.inv_diag[n] = 0.0;
        ++fixed_count;
        continue;
      }
      lev.inv_diag[n] = 1.0 / diag;
    }
    // Per-row broadcast eligibility for the smoother: a row may use the
    // constant-stencil fast path when every interior node ([1, cnx-2]; the
    // two border nodes are always de-uniformized by mirror folding) carries
    // the uniformity flag. The constants are the very values build_rap
    // copied into the stencil, so broadcasting them is bit-identical.
    lev.uniform_stencil = uniform;
    lev.uniform_inv_diag = uniform[13] != 0.0 ? 1.0 / uniform[13] : 0.0;
    lev.row_uniform.assign(cny * cnz, 0);
    if (cnx >= 4 && lev.uniform_inv_diag != 0.0) {
      for (std::size_t kk = 0; kk < cnz; ++kk)
        for (std::size_t jj = 0; jj < cny; ++jj) {
          const std::uint8_t* u = level_uniform.data() + (kk * cny + jj) * cnx;
          bool all = true;
          for (std::size_t ii = 1; ii + 1 < cnx && all; ++ii) all = u[ii] != 0;
          lev.row_uniform[kk * cny + jj] = all ? 1 : 0;
        }
    }
    lev.plane_fixed = classify_planes(lev.fixed.data(), cdims);
    // A level with every node pinned contributes no correction; stop there.
    if (fixed_count == cn) break;
    uniform = uniform_rap(uniform.data(), 0.0);
    parent_uniform = std::move(level_uniform);
    level_uniform.clear();
    parent_fixed = lev.fixed.data();
    parent_coef = lev.stencil.data();
    parent_dims = cdims;
    nx = cnx;
    ny = cny;
    nz = cnz;
    ++depth;
  }
  levels_.resize(depth);
  fine_plane_fixed_ = classify_planes(bc.fixed.data(), {fine.nx(), fine.ny(), fine.nz()});
  mask_copy_ = bc.fixed;
}

// -------------------------------------------------------------- public API ----

DirichletBc DirichletBc::all_free(const Grid3& grid) {
  DirichletBc bc;
  bc.fixed.assign(grid.size(), 0);
  bc.value.assign(grid.size(), 0.0);
  return bc;
}

double optimal_omega(std::size_t n) {
  if (n < 3) return 1.0;
  return 2.0 / (1.0 + std::sin(constants::pi / static_cast<double>(n)));
}

double optimal_omega(std::size_t nx, std::size_t ny, std::size_t nz) {
  if (std::max({nx, ny, nz}) < 3) return 1.0;
  const auto c = [](std::size_t m) {
    return std::cos(constants::pi / static_cast<double>(m));
  };
  // Model-problem Jacobi spectral radius with per-axis dimensions: the
  // short axes lower ρ, so elongated grids get less over-relaxation than
  // the longest-side formula would apply.
  const double rho = (c(nx) + c(ny) + c(nz)) / 3.0;
  if (rho <= 0.0) return 1.0;
  return 2.0 / (1.0 + std::sqrt(std::max(0.0, 1.0 - rho * rho)));
}

SolveStats solve_laplace(Grid3& phi, const DirichletBc& bc, const SolverOptions& opts,
                         MultigridWorkspace* workspace) {
  BIOCHIP_REQUIRE(bc.fixed.size() == phi.size() && bc.value.size() == phi.size(),
                  "Dirichlet BC size does not match grid");
  BIOCHIP_REQUIRE(phi.nx() >= 2 && phi.ny() >= 2 && phi.nz() >= 2,
                  "solver needs at least 2 nodes per axis");
  apply_dirichlet(phi, bc);
  // The V-cycle when multilevel is on and the grid coarsens, plain SOR
  // otherwise.
  const SolveStats stats = opts.multilevel && can_coarsen(phi)
                               ? vcycle_solve(phi, bc, opts, workspace)
                               : sor_solve(phi, bc, opts);
  // Every solve folds into the workspace's accounting, so its cumulative
  // counters stay an exact sum of the returned SolveStats.
  if (workspace != nullptr) workspace->accounting().account(stats);
  return stats;
}

double laplacian_residual(const Grid3& phi, const DirichletBc& bc) {
  return residual_norm(phi.data().data(), bc.fixed.data(), phi.spacing() * phi.spacing(),
                       {phi.nx(), phi.ny(), phi.nz()});
}

// ------------------------------------------------------ dirty-region passes ----

SolveStats MultigridWorkspace::solve_window(Grid3& phi, const DirichletBc& bc,
                                            const GridBox& box,
                                            const SolverOptions& opts) {
  BIOCHIP_REQUIRE(bc.fixed.size() == phi.size() && bc.value.size() == phi.size(),
                  "Dirichlet BC size does not match grid");
  SolveStats stats;
  const GridBox b = box.clamped(phi.nx(), phi.ny(), phi.nz());
  // The zero-change contract: an empty window touches nothing (no Dirichlet
  // re-apply, no sweep, no accounting), so the cached solution survives
  // bitwise.
  if (b.empty()) return stats;

  const std::size_t nx = phi.nx(), ny = phi.ny();
  double* d = phi.data().data();
  // Apply the (possibly updated) Dirichlet values inside the window; track
  // whether the window has any free node at all.
  bool any_free = false;
  for (std::size_t k = b.k0; k <= b.k1; ++k)
    for (std::size_t j = b.j0; j <= b.j1; ++j) {
      const std::size_t row = (k * ny + j) * nx;
      for (std::size_t i = b.i0; i <= b.i1; ++i) {
        if (bc.fixed[row + i])
          d[row + i] = bc.value[row + i];
        else
          any_free = true;
      }
    }
  const double box_ratio =
      static_cast<double>(b.volume()) / static_cast<double>(phi.size());
  if (!any_free) {
    // All-metal window: the Dirichlet apply above is the whole correction.
    stats.converged = true;
    accounting_.account_window(stats, box_ratio);
    return stats;
  }

  const stencil::Dims dims{nx, ny, phi.nz()};
  // Auto-omega sized for the *window*, not the grid: the frozen box boundary
  // makes the correction a Dirichlet problem of the box's own dimensions.
  const double omega = opts.omega > 0.0
                           ? opts.omega
                           : optimal_omega(b.i1 - b.i0 + 1, b.j1 - b.j0 + 1, b.k1 - b.k0 + 1);
  const std::uint8_t* fixed = bc.fixed.data();

  // Box-restricted red-black SOR, one color at a time over the box's
  // planes; convergence is tested every sweep.
  const double tol = opts.incremental.tolerance;
  const std::size_t cap = std::max<std::size_t>(std::size_t{1}, opts.incremental.max_sweeps);
  while (stats.sweeps < cap) {
    double update = 0.0;
    for (int color = 0; color < 2; ++color)
      for (std::size_t k = b.k0; k <= b.k1; ++k)
        update = std::max(update, stencil::smooth_plane_box(d, fixed, dims, omega, color, k,
                                                            b.i0, b.i1, b.j0, b.j1));
    ++stats.sweeps;
    stats.final_update = update;
    if (update < tol) {
      stats.converged = true;
      break;
    }
  }
  stats.total_sweeps = stats.sweeps;
  stats.fine_equiv_sweeps = static_cast<double>(stats.sweeps) * box_ratio;
  stats.final_residual = window_residual(phi, bc, b);
  accounting_.account_window(stats, box_ratio);
  return stats;
}

double MultigridWorkspace::window_residual(const Grid3& phi, const DirichletBc& bc,
                                           const GridBox& box) const {
  BIOCHIP_REQUIRE(bc.fixed.size() == phi.size() && bc.value.size() == phi.size(),
                  "Dirichlet BC size does not match grid");
  const GridBox b = box.clamped(phi.nx(), phi.ny(), phi.nz());
  if (b.empty()) return 0.0;
  const stencil::Dims dims{phi.nx(), phi.ny(), phi.nz()};
  double worst = 0.0;
  for (std::size_t k = b.k0; k <= b.k1; ++k)
    worst = std::max(worst, stencil::residual_plane_box(phi.data().data(), bc.fixed.data(),
                                                        dims, k, b.i0, b.i1, b.j0, b.j1));
  return worst;
}

}  // namespace biochip::field
