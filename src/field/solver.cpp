#include "field/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/threadpool.hpp"
#include "field/stencil_kernel.hpp"

namespace biochip::field {

namespace {

// Grow-only pool for explicit `threads = N` requests; `threads = 0` uses the
// process-global hardware-sized pool instead. Returned as shared_ptr so a
// solve keeps its pool alive even if a concurrent solve grows the cache and
// swaps the shared instance out from under it.
std::shared_ptr<core::ThreadPool> solver_pool(std::size_t threads) {
  static std::mutex m;
  static std::shared_ptr<core::ThreadPool> pool;
  std::lock_guard lk(m);
  if (!pool || pool->size() < threads) pool = std::make_shared<core::ThreadPool>(threads);
  return pool;
}

core::ThreadPool* resolve_pool(const SolverOptions& opts,
                               std::shared_ptr<core::ThreadPool>& owned) {
  if (opts.threads == 0) return &core::ThreadPool::global();
  if (opts.threads > 1) {
    owned = solver_pool(opts.threads);
    return owned.get();
  }
  return nullptr;
}

// Fans plane indices [0, nz) over the pool (serial when pool is null) and
// max-reduces the per-plane results through caller-owned scratch, so the
// iteration loops stay allocation-free.
struct PlaneRunner {
  core::ThreadPool* pool = nullptr;
  std::size_t max_parts = 0;
  std::vector<double>* scratch = nullptr;

  // fn(k, shared_z): shared_z is true when another lane owns plane k-1 or
  // k+1 in this job, i.e. on the first and last plane of every chunk but
  // the outer faces (stencil::smooth_plane's `shared_z`).
  template <typename Fn>
  double run_max_z(std::size_t nz, const Fn& fn) const {
    if (pool == nullptr || nz < 2) {
      double worst = 0.0;
      for (std::size_t k = 0; k < nz; ++k) worst = std::max(worst, fn(k, false));
      return worst;
    }
    std::vector<double>& out = *scratch;
    pool->parallel_for(
        0, nz,
        [&](std::size_t kb, std::size_t ke) {
          for (std::size_t k = kb; k < ke; ++k)
            out[k] = fn(k, (k == kb && kb > 0) || (k + 1 == ke && ke < nz));
        },
        max_parts);
    return *std::max_element(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(nz));
  }

  template <typename Fn>
  double run_max(std::size_t nz, const Fn& fn) const {
    return run_max_z(nz, [&](std::size_t k, bool) { return fn(k); });
  }

  template <typename Fn>
  void run(std::size_t nz, const Fn& fn) const {
    if (pool == nullptr || nz < 2) {
      for (std::size_t k = 0; k < nz; ++k) fn(k);
      return;
    }
    pool->parallel_for(
        0, nz,
        [&](std::size_t kb, std::size_t ke) {
          for (std::size_t k = kb; k < ke; ++k) fn(k);
        },
        max_parts);
  }
};

void apply_dirichlet(Grid3& phi, const DirichletBc& bc) {
  for (std::size_t n = 0; n < phi.size(); ++n)
    if (bc.fixed[n]) phi.data()[n] = bc.value[n];
}

// Serial red-black sweep with the two colors fused into one plane-pipelined
// pass: color 1 of plane k-1 relaxes immediately after color 0 of plane k,
// while the three-plane window is still cache-resident. Every read each
// relax makes sees exactly the value it would in the two-pass ordering
// (color 0 of plane k runs before color 1 of planes >= k-1; color 1 of
// plane k runs after color 0 of planes <= k+1), so the result is bitwise
// identical to the half-sweep pair — at half the DRAM traffic, which is
// what bounds large grids.
double fused_sweep(double* d, const std::uint8_t* fixed, const std::uint8_t* plane_fixed,
                   const double* rhs, double h2, stencil::Dims dims, double omega) {
  const auto has = [&](std::size_t k) { return plane_fixed == nullptr || plane_fixed[k] != 0; };
  double worst = stencil::smooth_plane(d, fixed, rhs, h2, dims, omega, 0, 0, has(0));
  for (std::size_t k = 1; k < dims.nz; ++k) {
    worst = std::max(worst,
                     stencil::smooth_plane(d, fixed, rhs, h2, dims, omega, 0, k, has(k)));
    worst = std::max(worst, stencil::smooth_plane(d, fixed, rhs, h2, dims, omega, 1,
                                                  k - 1, has(k - 1)));
  }
  return std::max(worst, stencil::smooth_plane(d, fixed, rhs, h2, dims, omega, 1,
                                               dims.nz - 1, has(dims.nz - 1)));
}

// Two full sweeps pipelined through one memory pass (temporal blocking).
// Four stages trail each other down the plane axis — A1 = sweep s color 0,
// B1 = sweep s color 1, A2 = sweep s+1 color 0, B2 = sweep s+1 color 1 —
// in the order A1(k), B1(k-1), A2(k-2), B2(k-3). Each stage finds every
// neighbor value in exactly the state the sequential four-half-sweep order
// would produce (the trailing stage at plane p runs only after the leading
// stage has cleared p+1), so the result is bitwise identical while the
// grid streams through the cache once instead of twice.
// Only the second sweep's update norm is tracked — the first one's is never
// consulted by any caller, and skipping the reduction trims the hot loop.
double fused_sweep_pair(double* d, const std::uint8_t* fixed,
                        const std::uint8_t* plane_fixed, const double* rhs, double h2,
                        stencil::Dims dims, double omega) {
  const auto nz = static_cast<std::ptrdiff_t>(dims.nz);
  double u2 = 0.0;
  const auto stage = [&](int color, std::ptrdiff_t k, bool track) {
    if (k < 0 || k >= nz) return;
    const auto ku = static_cast<std::size_t>(k);
    const bool has = plane_fixed == nullptr || plane_fixed[ku] != 0;
    const double u =
        stencil::smooth_plane(d, fixed, rhs, h2, dims, omega, color, ku, has, track);
    if (track) u2 = std::max(u2, u);
  };
  for (std::ptrdiff_t kk = 0; kk < nz + 3; ++kk) {
    stage(0, kk, false);
    stage(1, kk - 1, false);
    stage(0, kk - 2, true);
    stage(1, kk - 3, true);
  }
  return u2;
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

// Residual norm in laplacian_residual units, honouring a Poisson RHS.
double residual_norm(const Grid3& phi, const DirichletBc& bc, const double* rhs) {
  const stencil::Dims dims{phi.nx(), phi.ny(), phi.nz()};
  const double h2 = phi.spacing() * phi.spacing();
  double worst = 0.0;
  for (std::size_t k = 0; k < dims.nz; ++k)
    worst = std::max(worst, stencil::residual_plane(phi.data().data(), bc.fixed.data(),
                                                    rhs, nullptr, h2, dims, k));
  return worst;
}

// Red-black SOR on ∇²φ = rhs (rhs null = Laplace). `ratio` is this grid's
// node count relative to the finest grid of the enclosing solve, for the
// fine-equivalent work accounting.
SolveStats sor_solve(Grid3& phi, const DirichletBc& bc, const double* rhs,
                     const SolverOptions& opts, double ratio) {
  // Auto-omega honours the actual per-axis dimensions: on anisotropic
  // chamber grids (129×129×9) the longest-side model formula over-relaxes
  // the short axis and slows convergence.
  const double omega =
      opts.omega > 0.0 ? opts.omega : optimal_omega(phi.nx(), phi.ny(), phi.nz());
  apply_dirichlet(phi, bc);
  std::shared_ptr<core::ThreadPool> owned;
  core::ThreadPool* pool = resolve_pool(opts, owned);
  std::vector<double> plane_scratch(pool != nullptr ? phi.nz() : 0, 0.0);
  const PlaneRunner planes{pool, opts.threads, &plane_scratch};
  const stencil::Dims dims{phi.nx(), phi.ny(), phi.nz()};
  const double h2 = phi.spacing() * phi.spacing();
  double* d = phi.data().data();
  const std::uint8_t* fixed = bc.fixed.data();

  // Convergence is tested every second sweep on both the serial and the
  // threaded path: identical stopping schedules keep sweep counts and
  // results bitwise equal across thread counts, and the pairing lets the
  // serial path pipeline two sweeps through one memory pass.
  const std::vector<std::uint8_t> plane_fixed = classify_planes(fixed, dims);
  const std::uint8_t* pf = plane_fixed.data();
  const auto parallel_sweep = [&](bool track) {
    const double u0 = planes.run_max_z(dims.nz, [&](std::size_t k, bool shared_z) {
      return stencil::smooth_plane(d, fixed, rhs, h2, dims, omega, 0, k, pf[k] != 0,
                                   track, shared_z);
    });
    const double u1 = planes.run_max_z(dims.nz, [&](std::size_t k, bool shared_z) {
      return stencil::smooth_plane(d, fixed, rhs, h2, dims, omega, 1, k, pf[k] != 0,
                                   track, shared_z);
    });
    return std::max(u0, u1);
  };
  SolveStats stats;
  std::size_t s = 0;
  while (s < opts.max_sweeps) {
    if (s + 2 <= opts.max_sweeps) {
      double u2;
      if (pool == nullptr) {
        u2 = fused_sweep_pair(d, fixed, pf, rhs, h2, dims, omega);
      } else {
        parallel_sweep(false);
        u2 = parallel_sweep(true);
      }
      s += 2;
      stats.sweeps = s;
      stats.final_update = u2;
    } else {
      stats.final_update = pool == nullptr
                               ? fused_sweep(d, fixed, pf, rhs, h2, dims, omega)
                               : parallel_sweep(true);
      ++s;
      stats.sweeps = s;
    }
    if (stats.final_update < opts.tolerance) {
      stats.converged = true;
      break;
    }
  }
  stats.total_sweeps = stats.sweeps;
  stats.fine_equiv_sweeps = static_cast<double>(stats.sweeps) * ratio;
  return stats;
}

bool can_coarsen_dims(std::size_t nx, std::size_t ny, std::size_t nz) {
  auto ok = [](std::size_t n) { return n >= 5 && (n - 1) % 2 == 0; };
  return ok(nx) && ok(ny) && ok(nz);
}

bool can_coarsen(const Grid3& g) { return can_coarsen_dims(g.nx(), g.ny(), g.nz()); }

// Restrict BC by injection at coincident nodes.
void restrict_bc(const Grid3& fine, const DirichletBc& fine_bc, const Grid3& coarse,
                 DirichletBc& coarse_bc) {
  for (std::size_t k = 0; k < coarse.nz(); ++k)
    for (std::size_t j = 0; j < coarse.ny(); ++j)
      for (std::size_t i = 0; i < coarse.nx(); ++i) {
        const std::size_t fn = fine.index_unchecked(2 * i, 2 * j, 2 * k);
        const std::size_t cn = coarse.index_unchecked(i, j, k);
        coarse_bc.fixed[cn] = fine_bc.fixed[fn];
        coarse_bc.value[cn] = fine_bc.value[fn];
      }
}

// ------------------------------------------------------- cascade (oracle) ----

// Coarse-to-fine nested iteration: improves the initial guess only, never
// corrects fine-grid error on a coarse grid. Kept as the equivalence and
// regression oracle for the V-cycle.
SolveStats multilevel_solve(Grid3& phi, const DirichletBc& bc, const SolverOptions& opts,
                            std::size_t& total_sweeps, double& fine_equiv, double ratio) {
  if (can_coarsen(phi)) {
    Grid3 coarse((phi.nx() - 1) / 2 + 1, (phi.ny() - 1) / 2 + 1, (phi.nz() - 1) / 2 + 1,
                 phi.spacing() * 2.0);
    DirichletBc coarse_bc = DirichletBc::all_free(coarse);
    restrict_bc(phi, bc, coarse, coarse_bc);
    // Inject current fine values as the coarse initial guess.
    for (std::size_t k = 0; k < coarse.nz(); ++k)
      for (std::size_t j = 0; j < coarse.ny(); ++j)
        for (std::size_t i = 0; i < coarse.nx(); ++i)
          coarse.at_unchecked(i, j, k) = phi.at_unchecked(2 * i, 2 * j, 2 * k);
    multilevel_solve(coarse, coarse_bc, opts, total_sweeps, fine_equiv, ratio / 8.0);
    // Prolong: trilinear interpolation of the coarse solution as the fine guess.
    const double h = phi.spacing();
    for (std::size_t k = 0; k < phi.nz(); ++k)
      for (std::size_t j = 0; j < phi.ny(); ++j)
        for (std::size_t i = 0; i < phi.nx(); ++i) {
          const std::size_t n = phi.index_unchecked(i, j, k);
          if (bc.fixed[n]) continue;
          phi.data()[n] = coarse.sample({static_cast<double>(i) * h,
                                         static_cast<double>(j) * h,
                                         static_cast<double>(k) * h});
        }
  }
  SolveStats stats = sor_solve(phi, bc, nullptr, opts, ratio);
  total_sweeps += stats.sweeps;
  fine_equiv += stats.fine_equiv_sweeps;
  return stats;
}

// ----------------------------------------------------------------- V-cycle ----

// A 27-point variable-coefficient smoothing sweep touches ~27/7 of the
// memory/flops of a fine 7-point sweep per node; weight its work accordingly
// in the fine-equivalent accounting (see docs/perf.md).
constexpr double kVarSweepCost = 27.0 / 7.0;

// FMG prolongation: tricubic interpolation of the coarse-level solution
// REPLACING the free nodes of fine plane kf (nested iteration overwrites
// the finer level's initial guess, exactly like the cascade). The upward
// FMG transfer is higher order than the V-cycle's correction transfer
// (trilinear) so the interpolation error of the start does not dominate the
// first fine cycles; 4-tap cubic weights (-1, 9, 9, -1)/16 per odd axis,
// mirrored across faces to match the Neumann symmetry. Writes only plane kf,
// reads the coarse grid: safe to fan over planes.
void fmg_prolong_plane(const double* coarse, stencil::Dims c, double* fine,
                       const std::uint8_t* fine_fixed, stencil::Dims f, std::size_t kf) {
  const auto taps = [](std::size_t gf, std::size_t n, std::size_t idx[4],
                       double w[4]) -> int {
    if (gf % 2 == 0) {
      idx[0] = gf / 2;
      w[0] = 1.0;
      return 1;
    }
    const std::ptrdiff_t i0 = static_cast<std::ptrdiff_t>((gf - 1) / 2);
    idx[0] = stencil::mirror_index(i0 - 1, n);
    idx[1] = static_cast<std::size_t>(i0);
    idx[2] = static_cast<std::size_t>(i0) + 1;
    idx[3] = stencil::mirror_index(i0 + 2, n);
    w[0] = w[3] = -1.0 / 16.0;
    w[1] = w[2] = 9.0 / 16.0;
    return 4;
  };
  std::size_t ks[4], js[4], is[4];
  double wk[4], wj[4], wi[4];
  const int nk = taps(kf, c.nz, ks, wk);
  for (std::size_t jf = 0; jf < f.ny; ++jf) {
    const int nj = taps(jf, c.ny, js, wj);
    for (std::size_t i = 0; i < f.nx; ++i) {
      const std::size_t n = (kf * f.ny + jf) * f.nx + i;
      if (fine_fixed[n]) continue;
      const int ni = taps(i, c.nx, is, wi);
      double acc = 0.0;
      for (int a = 0; a < nk; ++a)
        for (int b = 0; b < nj; ++b) {
          const double* row = coarse + (ks[a] * c.ny + js[b]) * c.nx;
          double part = 0.0;
          for (int d = 0; d < ni; ++d) part += wi[d] * row[is[d]];
          acc += wk[a] * wj[b] * part;
        }
      fine[n] = acc;
    }
  }
}

// One level of the V-cycle as raw views over either the caller's fine grid
// or a workspace level.
struct LevelView {
  double* phi = nullptr;
  const std::uint8_t* fixed = nullptr;
  const double* rhs = nullptr;   // null on the fine Laplace level
  double* rhs_store = nullptr;   // restriction target (workspace levels only)
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
  VcycleDriver(std::vector<LevelView> views, PlaneRunner planes,
               const SolverOptions& opts, SolveStats& stats)
      : views_(std::move(views)), planes_(planes), opts_(opts), stats_(stats),
        // Smoothing wants mild over-relaxation, not the near-2 plain-SOR
        // optimum (which barely damps high frequencies): 1.15 measured best
        // on the cage-electrode workload across 33³..65³.
        omega_(opts.omega > 0.0 ? opts.omega : 1.15) {}

  // Runs one V-cycle from the finest level; returns the last fine max update.
  double cycle() { return cycle_at(views_[0], 0); }

  // Full-multigrid start: nested iteration in the injected-BC frame.
  // The fine problem (Dirichlet values and all) is injected down the level
  // chain, the coarsest level is solved nearly exactly, and on the way up
  // each level gets `opts.fmg_level_cycles` V-cycles — the level itself
  // smoothing with the injected-BC 7-point operator, its error corrections
  // running down the regular Galerkin sub-hierarchy — before its solution is
  // prolonged (tricubic) to the next finer level. Keeping the Dirichlet
  // VALUES on every level is what makes the start effective: an error-frame
  // (residual-restriction) start must reconstruct the boundary layers from
  // restricted single-node source layers, which full weighting smears — the
  // measured head start was ~1.6×, versus several cycles for this frame.
  // `cviews` are the per-level injected-BC views (index 0 = the fine view).
  void fmg_start(const std::vector<LevelView>& cviews) {
    const std::size_t last = views_.size() - 1;
    // Inject the problem down the chain: node (i,j,k) of level l coincides
    // with node (2i,2j,2k) of level l-1, so values (boundary and initial
    // guess alike) inject level by level.
    for (std::size_t l = 1; l <= last; ++l) {
      const LevelView& c = cviews[l];
      const LevelView& p = cviews[l - 1];
      planes_.run(c.dims.nz, [&](std::size_t k) {
        for (std::size_t j = 0; j < c.dims.ny; ++j)
          for (std::size_t i = 0; i < c.dims.nx; ++i)
            c.phi[(k * c.dims.ny + j) * c.dims.nx + i] =
                p.phi[(2 * k * p.dims.ny + 2 * j) * p.dims.nx + 2 * i];
      });
      if (c.rhs != nullptr) {
        // Poisson: restrict the load down the chain by full weighting.
        planes_.run(c.dims.nz, [&](std::size_t kc) {
          stencil::restrict_plane(l == 1 ? views_[0].rhs : cviews[l - 1].rhs_store,
                                  p.dims, c.rhs_store, c.fixed, c.dims, kc);
        });
      }
      stats_.fine_equiv_sweeps += c.ratio;
    }
    for (std::size_t l = last; l >= 1; --l) {
      const LevelView& v = cviews[l];
      if (l == last)
        solve_coarsest(v);
      else
        for (std::size_t n = 0; n < opts_.fmg_level_cycles; ++n) cycle_at(v, l);
      const LevelView& up = cviews[l - 1];
      planes_.run(up.dims.nz, [&](std::size_t kf) {
        fmg_prolong_plane(v.phi, v.dims, up.phi, up.fixed, up.dims, kf);
      });
      stats_.fine_equiv_sweeps += up.ratio;
    }
  }

  // Residual norm of the finest level (update units; no residual store).
  double fine_residual_norm() {
    const LevelView& v = views_.front();
    stats_.fine_equiv_sweeps += v.ratio;
    return planes_.run_max(v.dims.nz, [&](std::size_t k) {
      return stencil::residual_plane(v.phi, v.fixed, v.rhs, nullptr, v.h2, v.dims, k);
    });
  }

 private:
  // Constant-coefficient smoothing for the finest (7-point Laplacian) level.
  double smooth_const(const LevelView& v, std::size_t sweeps, double omega,
                      bool count_fine) {
    double update = 0.0;
    std::size_t s = 0;
    while (s < sweeps) {
      if (planes_.pool == nullptr && s + 2 <= sweeps) {
        update = fused_sweep_pair(v.phi, v.fixed, v.plane_fixed, v.rhs, v.h2, v.dims,
                                  omega);
        s += 2;
      } else if (planes_.pool == nullptr) {
        update = fused_sweep(v.phi, v.fixed, v.plane_fixed, v.rhs, v.h2, v.dims, omega);
        ++s;
      } else {
        for (int color = 0; color < 2; ++color) {
          const double u =
              planes_.run_max_z(v.dims.nz, [&](std::size_t k, bool shared_z) {
                return stencil::smooth_plane(v.phi, v.fixed, v.rhs, v.h2, v.dims, omega,
                                             color, k, v.plane_fixed[k] != 0, true,
                                             shared_z);
              });
          update = std::max(color == 0 ? 0.0 : update, u);
        }
        ++s;
      }
    }
    stats_.total_sweeps += sweeps;
    if (count_fine) stats_.sweeps += sweeps;
    stats_.fine_equiv_sweeps += static_cast<double>(sweeps) * v.ratio;
    return update;
  }

  // Variable-coefficient (Galerkin) smoothing for coarse levels. The
  // 27-point stencil couples same-color nodes of adjacent planes, so each
  // half-sweep is split into (plane parity) subsweeps — equal-parity planes
  // are uncoupled, keeping the plane fan-out bitwise identical to serial.
  double smooth_var(const LevelView& v, std::size_t sweeps, double omega) {
    double update = 0.0;
    for (std::size_t s = 0; s < sweeps; ++s) {
      update = 0.0;
      for (int color = 0; color < 2; ++color)
        for (std::size_t parity = 0; parity < 2; ++parity) {
          const double u = planes_.run_max(v.dims.nz, [&](std::size_t k) {
            if (k % 2 != parity) return 0.0;
            // Uniform coarse rows take the broadcast-coefficient fast path
            // (bit-identical; see smooth_plane_var_bcast).
            if (v.row_uniform != nullptr)
              return stencil::smooth_plane_var_bcast(v.phi, v.fixed, v.coef,
                                                     v.row_uniform, v.ustencil, v.uinv,
                                                     v.inv_diag, v.rhs, v.dims, omega,
                                                     color, k);
            return stencil::smooth_plane_var(v.phi, v.fixed, v.coef, v.inv_diag, v.rhs,
                                             v.dims, omega, color, k);
          });
          update = std::max(update, u);
        }
    }
    stats_.total_sweeps += sweeps;
    stats_.fine_equiv_sweeps += static_cast<double>(sweeps) * v.ratio * kVarSweepCost;
    return update;
  }

  double smooth(const LevelView& v, std::size_t sweeps, double omega, bool count_fine) {
    if (v.coef != nullptr) return smooth_var(v, sweeps, omega);
    return smooth_const(v, sweeps, omega, count_fine);
  }

  // Solve the coarsest level nearly exactly: it is a few thousand nodes at
  // most, so the cost is negligible next to one fine sweep.
  void solve_coarsest(const LevelView& v) {
    const double omega = optimal_omega(v.dims.nx, v.dims.ny, v.dims.nz);
    double first = -1.0;
    for (std::size_t s = 0; s < 100; ++s) {
      const double u = smooth(v, 1, omega, false);
      if (first < 0.0) first = u;
      if (u == 0.0 || u < 1e-10 * first) break;
    }
  }

  // One V-cycle rooted at level l, smoothing the given view at the root
  // (the regular Galerkin view, or an injected-BC 7-point view during the
  // FMG upward pass); sub-level corrections always run the Galerkin chain.
  double cycle_at(const LevelView& v, std::size_t l) {
    if (l + 1 == views_.size()) {
      solve_coarsest(v);
      return 0.0;
    }
    const LevelView& c = views_[l + 1];
    smooth(v, opts_.pre_smooth, omega_, l == 0);
    // Residual, restricted by full weighting, becomes the coarse RHS of the
    // error equation A_{l+1} e = R r with e = 0 at restricted Dirichlet
    // nodes. A_{l+1} is the Galerkin product R·A_l·P, so features thinner
    // than the coarse spacing stay represented in its coefficients and the
    // correction needs no damping safeguards.
    if (v.coef != nullptr) {
      planes_.run(v.dims.nz, [&](std::size_t k) {
        stencil::residual_plane_var(v.phi, v.fixed, v.coef, v.rhs, v.res, v.dims, k);
      });
      stats_.fine_equiv_sweeps += v.ratio * kVarSweepCost;
    } else {
      planes_.run(v.dims.nz, [&](std::size_t k) {
        stencil::residual_plane(v.phi, v.fixed, v.rhs, v.res, v.h2, v.dims, k);
      });
      stats_.fine_equiv_sweeps += v.ratio;
    }
    planes_.run(c.dims.nz, [&](std::size_t kc) {
      stencil::restrict_plane(v.res, v.dims, c.rhs_store, c.fixed, c.dims, kc);
    });
    std::fill_n(c.phi, c.dims.size(), 0.0);
    stats_.fine_equiv_sweeps += c.ratio;
    cycle_at(c, l + 1);
    // Plain multigrid correction: phi += P·e.
    planes_.run(v.dims.nz, [&](std::size_t kf) {
      stencil::prolong_correct_plane(c.phi, c.dims, v.phi, v.fixed, v.dims, kf);
    });
    stats_.fine_equiv_sweeps += v.ratio;
    return smooth(v, opts_.post_smooth, omega_, l == 0);
  }

  std::vector<LevelView> views_;
  PlaneRunner planes_;
  const SolverOptions& opts_;
  SolveStats& stats_;
  double omega_;
};

SolveStats vcycle_solve(Grid3& phi, const DirichletBc& bc, const double* fine_rhs,
                        const SolverOptions& opts, MultigridWorkspace* workspace,
                        bool fmg) {
  MultigridWorkspace local;
  MultigridWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.prepare(phi, bc);
  if (ws.levels().empty())  // hierarchy degenerate (no Dirichlet node at all)
    return sor_solve(phi, bc, fine_rhs, opts, 1.0);

  std::shared_ptr<core::ThreadPool> owned;
  core::ThreadPool* pool = resolve_pool(opts, owned);
  const PlaneRunner planes{pool, opts.threads, &ws.plane_scratch()};

  std::vector<LevelView> views;
  views.reserve(ws.levels().size() + 1);
  const double fine_nodes = static_cast<double>(phi.size());
  views.push_back({phi.data().data(), bc.fixed.data(), fine_rhs, nullptr,
                   ws.fine_residual().data(), ws.fine_plane_fixed().data(), nullptr,
                   nullptr,
                   {phi.nx(), phi.ny(), phi.nz()},
                   phi.spacing() * phi.spacing(), 1.0});
  for (MultigridWorkspace::Level& lev : ws.levels()) {
    LevelView lv{lev.e.data().data(), lev.fixed.data(), lev.rhs.data(),
                 lev.rhs.data(), lev.res.data(), lev.plane_fixed.data(),
                 lev.stencil.data(), lev.inv_diag.data(),
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

  // Injected-BC views for the FMG upward pass: same storage, but each level
  // smooths its own 7-point re-discretization (coef = null) — the Galerkin
  // stencils eliminate the Dirichlet columns, so they cannot see the
  // injected boundary VALUES the nested-iteration start relies on. For the
  // Laplace case the level rhs is null (the same array later serves as the
  // restriction target of the cycle phase).
  std::vector<LevelView> cviews;
  if (fmg) {
    cviews = views;
    for (std::size_t l = 1; l < cviews.size(); ++l) {
      cviews[l].coef = nullptr;
      cviews[l].inv_diag = nullptr;
      if (fine_rhs == nullptr) cviews[l].rhs = nullptr;
    }
  }

  SolveStats stats;
  VcycleDriver driver(std::move(views), planes, opts, stats);
  const double target = opts.cycle_tolerance > 0.0 ? opts.cycle_tolerance : opts.tolerance;
  if (fmg) {
    // Nested-iteration start; the fine grid may already be inside tolerance
    // before the first full cycle.
    driver.fmg_start(cviews);
    stats.final_residual = driver.fine_residual_norm();
    stats.converged = stats.final_residual < target;
  }
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
  // is not a mid-flight bail-out. Skipped when the caller left no sweep
  // budget (max_sweeps = 0): the cascade's prolongation without any
  // smoothing would only corrupt the cycle's iterate.
  if (!stats.converged && opts.max_sweeps > 0) {
    if (fine_rhs == nullptr) {
      std::size_t total = 0;
      double fine_equiv = 0.0;
      const SolveStats tail = multilevel_solve(phi, bc, opts, total, fine_equiv, 1.0);
      stats.sweeps += tail.sweeps;
      stats.total_sweeps += total;
      stats.fine_equiv_sweeps += fine_equiv;
      stats.final_update = tail.final_update;
      stats.converged = tail.converged;
    } else {
      // The cascade is Laplace-only; Poisson problems finish on plain SOR.
      const SolveStats tail = sor_solve(phi, bc, fine_rhs, opts, 1.0);
      stats.sweeps += tail.sweeps;
      stats.total_sweeps += tail.total_sweeps;
      stats.fine_equiv_sweeps += tail.fine_equiv_sweeps;
      stats.final_update = tail.final_update;
      stats.converged = tail.converged;
    }
    stats.final_residual = residual_norm(phi, bc, fine_rhs);
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
    plane_scratch_.assign(fine.nz(), 0.0);
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
  // Every exit funnels through the accounting fold so a shared workspace's
  // cumulative counters stay an exact sum of the returned SolveStats.
  const auto finish = [workspace](SolveStats stats) {
    if (workspace != nullptr) workspace->accounting().account(stats);
    return stats;
  };
  if (opts.multilevel && can_coarsen(phi)) {
    if (opts.cycle != CycleType::cascade)
      return finish(vcycle_solve(phi, bc, nullptr, opts, workspace,
                                 opts.cycle == CycleType::fmg));
    std::size_t total = 0;
    double fine_equiv = 0.0;
    SolveStats stats = multilevel_solve(phi, bc, opts, total, fine_equiv, 1.0);
    stats.total_sweeps = total;
    stats.fine_equiv_sweeps = fine_equiv;
    return finish(stats);
  }
  return finish(sor_solve(phi, bc, nullptr, opts, 1.0));
}

SolveStats solve_poisson(Grid3& phi, const Grid3& f, const DirichletBc& bc,
                         const SolverOptions& opts, MultigridWorkspace* workspace) {
  BIOCHIP_REQUIRE(bc.fixed.size() == phi.size() && bc.value.size() == phi.size(),
                  "Dirichlet BC size does not match grid");
  BIOCHIP_REQUIRE(f.same_shape(phi), "Poisson RHS shape does not match grid");
  BIOCHIP_REQUIRE(phi.nx() >= 2 && phi.ny() >= 2 && phi.nz() >= 2,
                  "solver needs at least 2 nodes per axis");
  apply_dirichlet(phi, bc);
  const auto finish = [workspace](SolveStats stats) {
    if (workspace != nullptr) workspace->accounting().account(stats);
    return stats;
  };
  // The cascade is a Laplace-only oracle; any multilevel Poisson solve goes
  // through the V-cycle (the error equation needs a true residual cycle).
  if (opts.multilevel && can_coarsen(phi))
    return finish(vcycle_solve(phi, bc, f.data().data(), opts, workspace,
                               opts.cycle == CycleType::fmg));
  return finish(sor_solve(phi, bc, f.data().data(), opts, 1.0));
}

double laplacian_residual(const Grid3& phi, const DirichletBc& bc) {
  return residual_norm(phi, bc, nullptr);
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
  const double h2 = phi.spacing() * phi.spacing();
  const std::size_t bnx = b.i1 - b.i0 + 1;
  const std::size_t bny = b.j1 - b.j0 + 1;
  const std::size_t bnz = b.k1 - b.k0 + 1;
  // Auto-omega sized for the *window*, not the grid: the frozen box boundary
  // makes the correction a Dirichlet problem of the box's own dimensions.
  const double omega = opts.omega > 0.0 ? opts.omega : optimal_omega(bnx, bny, bnz);
  std::shared_ptr<core::ThreadPool> owned;
  core::ThreadPool* pool = resolve_pool(opts, owned);
  if (pool != nullptr && plane_scratch_.size() < bnz) plane_scratch_.resize(bnz);
  const PlaneRunner planes{pool, opts.threads, &plane_scratch_};
  const std::uint8_t* fixed = bc.fixed.data();

  // Box-restricted red-black SOR. Same-color nodes of different planes are
  // independent under the 7-point stencil, so the per-color plane fan-out is
  // race-free and bitwise identical to the serial loop for every thread
  // count; convergence is tested every sweep on both paths (the windowed
  // kernel has no fused serial pair, so the schedules already match).
  const double tol = opts.incremental.tolerance;
  const std::size_t cap = std::max<std::size_t>(std::size_t{1}, opts.incremental.max_sweeps);
  while (stats.sweeps < cap) {
    double update = 0.0;
    for (int color = 0; color < 2; ++color) {
      const double u = planes.run_max(bnz, [&](std::size_t kk) {
        return stencil::smooth_plane_box(d, fixed, nullptr, h2, dims, omega, color,
                                         b.k0 + kk, b.i0, b.i1, b.j0, b.j1);
      });
      update = std::max(update, u);
    }
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
  const double h2 = phi.spacing() * phi.spacing();
  double worst = 0.0;
  for (std::size_t k = b.k0; k <= b.k1; ++k)
    worst = std::max(worst,
                     stencil::residual_plane_box(phi.data().data(), bc.fixed.data(),
                                                 nullptr, h2, dims, k, b.i0, b.i1,
                                                 b.j0, b.j1));
  return worst;
}

}  // namespace biochip::field
