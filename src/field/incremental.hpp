#pragma once
/// \file incremental.hpp
/// \brief Incremental local field updates: cached global solution plus
/// windowed dirty-region corrections, re-anchored by a periodic full solve.
///
/// The chip moves one cage a few pitch lengths per actuation step, so
/// consecutive drive patterns differ at O(moved cages) electrodes while the
/// whole-array solve the pattern nominally requires is O(grid). This class
/// exploits that locality: it caches the global Laplace solution for the
/// current drive vector and, when a drive update changes only a few
/// electrodes, relaxes a region-of-influence window around each changed
/// footprint (`MultigridWorkspace::solve_window`) instead of re-solving the
/// array. Windows that overlap or are stencil-adjacent merge into one box
/// before relaxing. The neglected exterior correction decays like a dipole
/// field past the window edge; a periodic full solve (`solve_laplace`, the
/// V-cycle unless `SolverOptions::multilevel` is off) re-anchors the cached
/// solution and bounds the accumulated drift. Re-anchor solves restart from
/// a zeroed interior, so their result is bitwise identical to a cold full
/// solve of the same boundary data — which is exactly the equivalence oracle
/// the test harness compares against (`tests/test_field_incremental.cpp`).
///
/// Determinism: updates are a pure function of the drive sequence — changed
/// electrodes are detected by exact comparison, window clusters merge and
/// relax in ascending electrode order, and every solve runs serially on the
/// calling thread.

#include <cstddef>
#include <vector>

#include "common/grid.hpp"
#include "field/boundary.hpp"
#include "field/solver.hpp"

namespace biochip::field {

/// Tracks the real (single-quadrature) chamber potential for a fixed
/// electrode layout under a changing per-electrode drive vector.
class IncrementalPotential {
 public:
  /// What one `update` call did.
  struct UpdateReport {
    bool reanchored = false;       ///< ran the full-solve oracle this update
    std::size_t changed = 0;       ///< electrodes whose drive changed
    std::size_t windows = 0;       ///< merged window clusters relaxed
    double window_fraction = 0.0;  ///< summed window volume / grid volume
    SolveStats stats;              ///< summed stats of the passes executed
  };

  /// `pitch` is the electrode pitch [m] the window-radius policy
  /// (`opts.incremental.window_radius_pitches`) is quoted in. All electrode
  /// nodes stay Dirichlet for every drive (undriven metal is grounded), so
  /// the fixed mask — and with it the multigrid hierarchy — never changes.
  IncrementalPotential(const ChamberDomain& domain, std::vector<Rect> footprints,
                       bool lid_present, double pitch, const SolverOptions& opts = {});

  std::size_t electrode_count() const { return footprints_.size(); }
  /// The cached global solution for the current drive vector.
  const Grid3& potential() const { return phi_; }
  /// The current boundary condition (mask fixed for the layout's lifetime).
  const DirichletBc& boundary() const { return bc_; }
  /// Cumulative work counters (full vs window solves, window volume
  /// trajectory).
  const SolveAccounting& accounting() const { return workspace_.accounting(); }

  /// Set the per-electrode drives [V] (+ lid drive when a lid is present).
  /// The first call runs a full solve; later calls relax only merged windows
  /// around changed electrodes. Every `opts.incremental.reanchor_period`-th
  /// effective (non-no-op) update — and any lid change, which perturbs the
  /// whole top plane — runs the full solve instead. A call with no changes
  /// is a bitwise no-op and does not advance the re-anchor cadence.
  UpdateReport update(const std::vector<double>& drive, double lid_drive = 0.0);

  /// Force a full re-anchor solve of the current boundary data now.
  SolveStats reanchor();

  /// Independent full solve of the current boundary data from a cold start —
  /// the equivalence oracle. Bitwise equal to the cached solution right
  /// after a re-anchor; within the window policy's tolerance everywhere
  /// else.
  Grid3 oracle() const;

  /// Region-of-influence window of electrode `e`: its footprint's node box,
  /// dilated laterally by the policy radius and extended the same distance
  /// up from the chip plane, clamped to the grid. Exposed for the property
  /// and fuzz suites.
  GridBox electrode_window(std::size_t e) const;

 private:
  SolveStats full_solve();

  ChamberDomain domain_;
  std::vector<Rect> footprints_;
  bool lid_present_;
  SolverOptions opts_;
  std::size_t radius_nodes_;              ///< window dilation radius [nodes]
  Grid3 phi_;                             ///< cached global solution
  DirichletBc bc_;                        ///< current boundary data
  std::vector<std::vector<std::size_t>> nodes_;  ///< chip-plane nodes per electrode
  std::vector<GridBox> footprint_box_;    ///< chip-plane node box per electrode
  std::vector<double> last_drive_;
  double last_lid_ = 0.0;
  bool primed_ = false;                   ///< first full solve done
  std::size_t since_anchor_ = 0;          ///< effective updates since re-anchor
  MultigridWorkspace workspace_;
};

}  // namespace biochip::field
