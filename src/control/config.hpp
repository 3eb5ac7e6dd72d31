#pragma once
/// \file config.hpp
/// \brief Configuration of the closed-loop control subsystem.
///
/// One `ControlConfig` parameterizes the whole sense → track → replan →
/// actuate loop: open or closed loop, defect-aware planning, the rescue
/// maneuver, health monitoring, the tracked field, and the per-episode fault
/// injection that makes closed-loop runs exercise the recovery paths. The
/// loop's fixed settings (frames per tick, detection threshold, tracker
/// hysteresis, supervision timings) are named constants beside the code that
/// reads them. Everything is deterministic given the episode's RNG stream:
/// random escapes draw from counter-based `Rng::fork` streams, so runs are
/// bitwise reproducible across serial and pooled execution.

#include <cstddef>
#include <utility>
#include <vector>

#include "control/health.hpp"
#include "field/solver.hpp"

namespace biochip::control {

struct ControlConfig {
  /// false = open-loop baseline: same physics and fault injection, but no
  /// sensing, tracking or supervision — the committed plan runs blind.
  bool closed_loop = true;

  /// Plan the initial routes against the defect map's blocked mask. false
  /// starts from the same defect-blind plan as the open-loop baseline and
  /// relies on the online lookahead replanner — the harder exercise.
  bool defect_aware_initial = true;

  /// Per-cage per-tick probability of an injected cell escape.
  double escape_rate = 0.0;
  /// Scripted escapes as (tick, cage id) — deterministic loss events for
  /// tests and demos, independent of the random rate.
  std::vector<std::pair<int, int>> forced_escapes;
  /// Fully scripted escapes with an explicit heading, for tests that need
  /// the cell to land at a known spot (e.g. inside a blocked neighborhood
  /// to exercise the rescue maneuver). Fired like `forced_escapes` but with
  /// the given angle [rad] and displacement [pitches] instead of drawing
  /// them from the fault stream.
  struct DirectedEscape {
    int tick = 0;
    int cage_id = 0;
    double angle = 0.0;
    double distance_pitches = 2.5;
  };
  std::vector<DirectedEscape> directed_escapes;

  /// Ring of pixels a cage site needs functional (`chip::site_usable`):
  /// defines both the physical trap-holds test and the routing blocked mask.
  int defect_ring = 1;

  /// Rescue maneuver for cells lost into a fully blocked neighborhood: an
  /// *empty* cage may traverse sites whose own pixel is healthy even when
  /// the counter-phase ring is not (there is no cell aboard to lose), park
  /// adjacent to the stray cell, trap it, and drag the basin back across the
  /// defect boundary before resuming normal routing. Off by default — it
  /// deliberately bends the ring-usability rule, so it must be opted into.
  bool rescue = false;

  /// Per-chamber watchdog + degradation ladder (`control/health.hpp`).
  HealthConfig health;

  /// Tracked whole-chamber potential (field/incremental.hpp): grid nodes per
  /// electrode pitch for the live Laplace solution the runtime maintains
  /// alongside the cage surrogate. 0 (default) = off — no grid is allocated
  /// and the tick path is unchanged. When on, each tick's actuation writes a
  /// per-electrode drive (+1 on every site whose trap ground-truth-functions,
  /// 0 elsewhere) and the tracker re-solves only the windows around
  /// electrodes whose drive changed, re-anchoring with a full solve (the
  /// V-cycle unless `field_tracking.multilevel` is off) on the
  /// `field_tracking.incremental.reanchor_period` cadence.
  /// Deterministic: the drive depends only on simulation state, and each
  /// chamber's field solves run serially on the thread that ticks it.
  std::size_t field_tracking_nodes_per_pitch = 0;
  /// Solver policy of the tracked field (tolerances, cycle cap, incremental
  /// block).
  field::SolverOptions field_tracking;
};

}  // namespace biochip::control
