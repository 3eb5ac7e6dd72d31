#pragma once
/// \file config.hpp
/// \brief Configuration of the closed-loop control subsystem.
///
/// One `ControlConfig` parameterizes the whole sense → track → replan →
/// actuate loop: sensing cadence and threshold, tracker hysteresis,
/// supervision policy knobs, and the per-episode fault injection that makes
/// closed-loop runs exercise the recovery paths. Everything is deterministic
/// given the episode's RNG stream: random escapes draw from counter-based
/// `Rng::fork` streams, so runs are bitwise reproducible across serial and
/// pooled execution.

#include <cstddef>
#include <utility>
#include <vector>

#include "control/health.hpp"
#include "field/solver.hpp"

namespace biochip::control {

/// Occupancy-tracker hysteresis: a track changes state only after N
/// *consecutive* frames agree, so a single noisy frame (one missed
/// detection, one stray cluster) never flips it.
struct TrackerConfig {
  int lost_after_misses = 3;    ///< occupied → lost after this many misses
  int occupied_after_hits = 2;  ///< (re)capture confirmed after this many hits
  double gate_radius = 0.0;     ///< association gate [m]; 0 = capture radius
};

struct ControlConfig {
  /// false = open-loop baseline: same physics and fault injection, but no
  /// sensing, tracking or supervision — the committed plan runs blind.
  bool closed_loop = true;

  /// CDS frames averaged per supervisory tick (√n noise reduction). A
  /// levitated lymphocyte reads ~1.9σ per CDS frame on the paper pixel, so
  /// 16 frames put the peak ~7.4σ above the noise — comfortably over the
  /// detection threshold below while one tick stays far shorter than the
  /// 0.4 s site period (claim C4's time-for-quality trade, spent on-line).
  std::size_t frames_per_tick = 16;
  /// Detection threshold in multiples of the averaged-frame noise σ.
  double threshold_sigma = 4.0;
  /// Stuck-cage pixels read this many thresholds of fake ΔC (negative).
  double stuck_cage_thresholds = 4.0;

  /// Steady-state sense slow-down (the healthy-direction counterpart of the
  /// health ladder's degraded frames boost): while every supervised cage is
  /// confirmed occupied and on its nominal leg (en route or delivered — no
  /// pause, recapture or stall business) a kNormal chamber divides
  /// `frames_per_tick` by this factor, spending less sensing time when
  /// nothing is suspect. The detection threshold tracks the averaged-noise σ
  /// as always, so the threshold/noise ratio is unchanged; pick a divisor
  /// that keeps the per-frame signal margin (see `frames_per_tick`) above
  /// the threshold. 1 = off (bitwise-identical legacy behavior). The
  /// degraded boost always wins over the slow-down.
  std::size_t steady_frames_divisor = 1;

  /// Controller-side bad-pixel masking (standard calibration practice): the
  /// self-test defect map is controller knowledge, so known-bad pixels are
  /// zeroed before thresholding. Disabling it exposes the raw sensor faults
  /// — every stuck-cage pixel then reads as a permanently parked phantom
  /// particle (`stuck_cage_thresholds`) — the ablation that shows why the
  /// masking is load-bearing.
  bool bad_pixel_masking = true;

  TrackerConfig tracker;

  /// Tick budget; 0 = auto (scaled from the initial plan's makespan).
  int max_ticks = 0;
  /// Committed-path steps checked ahead against defective sites each tick.
  int lookahead = 2;
  /// Plan the initial routes against the defect map's blocked mask. false
  /// starts from the same defect-blind plan as the open-loop baseline and
  /// relies on the online lookahead replanner — the harder exercise.
  bool defect_aware_initial = true;
  /// Consecutive actuation stalls (separation clash with a deviating cage)
  /// after which the supervisor re-routes the stalled cage.
  int stall_replan_after = 2;
  /// Ticks a cage waits after a failed replan attempt before retrying. Even
  /// with the router's fast-fail prechecks, a temporally congested replan
  /// costs a real time-expanded search; hammering it every tick is what
  /// would make a stuck episode O(sites × horizon) per tick.
  int replan_backoff = 3;

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
  /// Injected escapes displace the cell this many pitches (must exceed the
  /// capture radius or the trap immediately pulls the cell back).
  double escape_distance_pitches = 2.5;

  /// Max cage-to-detection distance [pitches] for recapture targeting.
  int recapture_search_pitches = 8;
  /// Ticks a recapturing cage waits at the capture site before giving up on
  /// a stale fix and re-acquiring a fresh one.
  int recapture_patience = 12;

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
  /// per-electrode drive (+`field_tracking_drive` on every site whose trap
  /// ground-truth-functions, 0 elsewhere) and the tracker re-solves only the
  /// windows around electrodes whose drive changed, re-anchoring with a full
  /// solve (the V-cycle unless `field_tracking.multilevel` is off) on the
  /// `field_tracking.incremental.reanchor_period` cadence.
  /// Deterministic: the drive depends only on simulation state, and each
  /// chamber's field solves run serially on the thread that ticks it.
  std::size_t field_tracking_nodes_per_pitch = 0;
  /// Drive written to a live (ground-truth-functional) cage-site electrode.
  double field_tracking_drive = 1.0;
  /// Solver policy of the tracked field (tolerances, cycle cap, incremental
  /// block).
  field::SolverOptions field_tracking;
};

}  // namespace biochip::control
