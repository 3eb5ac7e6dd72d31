#pragma once
/// \file engine.hpp
/// \brief The closed-loop control engine: sense → track → replan → actuate.
///
/// This is the layer the paper's architecture promises but an open-loop
/// reproduction never exercises: the same CMOS die that actuates the DEP
/// cages also *watches* them. Each supervisory tick the engine
///  1. actuates one committed route step per cage (stalling any step that a
///     deviating neighbor makes illegal, and re-timing that cage's plan);
///  2. integrates every particle for one site period — traps parked on
///     defective sites exert no force (`chip::site_usable`), and per-episode
///     fault injection may kick a trapped cell out of its basin;
///  3. synthesizes a CDS frame of the true scene (`sensor::FrameSynthesizer`
///     + `sensor::apply_pixel_faults`), detects, and feeds the occupancy
///     tracker;
///  4. lets the supervisor react: pause the tow of a cage that lost its
///     cell, spawn a recapture maneuver toward the stray detection, re-route
///     online around defective or congested sites via the replanner.
///
/// Determinism contract: all randomness (physics, frame noise, escapes)
/// derives from counter-based `Rng::fork` streams of one episode stream, so
/// a run is bitwise identical for any worker-pool size — including none.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "chip/cage.hpp"
#include "chip/defects.hpp"
#include "chip/fault_injector.hpp"
#include "common/rng.hpp"
#include "control/config.hpp"
#include "control/events.hpp"
#include "control/health.hpp"
#include "control/replanner.hpp"
#include "control/supervisor.hpp"
#include "control/tracker.hpp"
#include "core/simulation.hpp"
#include "field/incremental.hpp"
#include "physics/dynamics.hpp"
#include "sensor/frame.hpp"

namespace biochip::core {
class ThreadPool;
}
namespace biochip::obs {
class TraceRecorder;
}

namespace biochip::control {

/// One cage-to-destination delivery request.
struct CageGoal {
  int cage_id = 0;
  GridCoord destination;
};

/// Outcome of one closed-loop (or open-loop baseline) episode.
struct EpisodeReport {
  bool planned = false;  ///< router found an initial collision-free plan
  bool success = false;  ///< planned && every goal cage delivered (ground truth)
  int ticks = 0;         ///< supervisory ticks executed
  double elapsed = 0.0;  ///< physical episode time [s]
  std::size_t replans = 0;  ///< successful online re-routes
  std::size_t frames_sensed = 0;  ///< CDS frames averaged across all ticks
  /// Period advances of live bodies, by path (`OverdampedIntegrator::advance`):
  /// drawn exactly inside one trap's basin, or stepped substep by substep.
  std::size_t exact_advances = 0;
  std::size_t em_advances = 0;
  std::vector<ControlEvent> events;  ///< full audit trail, chronological
  /// Ground-truth delivery accounting over the goal cages: a cage is
  /// delivered iff it sits at its destination with its cell inside the
  /// capture basin. Every goal cage lands in exactly one list.
  std::vector<int> delivered_ids;
  std::vector<int> failed_ids;
};

/// Runs closed-loop episodes against one chip (controller + engine + imager
/// + defect map). Holds no per-episode state: `run` is re-entrant over the
/// referenced chip state, which it mutates like any manipulation would.
class ClosedLoopEngine {
 public:
  ClosedLoopEngine(chip::CageController& cages, core::ManipulationEngine& engine,
                   const sensor::FrameSynthesizer& imager, const chip::DefectMap& defects,
                   double site_period, ControlConfig config);

  const ControlConfig& config() const { return config_; }

  /// Execute one episode. `bodies` is the full particle array (free cells
  /// included — they are imaged and may be recaptured); `cage_bodies` maps
  /// every tracked cage to its body index; every goal cage must be tracked.
  /// `pool` fans the per-body physics (null = serial); results are bitwise
  /// identical either way.
  EpisodeReport run(const std::vector<CageGoal>& goals,
                    std::vector<physics::ParticleBody>& bodies,
                    const std::vector<std::pair<int, int>>& cage_bodies,
                    Rng stream_base, core::ThreadPool* pool);

  /// One independent episode for `run_episodes`. Episodes must not share
  /// engines (i.e. controllers / manipulation engines / defect maps) or body
  /// arrays: each one mutates its own chip state.
  struct Episode {
    ClosedLoopEngine* engine = nullptr;
    std::vector<CageGoal> goals;
    std::vector<physics::ParticleBody>* bodies = nullptr;
    std::vector<std::pair<int, int>> cage_bodies;
  };

  /// Run many independent episodes concurrently over `pool` in at most
  /// `max_parts` chunks. Episode n runs on `stream_base.fork(n)`; inside the
  /// fan-out each episode's body loop runs serially (nested parallel_for on
  /// one pool would deadlock), so results are bitwise identical for any
  /// `max_parts` (pass 1 for the serial reference).
  static std::vector<EpisodeReport> run_episodes(std::vector<Episode>& episodes,
                                                 Rng stream_base,
                                                 core::ThreadPool& pool,
                                                 std::size_t max_parts = 0);

 private:
  friend class EpisodeRuntime;

  chip::CageController& cages_;
  core::ManipulationEngine& engine_;
  const sensor::FrameSynthesizer& imager_;
  const chip::DefectMap& defects_;
  double site_period_;
  ControlConfig config_;
};

/// The per-tick state of ONE running episode, pulled out of
/// `ClosedLoopEngine::run` so an orchestrator can interleave supervisory
/// ticks of many chambers with arbitration between them. Construction plans
/// the initial routes and builds the control stack (replanner / tracker /
/// supervisor); `tick(t)` executes one supervisory tick; `finish()` does the
/// ground-truth delivery accounting. `ClosedLoopEngine::run` is exactly
/// construct → tick until done → finish, so single-chamber behavior is the
/// steppable path, not a parallel implementation.
///
/// The hand-off hooks (`release_cage` / `admit_cage`) are what make
/// cross-chamber transfers possible: a cage (and its cell body) can leave a
/// running episode and join another one mid-flight, with the destination
/// episode routing it through its own reservation table.
class EpisodeRuntime {
 public:
  /// Plans and builds the control stack. `pool` fans the per-body physics
  /// (null = serial; must be null when the runtime itself is ticked from a
  /// worker thread — nested parallel_for on one pool deadlocks).
  EpisodeRuntime(ClosedLoopEngine& owner, std::vector<CageGoal> goals,
                 std::vector<physics::ParticleBody>& bodies,
                 std::vector<std::pair<int, int>> cage_bodies, Rng stream_base,
                 core::ThreadPool* pool);

  /// False when the initial multi-cage plan failed; the report is already
  /// final (every goal cage failed, with explicit events).
  bool planned() const { return planned_; }
  /// Tick budget of the single-chamber driver (orchestrators set their own).
  int budget() const { return budget_; }

  /// One supervisory tick at absolute tick t (1-based, strictly increasing).
  void tick(int t);

  /// Elided tick of a finished chamber (orchestrator idle-chamber elision):
  /// no actuation, physics, sensing or supervision — the chamber's world is
  /// frozen — but the health monitor still consumes any audit events that
  /// fault hooks recorded since the last observation, so ladder decisions
  /// fire on the same tick as in a non-elided run.
  void idle_tick(int t);

  /// Closed loop: every supervised cage delivered. Open loop: never true
  /// (the committed plan just runs out).
  bool all_delivered() const;
  /// Last tick at which any committed path still moves (open-loop horizon,
  /// grows as hand-offs admit new cages; 0 when the initial plan failed).
  int horizon() const { return replanner_.has_value() ? replanner_->horizon() : 0; }

  /// Ground-truth delivery accounting over the current goal set; call once,
  /// after the last tick. Returns the finished report.
  EpisodeReport finish();

  // ---- orchestration hooks (cross-chamber transfers) ----------------------

  const ControlConfig& config() const { return owner_.config_; }
  /// Supervision mode of a goal cage (throws when not supervised or when
  /// the initial plan failed — no control stack exists then).
  CageMode mode(int cage_id) const;
  bool supervises(int cage_id) const {
    return supervisor_.has_value() && supervisor_->supervises(cage_id);
  }
  GridCoord site(int cage_id) const { return owner_.cages_.site(cage_id); }
  /// True when the defect map leaves this site usable as a cage position.
  /// `site` must lie in the array (checked in Debug builds).
  bool site_ok(GridCoord site) const;
  /// Trap center of a site in this chamber's coordinates.
  Vec3 trap_center(GridCoord site) const;
  /// Append an externally generated event (e.g. transfer arbitration) to
  /// this chamber's audit trail.
  void record_event(const ControlEvent& event) { report_.events.push_back(event); }

  // ---- streaming-service hooks (open-system mode) --------------------------

  /// Drain the audit events the health watchdog has already observed (all of
  /// them when health is disabled). Streaming drivers fold the drained
  /// events into bounded aggregate counters each tick, so an indefinite run
  /// never accumulates an unbounded audit trail; events recorded after the
  /// last health observation stay queued for the next observation. `all`
  /// overrides the watchdog cursor (final drain after the last tick, when no
  /// further observation will run).
  std::vector<ControlEvent> take_observed_events(bool all = false);

  /// CDS frames averaged so far (streaming reports fold this per chamber).
  std::size_t frames_sensed() const { return report_.frames_sensed; }
  /// Successful online re-routes so far (obs gauge fold).
  std::size_t replans() const {
    return replanner_.has_value() ? replanner_->replans() : 0;
  }
  /// Period advances so far by path (obs gauge folds; see EpisodeReport).
  std::size_t exact_advances() const { return report_.exact_advances; }
  std::size_t em_advances() const { return report_.em_advances; }

  /// Attach the timing plane: `tick()` then records actuate / physics /
  /// sense / track / plan phase spans into `trace` on lane `lane`
  /// (docs/observability.md). Null (the default) reads no clock at all.
  /// Spans are wall-clock and nondeterministic by design; they never feed
  /// back into simulation state, so attaching a recorder cannot perturb the
  /// bitwise identity contract.
  void set_trace(obs::TraceRecorder* trace, int lane) {
    trace_ = trace;
    trace_lane_ = lane;
  }
  /// Live delivery goals (streaming harvest: poll `mode()` per goal).
  const std::vector<CageGoal>& goals() const { return goals_; }
  std::size_t active_goal_count() const { return goals_.size(); }
  /// Size of the body array — the resident-memory metric the slot-recycling
  /// regression gates on (bounded under `ControlConfig::recycle_slots`).
  std::size_t resident_bodies() const { return bodies_.size(); }
  /// Compact committed-path history older than tick t-1 (see
  /// `Replanner::compact`). No-op when the initial plan failed.
  void compact_paths(int t) {
    if (replanner_.has_value()) replanner_->compact(t);
  }

  /// Copy of the cell body a goal cage tows (hand-off staging: the
  /// orchestrator repositions the copy into the destination chamber's frame
  /// before offering it to `admit_cage`).
  physics::ParticleBody body_of(int cage_id) const;

  /// Admission test + commit for a cage handed into this chamber at `at`
  /// with delivery goal `goal`, effective from tick `t` (the cage
  /// materializes at `at` after tick t's actuation). Denies (nullopt,
  /// nothing mutated) when the port neighborhood is occupied or reserved, or
  /// when no conflict-free route to `goal` exists right now. On success the
  /// cage is created, its path committed, its track registered, the goal
  /// supervised, and `cell` joins the body array; returns the new cage id.
  std::optional<int> admit_cage(GridCoord at, GridCoord goal, int t,
                                const physics::ParticleBody& cell);

  /// Remove a goal cage from this episode (handed off to another chamber):
  /// destroys the cage, drops its path/track/supervision/goal, deactivates
  /// its body (the cell left the chamber), and returns the body.
  physics::ParticleBody release_cage(int cage_id);

  /// Drop a cage's delivery goal from this episode's accounting without
  /// touching the cage (a transfer that failed permanently is accounted at
  /// the orchestrator level instead).
  void drop_goal(int cage_id);

  /// Give a previously goal-less cage a delivery goal mid-episode (staged
  /// transfer legs waiting for a shared port to free). The cage must be
  /// tracked and hold a committed (parked) path — every cage the episode was
  /// constructed with does. The parked-retry branch routes it next tick.
  void assign_goal(int cage_id, GridCoord goal);

  /// Re-assign a supervised cage's delivery goal (transfer escalated to an
  /// alternate port). Episode accounting follows the new goal.
  void retarget(int cage_id, GridCoord goal);

  // ---- runtime fault lifecycle (chip::FaultInjector integration) ----------

  /// Apply one electrode fault to the live chamber at tick t and record it
  /// as `kFaultInjected`. Announced kinds (`kElectrodeDead`,
  /// `kElectrodeStuckCage`) enter both the truth and the belief defect maps
  /// — the chip's self-test caught them, so routing, admission and pixel
  /// masking react immediately. `kElectrodeSilentDead` enters ground truth
  /// only: the trap stops holding, but the controller must *discover* it
  /// (via the health monitor's loss strikes).
  void apply_electrode_fault(int t, GridCoord site, chip::FaultKind kind);

  /// Transient sensor faults, ground truth only (the controller never knows;
  /// tracker hysteresis and the health ladder absorb the symptoms). A row
  /// dropout zeroes one pixel row for `duration` ticks; a burst writes
  /// phantom ΔC over a `tile`×`tile` region for `duration` ticks. Both
  /// record a `kSensorFault` event.
  void begin_sensor_dropout(int t, int row, int duration);
  void begin_sensor_burst(int t, GridCoord origin, int tile, int duration);

  // ---- tracked whole-chamber field (optional; config-gated) ---------------

  /// Non-null when `ControlConfig::field_tracking_nodes_per_pitch > 0` and
  /// the initial plan succeeded: the live Laplace potential the tick path
  /// maintains incrementally (dirty windows around electrodes whose drive
  /// changed, periodic full re-anchor). Exposes the grid for identity tests
  /// and the cumulative `field::SolveAccounting` for the obs fold.
  const field::IncrementalPotential* field_tracker() const {
    return field_tracker_.has_value() ? &*field_tracker_ : nullptr;
  }

  // ---- health (watchdog) queries ------------------------------------------

  /// Current rung of the degradation ladder (kNormal when disabled).
  HealthState health_state() const {
    return health_.has_value() ? health_->state() : HealthState::kNormal;
  }
  /// Growth of the belief blocked mask over episode start, as a fraction of
  /// the initially usable sites (the health ladder's input).
  double excess_blocked_fraction() const;
  /// Ground-truth defect map (announced + silent faults) — carried across
  /// service episodes by soak drivers (the next self-test announces it all).
  const chip::DefectMap& truth_defects() const { return truth_defects_; }

 private:
  bool body_index_of(int cage_id, std::size_t& out) const;
  void integrate_range(int t, std::size_t nb, std::size_t ne);
  /// True while every supervised cage is confirmed occupied on its nominal
  /// leg — the steady-state sense slow-down predicate.
  bool steady_state() const;
  /// Recompute belief + truth blocked masks from the (mutated) defect maps
  /// and the quarantine mask, and push the belief mask into the replanner.
  void refresh_blocked();
  /// True when ground truth leaves the site's trap functional.
  bool truth_site_ok(GridCoord site) const;
  /// Health observation over the audit events recorded since the last scan.
  void observe_health(int t);
  /// Push this tick's actuation pattern into the tracked field: +drive on
  /// every ground-truth-functional trap site, 0 elsewhere. O(changed
  /// electrodes) windowed solves; a tick whose pattern repeats is a no-op.
  void update_tracked_field(const std::vector<GridCoord>& sites);

  ClosedLoopEngine& owner_;
  core::ThreadPool* pool_;
  std::vector<CageGoal> goals_;
  std::vector<physics::ParticleBody>& bodies_;
  std::vector<std::pair<int, int>> cage_bodies_;
  /// Stable fault-stream slot per `cage_bodies_` entry (kept in sync).
  /// `cage_bodies_` shrinks on hand-off, so indexing fault forks by vector
  /// position would reuse stream ids across ticks; slots are assigned from
  /// a monotone counter and never recycled, keeping (slot, tick) unique.
  std::vector<std::uint64_t> fault_slots_;
  std::uint64_t next_fault_slot_ = 0;
  /// Aligned with `bodies_`; 0 = the cell left this chamber (not integrated,
  /// not imaged). Without `ControlConfig::recycle_slots` bodies are never
  /// erased, so physics fork-stream ids (keyed by slot index) stay monotone
  /// and collision-free. With recycling on, released slots are reused and
  /// the physics stream is keyed by `body_streams_` instead — a persistent
  /// per-admission counter that never repeats across reuse.
  std::vector<std::uint8_t> body_active_;
  /// Aligned with `bodies_`: 1 when this tick's advance took the exact
  /// path. Written per body inside the fan-out, counted after it.
  std::vector<std::uint8_t> advanced_exact_;
  std::vector<std::uint64_t> body_streams_;  ///< per-slot physics stream id
  std::uint64_t next_body_stream_ = 0;       ///< monotone admission counter
  std::vector<std::size_t> free_body_slots_;  ///< released slots (recycling on)

  bool planned_ = false;
  int budget_ = 0;
  double capture_ = 0.0;
  /// Belief (controller) defect state: the self-test map plus every
  /// *announced* runtime fault. Drives routing, admission, pixel masking and
  /// the supervisor's credibility checks.
  chip::DefectMap defects_;
  /// Ground truth: belief plus silent faults. Drives the physics only.
  chip::DefectMap truth_defects_;
  std::vector<std::uint8_t> blocked_;        ///< belief mask (incl. quarantines)
  std::vector<std::uint8_t> truth_blocked_;  ///< ground-truth mask
  std::vector<std::uint8_t> quarantine_mask_;  ///< watchdog-blocked sites
  std::size_t initial_blocked_ = 0;  ///< belief blocked count at episode start
  std::size_t substeps_ = 0;
  double threshold_ = 0.0;
  double cds_base_sigma_ = 0.0;  ///< single-frame CDS noise σ (threshold recompute)
  Aabb bounds_;

  /// Active transient sensor overlays (pruned when expired — bounded memory
  /// under indefinite soak).
  struct SensorDropout {
    int until = 0;  ///< first tick the fault no longer applies
    int row = 0;
  };
  struct SensorBurst {
    int until = 0;
    GridCoord origin;
    int tile = 0;
  };
  std::vector<SensorDropout> dropouts_;
  std::vector<SensorBurst> bursts_;

  std::optional<HealthMonitor> health_;
  std::size_t health_scan_pos_ = 0;  ///< audit-event cursor of the watchdog
  int last_admit_tick_ = -1;         ///< degraded-mode admission throttle

  Rng phys_base_;
  Rng sense_base_;
  Rng fault_base_;

  std::optional<Replanner> replanner_;
  std::optional<OccupancyTracker> tracker_;
  std::optional<Supervisor> supervisor_;

  /// Tracked whole-chamber field (engaged when
  /// `ControlConfig::field_tracking_nodes_per_pitch > 0`) + the per-electrode
  /// drive scratch the tick path rewrites in place.
  std::optional<field::IncrementalPotential> field_tracker_;
  std::vector<double> field_drive_;

  std::vector<int> stalled_;
  EpisodeReport report_;

  obs::TraceRecorder* trace_ = nullptr;  ///< timing plane (null = no clock)
  int trace_lane_ = -1;
};

}  // namespace biochip::control
