#include "control/engine.hpp"

#include <algorithm>
#include <cmath>

#include "cad/route.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "core/threadpool.hpp"
#include "obs/trace.hpp"
#include "sensor/detect.hpp"

namespace biochip::control {

ClosedLoopEngine::ClosedLoopEngine(chip::CageController& cages,
                                   core::ManipulationEngine& engine,
                                   const sensor::FrameSynthesizer& imager,
                                   const chip::DefectMap& defects, double site_period,
                                   ControlConfig config)
    : cages_(cages), engine_(engine), imager_(imager), defects_(defects),
      site_period_(site_period), config_(std::move(config)) {
  BIOCHIP_REQUIRE(site_period > 0.0, "site period must be positive");
  BIOCHIP_REQUIRE(config_.frames_per_tick >= 1, "need at least one frame per tick");
  BIOCHIP_REQUIRE(defects.cols() == cages.array().cols() &&
                      defects.rows() == cages.array().rows(),
                  "defect map shape does not match the array");
}

// ------------------------------------------------------------------ runtime ----

EpisodeRuntime::EpisodeRuntime(ClosedLoopEngine& owner, std::vector<CageGoal> goals,
                               std::vector<physics::ParticleBody>& bodies,
                               std::vector<std::pair<int, int>> cage_bodies,
                               Rng stream_base, core::ThreadPool* pool)
    : owner_(owner), pool_(pool), goals_(std::move(goals)), bodies_(bodies),
      cage_bodies_(std::move(cage_bodies)),
      fault_slots_(cage_bodies_.size()),
      body_active_(bodies.size(), std::uint8_t{1}),
      body_streams_(bodies.size()),
      next_body_stream_(bodies.size()),
      defects_(owner.defects_), truth_defects_(owner.defects_),
      phys_base_(stream_base.fork(0)), sense_base_(stream_base.fork(1)),
      fault_base_(stream_base.fork(2)) {
  const ControlConfig& config = owner_.config_;
  const chip::ElectrodeArray& array = owner_.cages_.array();
  capture_ = owner_.engine_.field_model().capture_radius();
  const int min_sep = owner_.cages_.min_separation();
  for (std::uint64_t& slot : fault_slots_) slot = next_fault_slot_++;
  for (std::size_t n = 0; n < body_streams_.size(); ++n)
    body_streams_[n] = static_cast<std::uint64_t>(n);

  std::size_t bidx = 0;
  for (const CageGoal& g : goals_) {
    BIOCHIP_REQUIRE(array.contains(g.destination), "destination outside the array");
    BIOCHIP_REQUIRE(body_index_of(g.cage_id, bidx), "goal cage has no tracked body");
  }

  // Self-test knowledge: which sites the defect map rules out. At episode
  // start belief and ground truth agree; runtime fault injection can grow
  // them apart (silent faults land in truth only, health quarantines in
  // belief only). Truth drives the physics, belief drives routing/admission.
  blocked_ = chip::blocked_site_mask(array, defects_, config.defect_ring);
  truth_blocked_ = blocked_;
  quarantine_mask_.assign(blocked_.size(), 0);
  initial_blocked_ = static_cast<std::size_t>(
      std::count(blocked_.begin(), blocked_.end(), std::uint8_t{1}));

  // Initial plan: parked cages become zero-length requests so the planner
  // keeps traffic separated from them.
  cad::RouteConfig plan_cfg;
  plan_cfg.cols = array.cols();
  plan_cfg.rows = array.rows();
  plan_cfg.min_separation = min_sep;
  if (config.closed_loop && config.defect_aware_initial) plan_cfg.blocked = blocked_;

  std::vector<cad::RouteRequest> requests;
  std::vector<int> moving;
  for (const CageGoal& g : goals_) {
    requests.push_back({g.cage_id, owner_.cages_.site(g.cage_id), g.destination});
    moving.push_back(g.cage_id);
  }
  for (int id : owner_.cages_.cage_ids()) {
    if (std::find(moving.begin(), moving.end(), id) != moving.end()) continue;
    const GridCoord site = owner_.cages_.site(id);
    requests.push_back({id, site, site});
  }
  cad::RouteResult plan = cad::route_astar(requests, plan_cfg);
  planned_ = plan.success;
  report_.planned = plan.success;
  if (!plan.success) {
    // The report contract holds even without an episode: every goal cage
    // lands in exactly one list, every failure carries an explicit event.
    for (const CageGoal& g : goals_) {
      report_.failed_ids.push_back(g.cage_id);
      report_.events.push_back(
          {0, EventKind::kDeliveryFailed, g.cage_id, owner_.cages_.site(g.cage_id)});
    }
    goals_.clear();  // finish() must not double-account them
    return;
  }
  cad::verify_routes(requests, plan, plan_cfg);

  // Control stack. Replans are always defect-aware, even when the initial
  // plan was deliberately blind (the online-reroute exercise).
  cad::RouteConfig replan_cfg = plan_cfg;
  replan_cfg.blocked = blocked_;
  replanner_.emplace(replan_cfg);
  replanner_->commit(std::move(plan.paths));

  const double gate =
      config.tracker.gate_radius > 0.0 ? config.tracker.gate_radius : capture_;
  tracker_.emplace(config.tracker, gate);
  for (const auto& [cid, bi] : cage_bodies_) tracker_->add_track(cid);

  supervisor_.emplace(config, array, defects_, *replanner_, capture_);
  for (const CageGoal& g : goals_) supervisor_->add_cage(g.cage_id, g.destination);
  if (config.closed_loop) {
    const auto pre = supervisor_->preflight();
    report_.events.insert(report_.events.end(), pre.begin(), pre.end());
  }
  if (config.closed_loop && config.health.enabled)
    health_.emplace(config.health, array.cols(), array.rows());

  const double dt = owner_.engine_.integrator().options().dt;
  substeps_ =
      static_cast<std::size_t>(std::max(1.0, std::round(owner_.site_period_ / dt)));
  const int makespan = plan.makespan_steps;
  budget_ = config.closed_loop
                ? (config.max_ticks > 0 ? config.max_ticks : 4 * makespan + 120)
                : makespan;

  cds_base_sigma_ = owner_.imager_.cds_noise_sigma();
  threshold_ = config.threshold_sigma * cds_base_sigma_ /
               std::sqrt(static_cast<double>(config.frames_per_tick));
  bounds_ = owner_.engine_.integrator().options().bounds;

  // Tracked whole-chamber field (optional): one Laplace grid over the full
  // array at the configured resolution, maintained incrementally by the tick
  // path (field/incremental.hpp). The z extent is the physics domain height.
  if (config.field_tracking_nodes_per_pitch > 0) {
    field::ChamberDomain domain;
    domain.spacing =
        array.pitch() / static_cast<double>(config.field_tracking_nodes_per_pitch);
    const Rect extent = array.extent();
    domain.width_x = extent.max.x - extent.min.x;
    domain.width_y = extent.max.y - extent.min.y;
    domain.height = bounds_.max.z - bounds_.min.z;
    BIOCHIP_REQUIRE(domain.height > 0.0,
                    "field tracking needs a 3-D physics domain");
    std::vector<Rect> footprints;
    footprints.reserve(array.electrode_count());
    for (int r = 0; r < array.rows(); ++r)
      for (int c = 0; c < array.cols(); ++c)
        footprints.push_back(array.footprint({c, r}));
    field_tracker_.emplace(domain, std::move(footprints), /*lid_present=*/false,
                           array.pitch(), config.field_tracking);
    field_drive_.assign(array.electrode_count(), 0.0);
  }
}

bool EpisodeRuntime::body_index_of(int cage_id, std::size_t& out) const {
  for (const auto& [cid, bidx] : cage_bodies_)
    if (cid == cage_id) {
      out = static_cast<std::size_t>(bidx);
      return true;
    }
  return false;
}

bool EpisodeRuntime::site_ok(GridCoord s) const {
  const chip::ElectrodeArray& array = owner_.cages_.array();
  BIOCHIP_DBG_REQUIRE(array.contains(s), "site outside the array");
  return blocked_[static_cast<std::size_t>(s.row) *
                      static_cast<std::size_t>(array.cols()) +
                  static_cast<std::size_t>(s.col)] == 0;
}

bool EpisodeRuntime::truth_site_ok(GridCoord s) const {
  const chip::ElectrodeArray& array = owner_.cages_.array();
  BIOCHIP_DBG_REQUIRE(array.contains(s), "site outside the array");
  return truth_blocked_[static_cast<std::size_t>(s.row) *
                            static_cast<std::size_t>(array.cols()) +
                        static_cast<std::size_t>(s.col)] == 0;
}

void EpisodeRuntime::update_tracked_field(const std::vector<GridCoord>& sites) {
  const chip::ElectrodeArray& array = owner_.cages_.array();
  std::fill(field_drive_.begin(), field_drive_.end(), 0.0);
  for (const GridCoord s : sites)
    field_drive_[array.index(s)] = owner_.config_.field_tracking_drive;
  // Changed-electrode detection, window clustering and the re-anchor cadence
  // all live in the tracker; an unchanged pattern is a bitwise no-op.
  field_tracker_->update(field_drive_);
}

void EpisodeRuntime::refresh_blocked() {
  const chip::ElectrodeArray& array = owner_.cages_.array();
  const int ring = owner_.config_.defect_ring;
  blocked_ = chip::blocked_site_mask(array, defects_, ring);
  for (std::size_t i = 0; i < blocked_.size(); ++i)
    if (quarantine_mask_[i] != 0) blocked_[i] = 1;
  truth_blocked_ = chip::blocked_site_mask(array, truth_defects_, ring);
  if (replanner_.has_value()) replanner_->set_blocked(blocked_);
}

double EpisodeRuntime::excess_blocked_fraction() const {
  const std::size_t now = static_cast<std::size_t>(
      std::count(blocked_.begin(), blocked_.end(), std::uint8_t{1}));
  const std::size_t usable0 =
      blocked_.size() > initial_blocked_ ? blocked_.size() - initial_blocked_ : 1;
  return static_cast<double>(now - std::min(now, initial_blocked_)) /
         static_cast<double>(usable0);
}

void EpisodeRuntime::observe_health(int t) {
  if (!health_.has_value()) return;
  const std::vector<ControlEvent> window(
      report_.events.begin() + static_cast<std::ptrdiff_t>(health_scan_pos_),
      report_.events.end());
  const auto decisions = health_->observe(t, window, excess_blocked_fraction());
  if (!health_->newly_quarantined().empty() || !health_->rehabilitated().empty()) {
    const std::size_t cols =
        static_cast<std::size_t>(owner_.cages_.array().cols());
    for (const GridCoord s : health_->rehabilitated())
      quarantine_mask_[static_cast<std::size_t>(s.row) * cols +
                       static_cast<std::size_t>(s.col)] = 0;
    for (const GridCoord s : health_->newly_quarantined())
      quarantine_mask_[static_cast<std::size_t>(s.row) * cols +
                       static_cast<std::size_t>(s.col)] = 1;
    refresh_blocked();
  }
  report_.events.insert(report_.events.end(), decisions.begin(), decisions.end());
  // Decisions are not re-scanned (they carry no loss strikes anyway).
  health_scan_pos_ = report_.events.size();
}

void EpisodeRuntime::apply_electrode_fault(int t, GridCoord site,
                                           chip::FaultKind kind) {
  BIOCHIP_REQUIRE(planned_, "cannot inject into an unplanned episode");
  BIOCHIP_REQUIRE(owner_.cages_.array().contains(site),
                  "fault site outside the array");
  switch (kind) {
    case chip::FaultKind::kElectrodeDead:
      defects_.set_state(site, chip::PixelState::kDead);
      truth_defects_.set_state(site, chip::PixelState::kDead);
      break;
    case chip::FaultKind::kElectrodeStuckCage:
      defects_.set_state(site, chip::PixelState::kStuckCage);
      truth_defects_.set_state(site, chip::PixelState::kStuckCage);
      break;
    case chip::FaultKind::kElectrodeSilentDead:
      truth_defects_.set_state(site, chip::PixelState::kDead);
      break;
    default:
      throw PreconditionError("not an electrode fault kind");
  }
  refresh_blocked();
  report_.events.push_back({t, EventKind::kFaultInjected, -1, site});
}

void EpisodeRuntime::begin_sensor_dropout(int t, int row, int duration) {
  BIOCHIP_REQUIRE(planned_, "cannot inject into an unplanned episode");
  BIOCHIP_REQUIRE(row >= 0 && row < owner_.cages_.array().rows(),
                  "dropout row outside the array");
  BIOCHIP_REQUIRE(duration >= 1, "sensor faults need a positive duration");
  dropouts_.push_back({t + duration, row});
  report_.events.push_back({t, EventKind::kSensorFault, -1, {0, row}});
}

void EpisodeRuntime::begin_sensor_burst(int t, GridCoord origin, int tile,
                                        int duration) {
  BIOCHIP_REQUIRE(planned_, "cannot inject into an unplanned episode");
  BIOCHIP_REQUIRE(owner_.cages_.array().contains(origin),
                  "burst origin outside the array");
  BIOCHIP_REQUIRE(tile >= 1 && duration >= 1,
                  "sensor bursts need positive tile and duration");
  bursts_.push_back({t + duration, origin, tile});
  report_.events.push_back({t, EventKind::kSensorFault, -1, origin});
}

void EpisodeRuntime::assign_goal(int cage_id, GridCoord goal) {
  BIOCHIP_REQUIRE(planned_ && supervisor_.has_value(),
                  "cannot assign goals to an unplanned episode");
  BIOCHIP_REQUIRE(!supervisor_->supervises(cage_id),
                  "cage already has a delivery goal");
  std::size_t bidx = 0;
  BIOCHIP_REQUIRE(body_index_of(cage_id, bidx), "goal cage has no tracked body");
  BIOCHIP_REQUIRE(owner_.cages_.array().contains(goal),
                  "destination outside the array");
  supervisor_->add_cage(cage_id, goal);
  goals_.push_back({cage_id, goal});
}

void EpisodeRuntime::retarget(int cage_id, GridCoord goal) {
  BIOCHIP_REQUIRE(planned_ && supervisor_.has_value(),
                  "cannot retarget in an unplanned episode");
  supervisor_->retarget(cage_id, goal);
  for (CageGoal& g : goals_)
    if (g.cage_id == cage_id) g.destination = goal;
}

Vec3 EpisodeRuntime::trap_center(GridCoord site) const {
  return owner_.engine_.field_model().trap_center(site);
}

CageMode EpisodeRuntime::mode(int cage_id) const {
  BIOCHIP_REQUIRE(supervisor_.has_value(),
                  "no control stack: the initial plan failed");
  return supervisor_->mode(cage_id);
}

bool EpisodeRuntime::steady_state() const {
  if (!supervisor_.has_value() || !tracker_.has_value()) return false;
  for (const CageGoal& g : goals_) {
    const CageMode m = supervisor_->mode(g.cage_id);
    if (m != CageMode::kEnRoute && m != CageMode::kDelivered) return false;
    if (tracker_->state(g.cage_id) != TrackState::kOccupied) return false;
  }
  return true;
}

std::vector<ControlEvent> EpisodeRuntime::take_observed_events(bool all) {
  // With health on, only the prefix the watchdog has scanned may leave (the
  // unscanned tail still owes the monitor its loss strikes); with health off
  // nothing ever scans, so the whole trail drains.
  const std::size_t n =
      (all || !health_.has_value()) ? report_.events.size() : health_scan_pos_;
  std::vector<ControlEvent> out(report_.events.begin(),
                                report_.events.begin() + static_cast<std::ptrdiff_t>(n));
  report_.events.erase(report_.events.begin(),
                       report_.events.begin() + static_cast<std::ptrdiff_t>(n));
  health_scan_pos_ -= std::min(health_scan_pos_, n);
  return out;
}

bool EpisodeRuntime::all_delivered() const {
  return owner_.config_.closed_loop && supervisor_.has_value() &&
         supervisor_->all_delivered();
}

void EpisodeRuntime::integrate_range(int t, std::size_t nb, std::size_t ne) {
  const core::CageFieldModel& field = owner_.engine_.field_model();
  for (std::size_t n = nb; n < ne; ++n) {
    if (body_active_[n] == 0) continue;  // the cell left this chamber
    // Legacy keying indexes by (tick, slot) — valid because slots are never
    // reused. Recycling mode keys by the slot's persistent admission counter
    // (`body_streams_`), which never repeats across slot reuse, so streams
    // stay collision-free under open-ended admission churn.
    Rng stream = owner_.config_.recycle_slots
                     ? phys_base_.fork(body_streams_[n]).fork(static_cast<std::uint64_t>(t))
                     : phys_base_.fork(static_cast<std::uint64_t>(t) * bodies_.size() + n);
    advanced_exact_[n] =
        owner_.engine_.integrator().advance(bodies_[n], field, stream, substeps_) ? 1 : 0;
  }
}

void EpisodeRuntime::tick(int t) {
  BIOCHIP_REQUIRE(planned_, "cannot tick an episode whose plan failed");
  const ControlConfig& config = owner_.config_;
  chip::CageController& cages = owner_.cages_;
  const chip::ElectrodeArray& array = cages.array();
  const double pitch = array.pitch();
  const int min_sep = cages.min_separation();
  report_.ticks = t;

  // Timing plane (null recorder = no clock read): one span per phase below.
  // Safe from worker threads — the recorder's ring is mutex-guarded, and
  // nothing read from the clock feeds back into simulation state.
  obs::PhaseTicker phase(trace_, trace_lane_, t);
  phase.begin("actuate");

  // ---- actuate one committed step per cage.
  const std::vector<int> ids = cages.cage_ids();
  std::vector<GridCoord> cur(ids.size());
  std::vector<GridCoord> next(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    cur[i] = cages.site(ids[i]);
    next[i] = replanner_->position_at(ids[i], t);
  }
  stalled_.clear();
  if (config.closed_loop) {
    // A deviating cage (paused tow, re-timed plan) can make a neighbor's
    // committed step illegal. Demote clashing movers to a one-tick stall
    // (lowest id first) until the step is pairwise legal, and re-time
    // their plans so position_at stays truthful.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < ids.size() && !changed; ++i) {
        if (next[i] == cur[i]) continue;
        for (std::size_t j = 0; j < ids.size(); ++j) {
          if (j == i) continue;
          if (chebyshev(next[i], next[j]) < min_sep) {
            next[i] = cur[i];
            stalled_.push_back(ids[i]);
            changed = true;
            break;
          }
        }
      }
    }
    for (const int id : stalled_) replanner_->hold(id, t);
  }
  std::vector<chip::CageMove> moves;
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (!(next[i] == cur[i])) moves.push_back({ids[i], next[i]});
  cages.apply_step(moves);

  // ---- physical trap set of this tick. Traps parked on unusable sites are
  // left out of the field model — no force holds their cell (this is how
  // open-loop runs demonstrably lose cells on defects). Ground truth
  // decides, not belief: a silently dead electrode drops its trap even
  // though the controller still routes over it, and a quarantined
  // (belief-blocked) site with healthy hardware keeps trapping. A rescuing
  // cage keeps its trap on any site whose own pixel physically works — the
  // ring rule guards a *towed* cell's wall, which a rescue deliberately
  // trades away.
  std::vector<GridCoord> sites;
  sites.reserve(ids.size());
  for (const int id : ids) {
    const GridCoord s = cages.site(id);
    if (truth_site_ok(s)) {
      sites.push_back(s);
    } else if (supervisor_.has_value() && supervisor_->supervises(id) &&
               supervisor_->rescuing(id) &&
               truth_defects_.state(s) == chip::PixelState::kOk) {
      sites.push_back(s);
    }
  }

  // Tracked whole-chamber field (config-gated): the actuation pattern is
  // +drive on every trap site selected above, 0 elsewhere, so a fault that
  // kills a trap — announced or silent — changes that electrode's drive and
  // dirties its window. Still the actuate phase: this is the cost of
  // re-programming the array, not of integrating bodies.
  if (field_tracker_.has_value()) update_tracked_field(sites);
  phase.begin("physics");

  // ---- physics: every body relaxes for one site period against the traps
  // selected above.
  owner_.engine_.field_model().set_sites(std::move(sites));
  advanced_exact_.resize(bodies_.size());
  if (pool_ != nullptr) {
    pool_->parallel_for(0, bodies_.size(), [&](std::size_t nb, std::size_t ne) {
      integrate_range(t, nb, ne);
    });
  } else {
    integrate_range(t, 0, bodies_.size());
  }
  // Path counts are summed here, after the fan-out, so they stay serial ≡
  // pooled like everything else on the counting plane.
  for (std::size_t n = 0; n < bodies_.size(); ++n)
    if (body_active_[n] != 0)
      ++(advanced_exact_[n] != 0 ? report_.exact_advances : report_.em_advances);
  report_.elapsed += owner_.site_period_;

  // ---- fault injection: kick a trapped cell out of its basin. Directed
  // escapes first (fully scripted heading, no stream draw), then the
  // stream-keyed forced/random ones. Streams are keyed (stable slot, tick):
  // hand-offs shrink/grow `cage_bodies_`, so a size-based index would
  // collide with earlier ticks' streams.
  for (const ControlConfig::DirectedEscape& de : config.directed_escapes) {
    if (de.tick != t) continue;
    std::size_t bidx = 0;
    if (!body_index_of(de.cage_id, bidx)) continue;
    physics::ParticleBody& body = bodies_[bidx];
    const GridCoord site = cages.site(de.cage_id);
    if ((body.position - trap_center(site)).norm() > capture_) continue;
    const double dist = de.distance_pitches * pitch;
    body.position += Vec3{dist * std::cos(de.angle), dist * std::sin(de.angle), 0.0};
    const Aabb inset{bounds_.min + Vec3{body.radius, body.radius, body.radius},
                     bounds_.max - Vec3{body.radius, body.radius, body.radius}};
    body.position = inset.clamp(body.position);
    report_.events.push_back({t, EventKind::kEscapeInjected, de.cage_id, site});
  }
  for (std::size_t n = 0; n < cage_bodies_.size(); ++n) {
    const auto [cage_id, bidx] = cage_bodies_[n];
    Rng fault = fault_base_.fork(fault_slots_[n]).fork(static_cast<std::uint64_t>(t));
    const bool forced =
        std::find(config.forced_escapes.begin(), config.forced_escapes.end(),
                  std::pair<int, int>{t, cage_id}) != config.forced_escapes.end();
    const bool random_escape =
        config.escape_rate > 0.0 && fault.bernoulli(config.escape_rate);
    if (!forced && !random_escape) continue;
    physics::ParticleBody& body = bodies_[static_cast<std::size_t>(bidx)];
    const GridCoord site = cages.site(cage_id);
    if ((body.position - trap_center(site)).norm() > capture_)
      continue;  // already free — nothing to escape from
    const double angle = fault.uniform(0.0, 2.0 * constants::pi);
    const double dist = config.escape_distance_pitches * pitch;
    body.position += Vec3{dist * std::cos(angle), dist * std::sin(angle), 0.0};
    const Aabb inset{bounds_.min + Vec3{body.radius, body.radius, body.radius},
                     bounds_.max - Vec3{body.radius, body.radius, body.radius}};
    body.position = inset.clamp(body.position);
    report_.events.push_back({t, EventKind::kEscapeInjected, cage_id, site});
  }

  if (!config.closed_loop) return;
  phase.begin("sense");

  // ---- sense: one averaged CDS frame of the true scene, with the defect
  // map's pixel faults overlaid, thresholded into detections. Detections
  // over defective pixels are rejected up front (stuck-cage phantoms) —
  // the chip's self-test map is legitimate controller knowledge.
  std::vector<sensor::FrameTarget> targets;
  targets.reserve(bodies_.size());
  for (std::size_t n = 0; n < bodies_.size(); ++n)
    if (body_active_[n] != 0) targets.push_back({bodies_[n].position, bodies_[n].radius});
  // Burst sensing: a degraded chamber spends more frames per tick on SNR
  // (the claim-C4 time-for-quality trade, re-spent when the hardware is
  // suspect). Its healthy-direction counterpart: a kNormal chamber whose
  // every supervised cage is confirmed occupied on its nominal leg spends
  // *fewer* frames (`steady_frames_divisor`) — sense slow while nothing is
  // suspect. The detection threshold tracks the averaged-noise σ either way.
  const std::size_t boost =
      health_.has_value() ? health_->frames_multiplier() : std::size_t{1};
  std::size_t frames = config.frames_per_tick * boost;
  if (boost == 1 && config.steady_frames_divisor > 1 && steady_state())
    frames = std::max<std::size_t>(1, frames / config.steady_frames_divisor);
  report_.frames_sensed += frames;
  threshold_ = config.threshold_sigma * cds_base_sigma_ /
               std::sqrt(static_cast<double>(frames));
  Rng sense = sense_base_.fork(static_cast<std::uint64_t>(t));
  Grid2 frame = owner_.imager_.averaged_frame(targets, sense, frames);
  // Bad-pixel masking: the controller zeroes known-bad pixels before
  // thresholding (its self-test map is legitimate calibration knowledge).
  // The mask writes exactly the pixel set the raw fault overlay would, so
  // with masking on the overlay is applied directly as zeros in one pass
  // — otherwise every stuck-cage pixel reads as a permanently parked
  // phantom, and dropping whole detections instead would blind the
  // tracker to real cells whose clusters merge with a defective pixel (a
  // cell next to a defect keeps its healthy pixels; only its centroid
  // biases slightly).
  sensor::apply_pixel_faults(
      frame, defects_,
      config.bad_pixel_masking ? 0.0 : -config.stuck_cage_thresholds * threshold_);
  // Transient sensor faults (injected, ground truth — the controller has no
  // mask for them): row dropouts read zero, bursts read phantom particles.
  // Expired overlays are pruned so a soak's memory stays bounded.
  dropouts_.erase(std::remove_if(dropouts_.begin(), dropouts_.end(),
                                 [&](const SensorDropout& d) { return t >= d.until; }),
                  dropouts_.end());
  bursts_.erase(std::remove_if(bursts_.begin(), bursts_.end(),
                               [&](const SensorBurst& b) { return t >= b.until; }),
                bursts_.end());
  for (const SensorDropout& d : dropouts_)
    for (std::size_t i = 0; i < frame.nx(); ++i)
      frame.at(i, static_cast<std::size_t>(d.row)) = 0.0;
  for (const SensorBurst& b : bursts_)
    for (int dr = 0; dr < b.tile; ++dr)
      for (int dc = 0; dc < b.tile; ++dc) {
        const GridCoord s{b.origin.col + dc, b.origin.row + dr};
        if (!array.contains(s)) continue;
        frame.at(static_cast<std::size_t>(s.col), static_cast<std::size_t>(s.row)) =
            -config.stuck_cage_thresholds * threshold_;
      }
  const std::vector<sensor::Detection> detections =
      sensor::detect_threshold(frame, array, threshold_);

  // ---- track: associate detections to per-cage trap centers.
  phase.begin("track");
  const std::vector<int> tracked = tracker_->cage_ids();
  std::vector<Vec2> expected;
  expected.reserve(tracked.size());
  for (const int id : tracked) expected.push_back(trap_center(cages.site(id)).xy());
  const TrackUpdate update = tracker_->update(tracked, expected, detections);

  // ---- supervise: pause / recapture / re-route; events are the audit log.
  // (The "plan" phase of the span catalog: replanning happens inside the
  // supervisor's step, so one span covers supervise + replan + health.)
  phase.begin("plan");
  const auto events = supervisor_->step(t, *tracker_, detections, update, cages, stalled_);
  report_.events.insert(report_.events.end(), events.begin(), events.end());

  // ---- health: the watchdog reads the audit trail it just grew and walks
  // the degradation ladder; fresh quarantines feed the belief blocked mask.
  observe_health(t);
}

void EpisodeRuntime::idle_tick(int t) {
  BIOCHIP_REQUIRE(planned_, "cannot tick an episode whose plan failed");
  report_.ticks = t;
  // The world is frozen, but fault hooks may have recorded events since the
  // last observation — ladder decisions must fire exactly as they would in
  // a non-elided run.
  observe_health(t);
}

EpisodeReport EpisodeRuntime::finish() {
  // Ground-truth delivery accounting (same criterion for open and closed
  // loop): at the destination with the cell inside the capture basin.
  for (const CageGoal& g : goals_) {
    std::size_t bidx = 0;
    BIOCHIP_REQUIRE(body_index_of(g.cage_id, bidx), "goal cage lost its body");
    const bool at_goal = owner_.cages_.site(g.cage_id) == g.destination;
    const Vec3 trap = trap_center(g.destination);
    if (at_goal && (bodies_[bidx].position - trap).norm() <= capture_) {
      report_.delivered_ids.push_back(g.cage_id);
      // Open-loop runs (and budget-truncated closed ones) have no supervisor
      // to announce the delivery; keep the audit trail complete.
      const bool announced =
          std::any_of(report_.events.begin(), report_.events.end(), [&](const auto& e) {
            return e.cage_id == g.cage_id && e.kind == EventKind::kDelivered;
          });
      if (!announced)
        report_.events.push_back({report_.ticks, EventKind::kDelivered, g.cage_id,
                                  owner_.cages_.site(g.cage_id)});
    } else {
      report_.failed_ids.push_back(g.cage_id);
      report_.events.push_back({report_.ticks, EventKind::kDeliveryFailed, g.cage_id,
                                owner_.cages_.site(g.cage_id)});
    }
  }
  if (replanner_.has_value()) report_.replans = replanner_->replans();
  report_.success = report_.planned && report_.failed_ids.empty();
  return report_;
}

std::optional<int> EpisodeRuntime::admit_cage(GridCoord at, GridCoord goal, int t,
                                              const physics::ParticleBody& cell) {
  BIOCHIP_REQUIRE(planned_, "cannot admit into an unplanned episode");
  chip::CageController& cages = owner_.cages_;
  BIOCHIP_REQUIRE(cages.array().contains(at) && cages.array().contains(goal),
                  "hand-off sites outside the array");
  // Degradation ladder: a quarantined chamber admits nothing; a degraded one
  // throttles the admission rate. Same deny path as congestion — the caller
  // retries with backoff or escalates.
  if (health_.has_value() && !health_->admission_allowed(t, last_admit_tick_))
    return std::nullopt;
  // Congestion check, physical and temporal: the port site must be clear of
  // live cages now AND of every committed reservation from tick t on (the
  // planner only checks conflicts from the first *move* onward).
  if (!cages.can_place(at)) return std::nullopt;
  const int min_sep = cages.min_separation();
  for (const cad::RoutedPath& p : replanner_->paths())
    if (chebyshev(p.position_at(t), at) < min_sep) return std::nullopt;

  // Route through this chamber's own reservation table, defect-aware.
  const int id = cages.create(at);
  const auto fresh =
      cad::route_astar_reserved({id, at, goal}, replanner_->config(),
                                replanner_->paths(), t);
  if (!fresh) {
    cages.destroy(id);
    return std::nullopt;
  }
  // Absolute time frame: the fresh route starts at tick t (`start = t`), and
  // `position_at` clamps every earlier tick to the port site — observably
  // identical to materializing t copies of `at`, without the O(t) prefix
  // that would make open-system admission cost grow with elapsed time.
  cad::RoutedPath path = *fresh;
  path.id = id;
  replanner_->add_path(std::move(path));

  tracker_->add_track(id);
  supervisor_->add_cage(id, goal);
  goals_.push_back({id, goal});
  std::size_t slot = bodies_.size();
  if (owner_.config_.recycle_slots && !free_body_slots_.empty()) {
    slot = free_body_slots_.back();
    free_body_slots_.pop_back();
    bodies_[slot] = cell;
    body_active_[slot] = 1;
    body_streams_[slot] = next_body_stream_++;
  } else {
    bodies_.push_back(cell);
    body_active_.push_back(1);
    body_streams_.push_back(next_body_stream_++);
  }
  cage_bodies_.emplace_back(id, static_cast<int>(slot));
  fault_slots_.push_back(next_fault_slot_++);
  last_admit_tick_ = t;
  report_.events.push_back({t, EventKind::kTransferAdmitted, id, at});
  return id;
}

physics::ParticleBody EpisodeRuntime::body_of(int cage_id) const {
  std::size_t bidx = 0;
  BIOCHIP_REQUIRE(body_index_of(cage_id, bidx), "cage has no tracked body");
  return bodies_[bidx];
}

physics::ParticleBody EpisodeRuntime::release_cage(int cage_id) {
  std::size_t bidx = 0;
  BIOCHIP_REQUIRE(body_index_of(cage_id, bidx), "released cage has no tracked body");
  const physics::ParticleBody cell = bodies_[bidx];
  body_active_[bidx] = 0;
  if (owner_.config_.recycle_slots) free_body_slots_.push_back(bidx);
  for (std::size_t n = 0; n < cage_bodies_.size(); ++n) {
    if (cage_bodies_[n].first != cage_id) continue;
    cage_bodies_.erase(cage_bodies_.begin() + static_cast<std::ptrdiff_t>(n));
    fault_slots_.erase(fault_slots_.begin() + static_cast<std::ptrdiff_t>(n));
    break;
  }
  owner_.cages_.destroy(cage_id);
  if (tracker_.has_value()) tracker_->remove_track(cage_id);
  if (supervisor_.has_value() && supervisor_->supervises(cage_id))
    supervisor_->remove_cage(cage_id);
  if (replanner_.has_value()) replanner_->remove_path(cage_id);
  drop_goal(cage_id);
  return cell;
}

void EpisodeRuntime::drop_goal(int cage_id) {
  goals_.erase(std::remove_if(goals_.begin(), goals_.end(),
                              [&](const CageGoal& g) { return g.cage_id == cage_id; }),
               goals_.end());
}

// ------------------------------------------------------------------- driver ----

EpisodeReport ClosedLoopEngine::run(const std::vector<CageGoal>& goals,
                                    std::vector<physics::ParticleBody>& bodies,
                                    const std::vector<std::pair<int, int>>& cage_bodies,
                                    Rng stream_base, core::ThreadPool* pool) {
  EpisodeRuntime runtime(*this, goals, bodies, cage_bodies, stream_base, pool);
  if (!runtime.planned()) return runtime.finish();
  for (int t = 1; t <= runtime.budget(); ++t) {
    runtime.tick(t);
    if (runtime.all_delivered()) break;
  }
  return runtime.finish();
}

std::vector<EpisodeReport> ClosedLoopEngine::run_episodes(std::vector<Episode>& episodes,
                                                          Rng stream_base,
                                                          core::ThreadPool& pool,
                                                          std::size_t max_parts) {
  std::vector<EpisodeReport> results(episodes.size());
  // One counter-based stream per episode: results are independent of how
  // the pool chunks the episode range.
  pool.parallel_for(
      0, episodes.size(),
      [&](std::size_t eb, std::size_t ee) {
        for (std::size_t n = eb; n < ee; ++n) {
          Episode& ep = episodes[n];
          BIOCHIP_REQUIRE(ep.engine != nullptr && ep.bodies != nullptr,
                          "episode needs an engine and a body array");
          results[n] = ep.engine->run(ep.goals, *ep.bodies, ep.cage_bodies,
                                      stream_base.fork(n), nullptr);
        }
      },
      max_parts);
  return results;
}

}  // namespace biochip::control
