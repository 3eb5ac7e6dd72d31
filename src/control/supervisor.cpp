#include "control/supervisor.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/error.hpp"

namespace biochip::control {

namespace {

/// Committed-path steps checked ahead against defective sites each tick.
constexpr int kLookahead = 2;
/// Consecutive actuation stalls (separation clash with a deviating cage)
/// after which a stalled cage is re-routed.
constexpr int kStallReplanAfter = 2;
/// Ticks a cage waits after a failed replan attempt before retrying. Even
/// with the router's fast-fail prechecks, a temporally congested replan
/// costs a real time-expanded search; hammering it every tick is what would
/// make a stuck episode O(sites × horizon) per tick.
constexpr int kReplanBackoff = 3;
/// Max cage-to-detection distance [pitches] for recapture targeting.
constexpr int kRecaptureSearchPitches = 8;
/// Ticks a recapturing cage waits at the capture site before giving up on a
/// stale fix and re-acquiring a fresh one.
constexpr int kRecapturePatience = 12;

/// Nearest site to a detection fix, among the 5×5 sites around its pixel
/// that `accept(site, distance)` admits, or nullopt. Deterministic: nearest
/// first, then smallest (row, col).
template <class Accept>
std::optional<GridCoord> nearest_site(const chip::ElectrodeArray& array, Vec2 fix,
                                      Accept accept) {
  const GridCoord base = array.nearest(fix);
  std::optional<GridCoord> best;
  double best_d = std::numeric_limits<double>::infinity();
  for (int dr = -2; dr <= 2; ++dr)
    for (int dc = -2; dc <= 2; ++dc) {
      const GridCoord site{base.col + dc, base.row + dr};
      if (!array.contains(site)) continue;
      const double d = (array.center(site) - fix).norm();
      if (!accept(site, d)) continue;
      const bool better =
          d < best_d ||
          (d == best_d && best.has_value() &&
           (site.row < best->row || (site.row == best->row && site.col < best->col)));
      if (better) {
        best_d = d;
        best = site;
      }
    }
  return best;
}

}  // namespace

Supervisor::Supervisor(const chip::ElectrodeArray& array, const chip::DefectMap& defects,
                       Replanner& replanner, double capture_radius)
    : array_(array), defects_(defects), replanner_(replanner),
      capture_radius_(capture_radius) {
  BIOCHIP_REQUIRE(capture_radius_ > 0.0, "capture radius must be positive");
}

void Supervisor::add_cage(int cage_id, GridCoord goal) {
  const auto it =
      std::lower_bound(cages_.begin(), cages_.end(), cage_id,
                       [](const Cage& c, int id) { return c.cage_id < id; });
  BIOCHIP_REQUIRE(it == cages_.end() || it->cage_id != cage_id,
                  "cage already supervised");
  BIOCHIP_REQUIRE(replanner_.has_path(cage_id),
                  "supervised cage needs a committed path");
  Cage c;
  c.cage_id = cage_id;
  c.goal = goal;
  cages_.insert(it, c);
}

void Supervisor::remove_cage(int cage_id) {
  cage(cage_id);  // validates
  cages_.erase(std::remove_if(cages_.begin(), cages_.end(),
                              [&](const Cage& c) { return c.cage_id == cage_id; }),
               cages_.end());
}

bool Supervisor::supervises(int cage_id) const {
  return std::any_of(cages_.begin(), cages_.end(),
                     [&](const Cage& c) { return c.cage_id == cage_id; });
}

Supervisor::Cage& Supervisor::cage(int cage_id) {
  for (Cage& c : cages_)
    if (c.cage_id == cage_id) return c;
  throw PreconditionError("cage not supervised: " + std::to_string(cage_id));
}

const Supervisor::Cage& Supervisor::cage(int cage_id) const {
  return const_cast<Supervisor*>(this)->cage(cage_id);
}

CageMode Supervisor::mode(int cage_id) const { return cage(cage_id).mode; }

bool Supervisor::rescuing(int cage_id) const { return cage(cage_id).rescue; }

void Supervisor::retarget(int cage_id, GridCoord goal) {
  BIOCHIP_REQUIRE(array_.contains(goal), "retarget goal outside the array");
  Cage& c = cage(cage_id);
  c.goal = goal;
  if (c.mode != CageMode::kPaused) c.mode = CageMode::kEnRoute;
  c.recapture_wait = 0;
  // No replan here: the parked-retry branch of `step` routes toward the new
  // goal on the next tick, through the usual backoff discipline.
}

bool Supervisor::all_delivered() const {
  return std::all_of(cages_.begin(), cages_.end(),
                     [](const Cage& c) { return c.mode == CageMode::kDelivered; });
}

bool Supervisor::credible_fix(Vec2 position) const {
  const GridCoord pixel = array_.nearest(position);
  return defects_.state(pixel) == chip::PixelState::kOk;
}

std::vector<ControlEvent> Supervisor::preflight() {
  std::vector<ControlEvent> events;
  for (Cage& c : cages_) {
    if (!replanner_.enters_blocked_ahead(c.cage_id, 0, kLookahead)) continue;
    if (replanner_.replan(c.cage_id, c.goal, 0))
      events.push_back({0, EventKind::kRerouted, c.cage_id,
                        replanner_.position_at(c.cage_id, 0)});
  }
  return events;
}

std::vector<ControlEvent> Supervisor::step(int t, const OccupancyTracker& tracker,
                                           const std::vector<sensor::Detection>& detections,
                                           const TrackUpdate& update,
                                           const chip::CageController& cages,
                                           const std::vector<int>& stalled) {
  std::vector<ControlEvent> events;
  const auto emit = [&](EventKind kind, const Cage& c) {
    events.push_back({t, kind, c.cage_id, cages.site(c.cage_id)});
  };

  // Stall streak and replan-backoff bookkeeping (the engine reports this
  // tick's separation clashes).
  for (Cage& c : cages_) {
    const bool hit =
        std::find(stalled.begin(), stalled.end(), c.cage_id) != stalled.end();
    c.stall_streak = hit ? c.stall_streak + 1 : 0;
    if (c.replan_cooldown > 0) --c.replan_cooldown;
  }
  // Failed attempts start a backoff so a temporarily unroutable cage does
  // not pay a full time-expanded search every tick.
  // A rescuing cage falls back to the ring-0 mask inside the same attempt:
  // the fallback must not be starved by the cooldown its own failed strict
  // attempt just set (a cage recaptured on a ring-defective site would
  // otherwise livelock — strict replan fails, sets the cooldown, and the
  // relaxed retry is throttled by it forever).
  const auto try_replan = [&](Cage& c, GridCoord target) {
    if (c.replan_cooldown > 0) return false;
    if (replanner_.replan(c.cage_id, target, t)) return true;
    if (c.rescue && replanner_.replan_relaxed(c.cage_id, target, t)) return true;
    c.replan_cooldown = kReplanBackoff;
    return false;
  };
  // Rescue legs route against the ring-0 mask: an empty (or dragging) rescue
  // cage may cross sites whose own pixel works even though the ring does not.
  // Checked without a cooldown of its own — it runs as the same-tick fallback
  // of a failed strict attempt, whose backoff already throttles the pair.
  const auto try_replan_relaxed = [&](Cage& c, GridCoord target) {
    return replanner_.replan_relaxed(c.cage_id, target, t);
  };

  // Confirmed tracker transitions.
  for (const TrackChange& change : update.changes) {
    const auto it =
        std::find_if(cages_.begin(), cages_.end(),
                     [&](const Cage& c) { return c.cage_id == change.cage_id; });
    if (it == cages_.end()) continue;  // tracked but unsupervised cage
    Cage& c = *it;
    if (change.state == TrackState::kLost && c.mode != CageMode::kPaused) {
      // Pause the tow: freeze the committed path at the current tick so the
      // cage holds position (and stays a correct reservation for others).
      replanner_.park(c.cage_id, t);
      c.mode = CageMode::kPaused;
      c.recapture_wait = 0;
      emit(EventKind::kCellLost, c);
    } else if (change.state == TrackState::kOccupied &&
               (c.mode == CageMode::kRecapturing || c.mode == CageMode::kPaused)) {
      // Recapture confirmed — or a paused cage's own cell re-appeared in the
      // association gate (a transient dropout, not a real loss): either way
      // the cage holds a cell again, so head back to the goal.
      emit(EventKind::kCellRecaptured, c);
      if (try_replan(c, c.goal)) {
        c.mode = CageMode::kEnRoute;
        emit(EventKind::kRerouted, c);
      } else if (c.rescue && try_replan_relaxed(c, c.goal)) {
        // Drag leg: tow the recaptured cell back across the defect boundary
        // (the rescue flag stays up until the cage reaches a normal site).
        c.mode = CageMode::kEnRoute;
        emit(EventKind::kRerouted, c);
      } else {
        // No route right now: hold the cell here and retry from the parked
        // branch below on subsequent ticks.
        replanner_.park(c.cage_id, t);
        c.mode = CageMode::kEnRoute;
      }
    }
  }

  for (Cage& c : cages_) {
    const GridCoord here = cages.site(c.cage_id);

    // A rescue ends when the drag-back leg reaches a normally-usable site —
    // the dragged cell is back behind a full counter-phase wall. Outbound
    // (kRecapturing) and hunting (kPaused) legs keep the flag: they start on
    // normal sites and still need the relaxed mask to enter the pocket.
    if (c.rescue && c.mode == CageMode::kEnRoute && !replanner_.sites().blocked(here))
      c.rescue = false;

    if (c.mode == CageMode::kPaused) {
      // Hunt for a credible stray detection near the cage: the escaped cell.
      const double reach =
          static_cast<double>(kRecaptureSearchPitches) * array_.pitch();
      const Vec2 center = array_.center(here);
      double best_d = std::numeric_limits<double>::infinity();
      int best = -1;
      for (const std::size_t d : update.unmatched_detections) {
        const Vec2 p = detections[d].position;
        if (!credible_fix(p)) continue;
        const double dist = (p - center).norm();
        if (dist <= reach && dist < best_d) {
          best_d = dist;
          best = static_cast<int>(d);
        }
      }
      if (best >= 0) {
        const Vec2 fix = detections[static_cast<std::size_t>(best)].position;
        const auto site = nearest_site(array_, fix, [&](GridCoord s, double) {
          return !replanner_.sites().blocked(s);
        });
        // With rescue enabled, a routable site whose basin cannot reach the
        // cell is not worth parking at; without it, keep the legacy attempt
        // (the cage waits out its patience and re-hunts).
        const bool worth_trying =
            site.has_value() &&
            (!replanner_.rescue_enabled() ||
             (array_.center(*site) - fix).norm() <= capture_radius_);
        bool started = false;
        if (worth_trying && try_replan(c, *site)) {
          c.mode = CageMode::kRecapturing;
          c.recapture_site = *site;
          c.recapture_wait = 0;
          emit(EventKind::kRecaptureStarted, c);
          started = true;
        }
        if (!started && replanner_.rescue_enabled()) {
          // The cell sits in a fully blocked neighborhood (or the boundary
          // approach is unroutable): park an adjacent cage on a ring-
          // defective site whose own pixel still traps and whose basin
          // reaches the cell, via the ring-0 mask.
          const auto rsite = nearest_site(array_, fix, [&](GridCoord s, double d) {
            return defects_.state(s) == chip::PixelState::kOk && d <= capture_radius_;
          });
          if (rsite.has_value() && try_replan_relaxed(c, *rsite)) {
            c.mode = CageMode::kRecapturing;
            c.recapture_site = *rsite;
            c.recapture_wait = 0;
            if (!c.rescue) emit(EventKind::kRescueStarted, c);
            c.rescue = true;
            emit(EventKind::kRecaptureStarted, c);
          }
        }
      }
      continue;
    }

    if (c.mode == CageMode::kRecapturing && here == c.recapture_site) {
      // Waiting for the trap to pull the cell in; a stale fix (the cell
      // drifted or was phantom) sends us back to the hunt. The explicit
      // failure event is the health monitor's strike signal: repeated
      // capture failures at one site indict that site's electrode.
      if (++c.recapture_wait > kRecapturePatience) {
        replanner_.park(c.cage_id, t);
        c.mode = CageMode::kPaused;
        emit(EventKind::kRecaptureFailed, c);
      }
    }

    if (c.mode == CageMode::kEnRoute && here == c.goal &&
        tracker.state(c.cage_id) == TrackState::kOccupied) {
      c.mode = CageMode::kDelivered;
      emit(EventKind::kDelivered, c);
      continue;
    }

    if (c.mode == CageMode::kEnRoute || c.mode == CageMode::kRecapturing) {
      const GridCoord target =
          c.mode == CageMode::kRecapturing ? c.recapture_site : c.goal;
      // A path that ended short of its target (failed earlier replan, parked
      // recovery) is retried every tick until the router finds a way — this
      // applies to recapture legs too, or a blocked recapture would hang.
      if (replanner_.parked_after(c.cage_id, t) && !(here == target)) {
        if (try_replan(c, target)) {
          emit(EventKind::kRerouted, c);
        } else if (c.rescue && try_replan_relaxed(c, target)) {
          emit(EventKind::kRerouted, c);
        }
      }
      // Defect lookahead: re-route before the plan enters a blocked site.
      // Rescue legs are exempt — entering the blocked region is the point.
      if (!c.rescue &&
          replanner_.enters_blocked_ahead(c.cage_id, t, kLookahead)) {
        if (try_replan(c, target)) {
          emit(EventKind::kRerouted, c);
        } else {
          replanner_.park(c.cage_id, t);  // wait; retried via the parked branch
        }
      }
      // Congestion: a neighbor deviated from plan and keeps blocking us.
      if (c.stall_streak >= kStallReplanAfter) {
        emit(EventKind::kCongestionStall, c);
        if (try_replan(c, target) ||
            (c.rescue && try_replan_relaxed(c, target)))
          emit(EventKind::kRerouted, c);
        c.stall_streak = 0;
      }
    }
  }
  return events;
}

}  // namespace biochip::control
