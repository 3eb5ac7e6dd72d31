#pragma once
/// \file supervisor.hpp
/// \brief Closed-loop policy: react to tracker state and plan deviations.
///
/// The supervisor is pure policy — no physics, no sensing. Each tick it
/// consumes the tracker's confirmed state changes, the unmatched (stray)
/// detections and the engine's stall report, and mutates the replanner:
///  * cell lost from a cage → pause the tow (park) and, once a credible
///    stray detection appears nearby, route the cage to the nearest usable
///    site to that fix (recapture maneuver);
///  * cell recaptured → route the cage back to its delivery goal;
///  * committed path about to enter a defective site → re-route online
///    around the blocked mask;
///  * repeated actuation stalls (congestion from a deviating neighbor) →
///    re-route through the current reservation table.
/// Every reaction is recorded as a `ControlEvent`, so episodes are
/// auditable and failures are explicit, never silent.

#include <cstdint>
#include <vector>

#include "chip/cage.hpp"
#include "chip/defects.hpp"
#include "chip/electrode_array.hpp"
#include "control/events.hpp"
#include "control/replanner.hpp"
#include "control/tracker.hpp"
#include "sensor/detect.hpp"

namespace biochip::control {

/// Supervision mode of one goal cage.
enum class CageMode : std::uint8_t {
  kEnRoute,      ///< following its committed path to the delivery goal
  kPaused,       ///< tow paused after a confirmed loss; waiting for a fix
  kRecapturing,  ///< routed toward a stray detection to re-trap its cell
  kDelivered,    ///< at the goal with a confirmed cell
};

class Supervisor {
 public:
  /// The rescue maneuver (`ControlConfig::rescue`) is on when `replanner`
  /// has rescue sites. `capture_radius` [m] is the trap basin's reach — the
  /// supervisor uses it to judge whether a candidate capture site can
  /// actually pull a stray cell in (a trap exerts zero force beyond it).
  Supervisor(const chip::ElectrodeArray& array, const chip::DefectMap& defects,
             Replanner& replanner, double capture_radius);

  /// Register a cage with its delivery goal (its committed path must already
  /// be in the replanner). Legal mid-episode too — a cross-chamber handoff
  /// admits new cages into a running supervisor.
  void add_cage(int cage_id, GridCoord goal);

  /// Drop a cage from supervision (handed off to another chamber). The
  /// replanner path and tracker entry are the caller's to clean up.
  void remove_cage(int cage_id);
  bool supervises(int cage_id) const;

  CageMode mode(int cage_id) const;
  bool all_delivered() const;

  /// Re-assign a cage's delivery goal mid-episode (transfer escalation to an
  /// alternate port). The cage drops any recapture business and goes back
  /// en route; its parked path is replanned toward the new goal on the next
  /// tick by the standard parked-retry branch.
  void retarget(int cage_id, GridCoord goal);

  /// True while a cage runs a rescue maneuver (empty-cage traversal of
  /// ring-defective sites). The engine keeps the trap of a rescuing cage
  /// energized on any site whose own pixel is healthy.
  bool rescuing(int cage_id) const;

  /// Pre-episode defect check: re-route any cage whose committed path enters
  /// a blocked site within the lookahead of tick 0 (matters when the initial
  /// plan was defect-blind).
  std::vector<ControlEvent> preflight();

  /// One tick of policy, run after actuation + sensing + tracking at tick
  /// `t`. `update` is the tracker's output for this tick's frame,
  /// `detections` the frame's (defect-filtered) detections, `stalled` the
  /// cage ids whose actuation step clashed this tick. Emits events and
  /// updates the replanner; the engine actuates the revised plan from t+1.
  std::vector<ControlEvent> step(int t, const OccupancyTracker& tracker,
                                 const std::vector<sensor::Detection>& detections,
                                 const TrackUpdate& update,
                                 const chip::CageController& cages,
                                 const std::vector<int>& stalled);

 private:
  struct Cage {
    int cage_id = 0;
    GridCoord goal;
    CageMode mode = CageMode::kEnRoute;
    GridCoord recapture_site;
    int recapture_wait = 0;
    int stall_streak = 0;
    int replan_cooldown = 0;  ///< ticks left before another replan attempt
    bool rescue = false;      ///< rescue maneuver in progress (relaxed mask)
  };

  Cage& cage(int cage_id);
  const Cage& cage(int cage_id) const;
  /// True when the detection sits over a healthy pixel (stuck-cage phantoms
  /// and dead-pixel artifacts are rejected via the self-test defect map).
  bool credible_fix(Vec2 position) const;

  const chip::ElectrodeArray& array_;
  const chip::DefectMap& defects_;
  Replanner& replanner_;
  double capture_radius_;
  std::vector<Cage> cages_;  ///< sorted by cage_id
};

}  // namespace biochip::control
