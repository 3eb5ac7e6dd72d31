#pragma once
/// \file tracker.hpp
/// \brief Per-cage occupancy estimation from sensor detections.
///
/// The tracker is the state estimator between raw detections and the
/// supervisor: each live cage owns one track whose expected position is its
/// trap center. Every supervisory tick the detections are associated to the
/// expected positions by greedy nearest assignment
/// (`sensor::associate_detections`), and per-track hit/miss counters drive a
/// hysteresis state machine — occupied / lost / empty — so a single noisy
/// frame (missed detection, stray cluster) never flips a track: a loss is
/// confirmed after 3 consecutive misses, a (re)capture after 2 consecutive
/// hits. Detections left unmatched after association are the candidate
/// stray cells the supervisor targets for recapture.

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "sensor/detect.hpp"

namespace biochip::control {

/// Track occupancy estimate.
enum class TrackState : std::uint8_t {
  kEmpty,     ///< no cell believed present (and none expected)
  kOccupied,  ///< cell confirmed in the cage
  kLost,      ///< cell believed escaped (confirmed by miss hysteresis)
};

const char* to_string(TrackState state);

/// One confirmed state transition from an update.
struct TrackChange {
  int cage_id = 0;
  TrackState state = TrackState::kOccupied;
};

/// Result of one tracker update.
struct TrackUpdate {
  std::vector<TrackChange> changes;               ///< hysteresis-confirmed flips
  std::vector<std::size_t> unmatched_detections;  ///< indices into `detections`
};

class OccupancyTracker {
 public:
  /// `gate_radius` [m] is the association gate (the closed loop passes the
  /// trap's capture radius).
  explicit OccupancyTracker(double gate_radius);

  /// Register a track for a cage. Initial state is trusted (no hysteresis).
  void add_track(int cage_id, TrackState initial = TrackState::kOccupied);
  void remove_track(int cage_id);

  TrackState state(int cage_id) const;

  /// One frame: `expected[i]` is the trap center of the i-th registered
  /// track in `cage_ids()` order (ascending cage id), one per track.
  /// Associates detections, advances the hit/miss hysteresis, and reports
  /// confirmed transitions plus the detections no track claimed.
  TrackUpdate update(const std::vector<Vec2>& expected,
                     const std::vector<sensor::Detection>& detections);

  /// All registered cage ids, ascending.
  std::vector<int> cage_ids() const;

 private:
  struct Track {
    int cage_id = 0;
    TrackState state = TrackState::kOccupied;
    int hits = 0;    ///< consecutive matched frames
    int misses = 0;  ///< consecutive unmatched frames
  };

  Track& track(int cage_id);
  const Track& track(int cage_id) const;

  double gate_radius_;
  std::vector<Track> tracks_;  ///< sorted by cage_id
};

}  // namespace biochip::control
