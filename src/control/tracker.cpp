#include "control/tracker.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace biochip::control {

namespace {

/// Occupancy hysteresis: a track changes state only after this many
/// *consecutive* frames agree, so a single noisy frame (one missed
/// detection, one stray cluster) never flips it.
constexpr int kLostAfterMisses = 3;    ///< occupied → lost
constexpr int kOccupiedAfterHits = 2;  ///< (re)capture confirmed

}  // namespace

const char* to_string(TrackState state) {
  switch (state) {
    case TrackState::kEmpty: return "empty";
    case TrackState::kOccupied: return "occupied";
    case TrackState::kLost: return "lost";
  }
  return "unknown";
}

OccupancyTracker::OccupancyTracker(double gate_radius) : gate_radius_(gate_radius) {
  BIOCHIP_REQUIRE(gate_radius > 0.0, "association gate must be positive");
}

void OccupancyTracker::add_track(int cage_id, TrackState initial) {
  const auto it = std::lower_bound(
      tracks_.begin(), tracks_.end(), cage_id,
      [](const Track& t, int id) { return t.cage_id < id; });
  BIOCHIP_REQUIRE(it == tracks_.end() || it->cage_id != cage_id,
                  "track already registered for this cage");
  Track t;
  t.cage_id = cage_id;
  t.state = initial;
  tracks_.insert(it, t);
}

void OccupancyTracker::remove_track(int cage_id) {
  track(cage_id);  // validates
  tracks_.erase(std::remove_if(tracks_.begin(), tracks_.end(),
                               [&](const Track& t) { return t.cage_id == cage_id; }),
                tracks_.end());
}

OccupancyTracker::Track& OccupancyTracker::track(int cage_id) {
  for (Track& t : tracks_)
    if (t.cage_id == cage_id) return t;
  throw PreconditionError("no track for cage " + std::to_string(cage_id));
}

const OccupancyTracker::Track& OccupancyTracker::track(int cage_id) const {
  return const_cast<OccupancyTracker*>(this)->track(cage_id);
}

TrackState OccupancyTracker::state(int cage_id) const { return track(cage_id).state; }

std::vector<int> OccupancyTracker::cage_ids() const {
  std::vector<int> ids;
  ids.reserve(tracks_.size());
  for (const Track& t : tracks_) ids.push_back(t.cage_id);
  return ids;
}

TrackUpdate OccupancyTracker::update(const std::vector<Vec2>& expected,
                                     const std::vector<sensor::Detection>& detections) {
  BIOCHIP_REQUIRE(expected.size() == tracks_.size(),
                  "one expected position per registered track");
  const std::vector<int> assignment =
      sensor::associate_detections(expected, detections, gate_radius_);

  TrackUpdate out;
  std::vector<std::uint8_t> det_used(detections.size(), 0);
  for (std::size_t n = 0; n < tracks_.size(); ++n) {
    Track& t = tracks_[n];
    if (assignment[n] >= 0) {
      det_used[static_cast<std::size_t>(assignment[n])] = 1;
      t.misses = 0;
      ++t.hits;
      if (t.state != TrackState::kOccupied && t.hits >= kOccupiedAfterHits) {
        t.state = TrackState::kOccupied;
        out.changes.push_back({t.cage_id, t.state});
      }
    } else {
      t.hits = 0;
      ++t.misses;
      if (t.state == TrackState::kOccupied && t.misses >= kLostAfterMisses) {
        t.state = TrackState::kLost;
        out.changes.push_back({t.cage_id, t.state});
      }
    }
  }
  for (std::size_t d = 0; d < detections.size(); ++d)
    if (!det_used[d]) out.unmatched_detections.push_back(d);
  return out;
}

}  // namespace biochip::control
