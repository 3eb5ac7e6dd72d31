#include "control/health.hpp"

#include "common/error.hpp"

namespace biochip::control {

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kNormal: return "normal";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kQuarantined: return "quarantined";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthConfig config, int cols, int rows)
    : config_(config), cols_(cols), rows_(rows),
      strikes_(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows), 0),
      last_strike_(strikes_.size(), 0), quarantined_(strikes_.size(), 0),
      quarantined_at_(strikes_.size(), 0) {
  BIOCHIP_REQUIRE(cols >= 1 && rows >= 1, "health monitor needs a site grid");
  BIOCHIP_REQUIRE(config_.suspect_after_losses >= 1,
                  "suspect threshold must be at least one loss");
  BIOCHIP_REQUIRE(config_.strike_window >= 0, "strike window must be >= 0");
  BIOCHIP_REQUIRE(config_.quarantine_probation >= 0,
                  "quarantine probation must be >= 0");
}

std::size_t HealthMonitor::index(GridCoord site) const {
  BIOCHIP_REQUIRE(site.col >= 0 && site.col < cols_ && site.row >= 0 &&
                      site.row < rows_,
                  "health monitor site out of range");
  return static_cast<std::size_t>(site.row) * static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(site.col);
}

int HealthMonitor::strikes(GridCoord site) const { return strikes_[index(site)]; }

bool HealthMonitor::admission_allowed(int t, int last_admission) const {
  if (!config_.enabled) return true;
  switch (state_) {
    case HealthState::kNormal: return true;
    case HealthState::kDegraded:
      return last_admission < 0 || t - last_admission >= kDegradedAdmissionCooldown;
    case HealthState::kQuarantined: return false;
  }
  return true;
}

std::vector<ControlEvent> HealthMonitor::observe(int t,
                                                 const std::vector<ControlEvent>& window,
                                                 double excess_blocked_fraction) {
  fresh_.clear();
  rehabbed_.clear();
  std::vector<ControlEvent> decisions;
  if (!config_.enabled) return decisions;

  // Probation: quarantines that served their term are lifted and the site's
  // strikes reset. A false positive (transient sensor noise, a stray escape)
  // recovers for good; a genuinely dead electrode re-earns its quarantine as
  // soon as traffic probes it again.
  if (config_.quarantine_probation > 0) {
    for (std::size_t i = 0; i < quarantined_.size(); ++i) {
      if (quarantined_[i] == 0 ||
          t - quarantined_at_[i] <= config_.quarantine_probation)
        continue;
      quarantined_[i] = 0;
      strikes_[i] = 0;
      const GridCoord s{static_cast<int>(i) % cols_,
                        static_cast<int>(i) / cols_};
      rehabbed_.push_back(s);
      decisions.push_back({t, EventKind::kSiteRehabilitated, -1, s});
    }
  }

  // Strike accounting: each confirmed loss or failed recapture at a site is
  // one strike against that site's electrode. At the threshold the whole
  // cage neighborhood is quarantined — a cage parked next to a dead pixel
  // has no counter-phase wall either.
  for (const ControlEvent& e : window) {
    if (e.kind != EventKind::kCellLost && e.kind != EventKind::kRecaptureFailed)
      continue;
    const std::size_t idx = index(e.site);
    if (quarantined_[idx] != 0) continue;  // already decided
    // Stale strikes expire: isolated losses far apart in time are noise,
    // not a dead electrode (which re-strikes within any window).
    if (config_.strike_window > 0 && strikes_[idx] > 0 &&
        t - last_strike_[idx] > config_.strike_window)
      strikes_[idx] = 0;
    last_strike_[idx] = t;
    if (++strikes_[idx] < config_.suspect_after_losses) continue;
    for (int dr = -kQuarantineRing; dr <= kQuarantineRing; ++dr)
      for (int dc = -kQuarantineRing; dc <= kQuarantineRing; ++dc) {
        const GridCoord s{e.site.col + dc, e.site.row + dr};
        if (s.col < 0 || s.col >= cols_ || s.row < 0 || s.row >= rows_) continue;
        const std::size_t ring_idx = index(s);
        if (quarantined_[ring_idx] != 0) continue;
        quarantined_[ring_idx] = 1;
        quarantined_at_[ring_idx] = t;
        fresh_.push_back(s);
      }
    decisions.push_back({t, EventKind::kSiteQuarantined, -1, e.site});
  }

  // One-way ladder on the excess blocked fraction (quarantines above feed
  // the mask the caller reports back next tick, so the ladder reacts one
  // observation later — deliberately conservative, never oscillating).
  if (state_ == HealthState::kNormal &&
      excess_blocked_fraction >= kDegradedBlockedFraction) {
    state_ = HealthState::kDegraded;
    decisions.push_back({t, EventKind::kHealthDegraded, -1, {}});
  }
  if (state_ != HealthState::kQuarantined &&
      excess_blocked_fraction >= config_.quarantined_blocked_fraction) {
    state_ = HealthState::kQuarantined;
    decisions.push_back({t, EventKind::kHealthQuarantined, -1, {}});
  } else if (config_.quarantine_probation > 0) {
    // Probation mode: rehabilitated sites pull the blocked fraction back
    // down, so the ladder may climb again — one rung per observation, with
    // 2x hysteresis so it never oscillates around a threshold.
    if (state_ == HealthState::kQuarantined &&
        excess_blocked_fraction < 0.5 * config_.quarantined_blocked_fraction) {
      state_ = HealthState::kDegraded;
      decisions.push_back({t, EventKind::kHealthRecovered, -1, {}});
    } else if (state_ == HealthState::kDegraded &&
               excess_blocked_fraction < 0.5 * kDegradedBlockedFraction) {
      state_ = HealthState::kNormal;
      decisions.push_back({t, EventKind::kHealthRecovered, -1, {}});
    }
  }
  return decisions;
}

}  // namespace biochip::control
