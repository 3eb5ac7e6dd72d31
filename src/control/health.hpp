#pragma once
/// \file health.hpp
/// \brief Per-chamber health monitoring and the graceful-degradation ladder.
///
/// The fault injector (`chip/fault_injector.hpp`) can kill electrodes the
/// chip's self-test never announced; the controller only sees the symptom:
/// cells keep getting lost, and recapture maneuvers keep failing, at the
/// same site. `HealthMonitor` is the watchdog that turns those symptoms into
/// decisions. It consumes the chamber's own audit trail — the same
/// `ControlEvent` stream tests assert on — so it needs no privileged access
/// to ground truth:
///
///  * repeated `kCellLost` / `kRecaptureFailed` events at one site mark the
///    site's electrode as suspect; at `suspect_after_losses` strikes the
///    monitor quarantines the surrounding region (`kSiteQuarantined`). The
///    runtime feeds the quarantined sites into its belief blocked mask and
///    the replanner, so traffic re-routes around the suspected dead zone;
///  * the chamber walks a one-way degradation ladder on the *excess*
///    blocked-site fraction (growth over the episode-start mask): normal →
///    degraded (`kHealthDegraded`: admissions throttled, sensing boosted) →
///    quarantined (`kHealthQuarantined`: no further admissions; the
///    orchestrator re-assigns or terminally fails inbound transfers).
///
/// Everything is a pure function of the event stream and configuration —
/// no RNG, no wall clock — so health decisions preserve the serial-vs-pooled
/// bitwise determinism contract.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "control/events.hpp"

namespace biochip::control {

/// Rung of the degradation ladder. Transitions are one-way within an episode
/// (a watchdog never un-suspects hardware mid-episode; a fresh episode starts
/// normal again). Open-ended streaming runs opt into `quarantine_probation`,
/// under which sites recover after their term and the ladder may climb back
/// one rung at a time with hysteresis (`kHealthRecovered`).
enum class HealthState : std::uint8_t {
  kNormal,       ///< full service
  kDegraded,     ///< admissions throttled, sensing boosted
  kQuarantined,  ///< no admissions; inbound goals re-assigned by the caller
};

const char* to_string(HealthState state);

struct HealthConfig {
  /// Master switch; disabled monitors observe nothing and never leave
  /// kNormal, so default-configured episodes are bitwise unchanged.
  bool enabled = false;
  /// kCellLost / kRecaptureFailed strikes at one site before its
  /// neighborhood is quarantined (a suspected dead electrode the self-test
  /// missed — one loss is weather, repeated losses at one spot are a fault).
  int suspect_after_losses = 2;
  /// Excess blocked-site fraction (growth over the episode-start mask) at
  /// which the chamber quarantines (it degrades at
  /// `HealthMonitor::kDegradedBlockedFraction`).
  double quarantined_blocked_fraction = 0.20;
  /// Ticks after which loss strikes at a site expire (0 = never — episode
  /// semantics, where an episode is short enough that every strike stays
  /// relevant). Open-ended streaming runs set a window: a genuinely dead
  /// electrode re-strikes within any window, but transient sensor noise and
  /// stochastic escapes must not permanently condemn sites over an
  /// unbounded horizon.
  int strike_window = 0;
  /// Ticks a site quarantine lasts before the site is rehabilitated —
  /// unblocked with its strikes reset (`kSiteRehabilitated`), so a false
  /// positive recovers while a genuinely dead electrode simply re-earns its
  /// quarantine at the cost of a few probe cells per probation period.
  /// 0 = permanent (episode semantics). The chamber *ladder* stays one-way
  /// either way; probation keeps the blocked fraction from ratcheting up to
  /// the quarantine rung on open-ended streaming runs.
  int quarantine_probation = 0;
};

/// Chamber-local watchdog. Owned by the chamber's `EpisodeRuntime`, fed once
/// per supervisory tick with the slice of audit events recorded since the
/// previous observation.
class HealthMonitor {
 public:
  /// Half-width of the quarantined square around a suspect site (3×3,
  /// matching the counter-phase ring a cage needs).
  static constexpr int kQuarantineRing = 1;
  /// Excess blocked-site fraction at which the chamber degrades.
  static constexpr double kDegradedBlockedFraction = 0.05;
  /// Frames-per-tick multiplier while degraded or worse (burst sensing:
  /// spend frame budget on SNR when the chamber is suspect).
  static constexpr std::size_t kDegradedFramesBoost = 2;
  /// Min ticks between admissions while degraded (reduced admission rate).
  static constexpr int kDegradedAdmissionCooldown = 6;

  HealthMonitor(HealthConfig config, int cols, int rows);

  const HealthConfig& config() const { return config_; }
  HealthState state() const { return state_; }

  /// Consume one observation window: `window` is the chamber's audit events
  /// recorded since the last call, `excess_blocked_fraction` the growth of
  /// the belief blocked mask over episode start. Returns the decision events
  /// (`kSiteQuarantined` / `kHealthDegraded` / `kHealthQuarantined`, all
  /// with cage_id = -1); sites newly quarantined by this window are in
  /// `newly_quarantined()` until the next call.
  std::vector<ControlEvent> observe(int t, const std::vector<ControlEvent>& window,
                                    double excess_blocked_fraction);

  /// Sites quarantined by the last `observe` (for the caller to fold into
  /// its blocked mask and replanner config).
  const std::vector<GridCoord>& newly_quarantined() const { return fresh_; }

  /// Sites whose quarantine probation expired in the last `observe` (for
  /// the caller to clear from its blocked mask again).
  const std::vector<GridCoord>& rehabilitated() const { return rehabbed_; }

  /// Effective frames-per-tick multiplier for the current rung.
  std::size_t frames_multiplier() const {
    return state_ == HealthState::kNormal ? 1 : kDegradedFramesBoost;
  }

  /// Admission policy for the current rung: quarantined chambers admit
  /// nothing; degraded chambers admit at most once per
  /// `kDegradedAdmissionCooldown` ticks (`last_admission` = tick of the
  /// chamber's most recent admission, or a negative value for none yet).
  bool admission_allowed(int t, int last_admission) const;

  /// Loss strikes recorded against one site so far (test/report hook).
  int strikes(GridCoord site) const;

 private:
  std::size_t index(GridCoord site) const;

  HealthConfig config_;
  int cols_;
  int rows_;
  HealthState state_ = HealthState::kNormal;
  std::vector<int> strikes_;             ///< per site, row-major
  std::vector<int> last_strike_;         ///< tick of last strike, per site
  std::vector<std::uint8_t> quarantined_;  ///< per site, row-major
  std::vector<int> quarantined_at_;      ///< tick the quarantine began
  std::vector<GridCoord> fresh_;
  std::vector<GridCoord> rehabbed_;
};

}  // namespace biochip::control
