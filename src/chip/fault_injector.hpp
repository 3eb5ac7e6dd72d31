#pragma once
/// \file fault_injector.hpp
/// \brief Deterministic runtime fault schedule for live episodes.
///
/// Every defect in `chip/defects` used to be frozen at episode start; real
/// chips misbehave *while they run* — electrodes die mid-assay, sensor rows
/// drop out, transfer ports jam. The injector turns that into a seeded,
/// tick-driven schedule: scripted faults fire at their exact tick, and
/// Poisson-arrival faults are drawn from counter-based `Rng::fork` streams
/// keyed (chamber | port, tick), so the schedule is bitwise identical for any
/// execution order or worker count — the same determinism contract the rest
/// of the control stack honors (docs/architecture.md).
///
/// The injector only *decides* what fails when; it owns no chip state.
/// The caller (`control::ChamberFleet` and the driver that owns the ports,
/// or a test driving a single `control::EpisodeRuntime`) applies each
/// returned `FaultEvent` to the live world — defect-map mutation, sensor
/// overlay, port health — and records it as a typed `control::ControlEvent`,
/// so tests can account injected vs observed exactly.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"

namespace biochip::chip {

/// What failed. Electrode faults are permanent; sensor and intermittent port
/// faults carry a duration; `kPortFailed` is permanent.
enum class FaultKind : std::uint8_t {
  kElectrodeDead,        ///< self-test catches it: appended to the defect map
  kElectrodeStuckCage,   ///< latch stuck in-phase, announced via the defect map
  kElectrodeSilentDead,  ///< ground truth only — the controller must discover it
  kSensorRowDropout,     ///< one sensor row reads zero for `duration` ticks
  kSensorPixelBurst,     ///< a pixel tile reads phantom ΔC for `duration` ticks
  kPortIntermittent,     ///< transfer port down for `duration` ticks
  kPortFailed,           ///< transfer port down permanently
};

const char* to_string(FaultKind kind);

/// One fully resolved injection. Scripted entries use the same struct (with
/// `tick` = fire tick); sampled entries are resolved by the injector.
struct FaultEvent {
  int tick = 0;
  FaultKind kind = FaultKind::kElectrodeDead;
  int chamber = -1;  ///< -1 for port faults
  GridCoord site;    ///< electrode / tile origin / {0, row} for row dropouts
  int port = -1;     ///< -1 for chamber faults
  int duration = 0;  ///< ticks a transient fault lasts (0 = permanent)
};

/// Poisson arrival rates, per chamber-tick (electrode/sensor kinds) or
/// per port-tick (port kinds). 0 disables a kind.
struct FaultRates {
  double electrode_dead = 0.0;
  double electrode_stuck_cage = 0.0;
  double electrode_silent_dead = 0.0;
  double sensor_row_dropout = 0.0;
  double sensor_pixel_burst = 0.0;
  double port_intermittent = 0.0;
  double port_failed = 0.0;
};

/// Tile side of every pixel burst, scripted or sampled [sites].
inline constexpr int kBurstTile = 3;

/// Sampled transient faults (row dropouts, pixel bursts, intermittent port
/// outages) last fixed spans, set beside the sampler in fault_injector.cpp.
struct FaultScheduleConfig {
  std::vector<FaultEvent> scripted;  ///< fired at their exact tick, in order
  FaultRates rates;
  /// Cap on sampled *electrode* faults per chamber (scripted ones always
  /// fire); 0 = unbounded. Lets a soak accumulate defects to a target
  /// density and then hold it.
  std::size_t max_electrode_faults_per_chamber = 0;
};

/// Per-chamber site-grid shape the injector samples sites from.
struct ChamberShape {
  int cols = 0;
  int rows = 0;
};

/// Seeded, tick-driven fault schedule over a multi-chamber world.
///
/// `tick(t)` returns every fault firing at supervisory tick t: scripted
/// entries first (input order), then sampled ones in ascending (chamber,
/// kind) / (port, kind) order. Sampling draws from
/// `stream.fork(chamber).fork(t)` (chambers) and
/// `stream.fork(n_chambers + port).fork(t)` (ports): the result depends only
/// on (config, shapes, seed, t), never on call interleaving, so serial and
/// pooled runs see the identical schedule. With no positive rate nothing is
/// sampled and `tick` returns the scripted faults alone (none for an empty
/// schedule). Ticks must be queried in strictly increasing order (the
/// electrode-fault cap counts fired faults).
class FaultInjector {
 public:
  FaultInjector(FaultScheduleConfig config, std::vector<ChamberShape> chambers,
                std::size_t n_ports, Rng stream);

  /// All faults firing at tick t (strictly increasing t across calls).
  std::vector<FaultEvent> tick(int t);

  /// Total faults fired so far.
  std::size_t injected() const { return injected_; }
  /// Sampled electrode faults fired so far in one chamber (cap bookkeeping).
  std::size_t electrode_faults(int chamber) const;

 private:
  /// Appends tick t's Poisson-sampled faults to `fired`.
  void sample(int t, std::vector<FaultEvent>& fired);

  FaultScheduleConfig config_;
  std::vector<ChamberShape> chambers_;
  std::size_t n_ports_;
  Rng stream_;
  bool sampling_ = false;  ///< some rate is positive
  std::size_t next_scripted_ = 0;
  int last_tick_ = 0;
  std::size_t injected_ = 0;
  std::vector<std::size_t> electrode_fired_;  ///< per chamber, sampled only
};

}  // namespace biochip::chip
