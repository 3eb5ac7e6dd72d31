#pragma once
/// \file platform.hpp
/// \brief `LabOnChipPlatform` — the top-level public API: device + physics +
/// sensing + CAD glued into load / detect / trap / move / report.
///
/// The facade sits in the control layer because its collective move
/// (`move_cells`) runs as an open-loop control episode: `ClosedLoopEngine`
/// with `ControlConfig::closed_loop = false`.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cad/synthesis.hpp"
#include "cell/population.hpp"
#include "chip/cage.hpp"
#include "chip/device.hpp"
#include "control/engine.hpp"
#include "core/simulation.hpp"
#include "physics/medium.hpp"
#include "sensor/detect.hpp"
#include "sensor/frame.hpp"
#include "sensor/scan.hpp"

namespace biochip::control {

/// Platform-wide configuration.
struct PlatformConfig {
  chip::DeviceConfig device;        ///< chip build (see chip::paper_config_on_node)
  physics::Medium medium;           ///< suspending buffer
  sensor::ScanTiming scan;          ///< readout chain
  double tow_speed = 50e-6;         ///< cage drag speed [m/s] (paper: 10-100 µm/s)
  /// Trap basin extent in pitches. Must exceed 1.0: a one-pitch cage hop
  /// momentarily leaves the particle a full pitch from the new trap center,
  /// which must still be inside the basin for the tow to work.
  double capture_radius_pitches = 1.5;
  int cage_separation = 2;          ///< min cage spacing [pitches]
  std::uint64_t seed = 42;          ///< master seed (offsets, dynamics, sampling)

  static PlatformConfig paper_defaults();
};

/// Result of one platform-level cell move.
struct MoveResult {
  bool success = false;
  core::TowReport tow;
  std::size_t pattern_updates = 0;  ///< actuation reprogramming events
  double electronics_time = 0.0;    ///< total programming time [s]
};

/// The assembled lab-on-chip: one instance per experiment.
class LabOnChipPlatform {
 public:
  explicit LabOnChipPlatform(const PlatformConfig& config);

  const PlatformConfig& config() const { return config_; }
  const chip::BiochipDevice& device() const { return device_; }
  const field::HarmonicCage& unit_cage() const { return unit_cage_; }
  chip::CageController& cages() { return cages_; }
  const std::vector<cell::Instance>& sample() const { return sample_; }
  std::vector<physics::ParticleBody>& bodies() { return bodies_; }

  /// Pipette a sample into the chamber: draws the mixture, sediments it,
  /// converts to dynamics bodies at the device drive frequency.
  void load_sample(const std::vector<cell::MixtureComponent>& mixture);

  /// Acquire an n-frame-averaged capacitance image of the current scene and
  /// run threshold detection at `threshold_sigma` × the averaged noise.
  std::vector<sensor::Detection> detect_cells(std::size_t n_frames,
                                              double threshold_sigma = 5.0);

  /// Time spent acquiring those frames [s].
  double acquisition_time(std::size_t n_frames) const;

  /// Create a cage over the sample instance with the given id and pull the
  /// cell into the trap (settle). Returns the cage id, or nullopt if the
  /// site is unavailable (separation) or the cell's DEP is not trapping.
  std::optional<int> trap_cell(int instance_id);

  /// Move a trapped cell to a destination site: routes a single-cage path
  /// (Manhattan), executes it physics-in-the-loop, updates the cage state.
  MoveResult move_cell(int cage_id, GridCoord destination);

  /// Move many trapped cells *simultaneously*: collision-free multi-cage
  /// routing (time-expanded A*) executed one actuation step at a time with
  /// full particle dynamics. The chip's signature parallel operation.
  ///
  /// Runs as one open-loop control episode, with the per-body physics fanned
  /// out over `core::ThreadPool::global()`. The episode sees a clean defect
  /// map and a zero defect ring, so every cage keeps its trap on any site,
  /// edge sites included, as under `move_cell`. Further:
  ///  * delivery is judged once, at the end, on the goal cages only: a goal
  ///    cage is delivered iff it sits at its destination with its cell inside
  ///    the capture basin (the criterion every driver uses). Parked cages
  ///    and the steps in between are not audited;
  ///  * every sample body is integrated each tick, so untrapped cells keep
  ///    evolving during the move;
  ///  * physics draws from the episode's counter-based streams, split once
  ///    from the platform generator per call.
  /// Every goal cage must hold a trapped cell; a destination outside the
  /// array throws `PreconditionError`.
  EpisodeReport move_cells(const std::vector<CageGoal>& goals);

  /// Synthesize an assay onto this chip (dims/step period derived from the
  /// device and tow speed).
  cad::SynthesisResult run_assay(const cad::AssayGraph& graph,
                                 const cad::ChipResources& resources) const;

  /// Index of the body trapped in a cage (tracked by trap_cell/move_cell).
  std::optional<int> body_in_cage(int cage_id) const;

  /// Seconds a cage takes to hop one pitch at the configured tow speed.
  double site_period() const;

 private:
  physics::ParticleBody& body_for_instance(int instance_id);
  void refresh_engine_sites();

  PlatformConfig config_;
  chip::BiochipDevice device_;
  field::HarmonicCage unit_cage_;
  chip::CageController cages_;
  core::ManipulationEngine engine_;
  sensor::FrameSynthesizer imager_;
  std::vector<cell::Instance> sample_;
  std::vector<physics::ParticleBody> bodies_;
  std::vector<std::pair<int, int>> cage_to_body_;  ///< (cage id, body index)
  Rng rng_;
};

}  // namespace biochip::control
