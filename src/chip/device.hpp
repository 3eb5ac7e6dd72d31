#pragma once
/// \file device.hpp
/// \brief The assembled biochip device: CMOS die + electrode array + fluidic
/// chamber + AC drive. Facade used by examples, benches, and the platform.

#include <cstddef>

#include "chip/actuation.hpp"
#include "chip/electrode_array.hpp"
#include "chip/technology.hpp"
#include "chip/timing.hpp"
#include "common/geometry.hpp"
#include "field/analytic.hpp"
#include "field/phasor.hpp"

namespace biochip::chip {

/// Static description of a device build.
struct DeviceConfig {
  CmosNode technology;
  int cols = 0;
  int rows = 0;
  double pitch = 0.0;           ///< electrode pitch [m]
  double metal_fill = 0.8;      ///< electrode metal fraction of pitch
  double chamber_height = 0.0;  ///< lid gap [m]
  double drive_frequency = 0.0; ///< AC drive [Hz]
  double drive_amplitude = 0.0; ///< 0 = use technology core supply [V]
  ProgrammingModel programming; ///< digital interface timing
};

/// Assembled device. Owns geometry and derived electrical models; the
/// mutable actuation state lives in CageController / ActuationPattern.
class BiochipDevice {
 public:
  explicit BiochipDevice(const DeviceConfig& config);

  const DeviceConfig& config() const { return config_; }
  const ElectrodeArray& array() const { return array_; }
  double drive_amplitude() const;  ///< actual actuation amplitude [V]

  /// Fluid volume over the array [m³] (claim C1's ~4 µl drop).
  double chamber_volume() const;
  /// Chamber interior as dynamics bounds (z=0 chip surface to lid).
  Aabb chamber_bounds() const;
  /// Cage capacity at a given lattice spacing (claim C1's "tens of
  /// thousands of DEP cages").
  std::size_t cage_capacity(int spacing) const;

  /// Parallel-plate estimate of one electrode's capacitance to the liquid
  /// (through the chamber, to the lid) [F].
  double electrode_capacitance() const;
  /// Dynamic actuation power when `dirty_pixels` switch at `pattern_rate`
  /// plus array leakage floor [W].
  double actuation_power(std::size_t dirty_pixels, double pattern_rate) const;
  /// Die area of the array core [m²].
  double core_area() const;
  /// Whether the per-pixel circuits fit under the electrode pitch.
  bool pixel_fits() const;

  /// Local simulation domain: a patch of `patch` × `patch` electrodes with
  /// `nodes_per_pitch` grid nodes per pitch, full chamber height.
  field::ChamberDomain local_domain(int patch, int nodes_per_pitch) const;

  /// Solve the field of a single centered cage on a local patch and calibrate
  /// the harmonic cage surrogate. `nodes_per_pitch` trades accuracy for time.
  /// `workspace` (optional) caches the multigrid hierarchy across calls: a
  /// whole-array calibration sweep (c1–c6 benches, design-flow explorations)
  /// re-solves the same patch shape per device, so sharing one workspace
  /// stops every device from re-deriving the coarse hierarchy and RAP
  /// operators from scratch.
  field::HarmonicCage calibrate_cage(int patch = 5, int nodes_per_pitch = 8,
                                     field::MultigridWorkspace* workspace = nullptr) const;

 private:
  DeviceConfig config_;
  ElectrodeArray array_;
};

/// The paper's case-study device: 0.35 µm CMOS, 320×320 electrodes at 20 µm
/// pitch (102,400 electrodes), 100 µm lid gap (~4.1 µl), 100 kHz drive
/// (below the viable-cell crossover, so cages act by negative DEP).
BiochipDevice paper_device();

/// Same floorplan on a different node (claim C2 sweeps).
DeviceConfig paper_config_on_node(const CmosNode& node);

}  // namespace biochip::chip
