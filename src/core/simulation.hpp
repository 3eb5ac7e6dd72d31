#pragma once
/// \file simulation.hpp
/// \brief Coupled actuation ↔ particle-dynamics simulation.
///
/// Whole-array field solves per actuation step are intractable at 100k
/// electrodes, and unnecessary: a cage's near field is translation-invariant
/// across the uniform array. The engine therefore calibrates the harmonic
/// cage surrogate once (full local solve, see BiochipDevice::calibrate_cage)
/// and evaluates every active cage as a translated copy; outside all cages
/// the background field is laterally uniform (zero DEP drive, gravity only).
/// The surrogate-vs-solver error is quantified in `bench_field_solver`.

#include <cstdint>
#include <optional>
#include <vector>

#include "chip/cage.hpp"
#include "chip/device.hpp"
#include "common/rng.hpp"
#include "field/analytic.hpp"
#include "physics/dynamics.hpp"
#include "physics/medium.hpp"

namespace biochip::core {

/// ∇E_rms² field assembled from translated copies of a calibrated unit cage.
///
/// Traps sit on the regular electrode pitch grid, so the nearest active cage
/// is found by rounding the query position to site coordinates and probing
/// the few sites whose centers can lie within the capture radius against a
/// flat hash set of active sites — O(1) per query, independent of how many
/// cages are live. That is what keeps whole-array episodes (thousands of
/// simultaneous cages, claim C1) linear in cage count.
class CageFieldModel {
 public:
  /// `unit`: calibrated cage (its center defines the per-site offset).
  /// `pitch`: electrode pitch; `capture_radius`: quadratic-region extent.
  CageFieldModel(const field::HarmonicCage& unit, double pitch, double capture_radius);

  const field::HarmonicCage& unit() const { return unit_; }
  double capture_radius() const { return capture_radius_; }

  /// Trap center (in chamber coordinates) for a cage parked at `site`.
  Vec3 trap_center(GridCoord site) const;

  /// Replace the active cage site list (one entry per live cage). When the
  /// new list has the same length as the current one and differs in only a
  /// few positions (the tow / parallel-transport pattern: one cage moves per
  /// hop, everyone else stays parked), the spatial index is updated
  /// incrementally — one erase + one insert per changed entry — instead of
  /// being rebuilt, so per-hop cost stops scaling with the live cage count.
  /// Any other change falls back to a full O(sites) rebuild.
  void set_sites(std::vector<GridCoord> sites);
  const std::vector<GridCoord>& sites() const { return sites_; }

  /// ∇E_rms² at p: the nearest active cage within the capture radius
  /// dominates; elsewhere the drive is zero (uniform background field).
  /// O(1): probes the spatial hash around p. Exact distance ties go to the
  /// smallest (row, col) site — the same deterministic rule on every path,
  /// so the hashed scan and the linear oracle agree even at midpoints
  /// exactly equidistant between trap centers.
  Vec3 grad_erms2(Vec3 p) const;

  /// Reference implementation: linear scan over the active site list. Same
  /// field as grad_erms2, including tie-breaking; kept as the equivalence
  /// oracle for tests.
  Vec3 grad_erms2_linear(Vec3 p) const;

  /// The model as a `physics::FieldGradient`: grad_erms2.
  Vec3 operator()(Vec3 p) const { return grad_erms2(p); }

  /// Basin certificate for the integrator's exact period advance (this
  /// makes the model a `physics::HarmonicBasinField`): the trap whose drive
  /// grad_erms2 returns at every point of `box` — within the capture radius
  /// of the whole box, and strictly nearer than every other active trap
  /// anywhere in it — as the unit cage moved to that trap's center. Nullopt
  /// when no single trap qualifies; exact ties (the tow-hop midpoint) do
  /// not, and duplicate sites count as one trap. Probes the spatial hash
  /// over the box dilated by the capture radius, with one half-space test
  /// per rival trap.
  std::optional<field::HarmonicCage> harmonic_basin(const Aabb& box) const;

 private:
  /// O(1) membership probe of the active-site hash set.
  bool site_active(GridCoord site) const;
  /// Visit every active site whose trap can lie within the capture radius
  /// of some point of `box` (grad_erms2 passes a point): the hashed probe
  /// of the box dilated by the capture radius, or a scan of the whole site
  /// list (duplicates repeat) when that box spans more candidate sites than
  /// there are active cages.
  template <typename Visit>
  void for_each_site_near(const Aabb& box, Visit&& visit) const;
  /// Drive field of the cage parked at `center`, evaluated at p.
  Vec3 drive_from(Vec3 center, Vec3 p) const;
  void rebuild_index();
  void insert_key(std::uint64_t key);
  void erase_key(std::uint64_t key);

  field::HarmonicCage unit_;
  double pitch_;
  double capture_radius_;
  std::vector<GridCoord> sites_;

  // Flat open-addressed hash multiset of active sites (power-of-two slots,
  // linear probing; load factor <= 0.5). Each slot carries the multiplicity
  // of its key (duplicate sites in the list are legal), and deletion uses
  // backward shifting so probe chains never need tombstones.
  std::vector<std::uint64_t> slot_key_;
  std::vector<std::uint32_t> slot_count_;
  std::vector<std::uint8_t> slot_used_;
  std::size_t slot_mask_ = 0;
};

/// Outcome of dragging one cage (with its trapped particle) along a path.
struct TowReport {
  bool retained = true;        ///< particle stayed within the capture radius
  double max_lag = 0.0;        ///< worst particle-to-trap distance [m]
  double elapsed = 0.0;        ///< wall-clock time of the manipulation [s]
  std::size_t steps = 0;       ///< cage steps executed
  Vec3 final_position;         ///< particle position at the end
};

/// Physics-in-the-loop cage tow: advance the cage one site at a time at
/// `site_period` per step, integrating the particle between steps.
class ManipulationEngine {
 public:
  ManipulationEngine(const chip::BiochipDevice& device, const physics::Medium& medium,
                     const field::HarmonicCage& unit_cage, double capture_radius);

  const CageFieldModel& field_model() const { return field_; }
  /// Mutable access for callers that manage the active cage set themselves
  /// (e.g. control::EpisodeRuntime publishing each tick's trap sites).
  CageFieldModel& field_model() { return field_; }
  physics::OverdampedIntegrator& integrator() { return integrator_; }

  /// Tow a particle along a site path (adjacent sites). The cage dwells
  /// `site_period` seconds per hop; the particle is integrated with the
  /// engine's dt. Other active cages (field_model().sites()) stay static.
  TowReport tow(physics::ParticleBody& particle, const std::vector<GridCoord>& path,
                double site_period, Rng& rng);

  /// Let a free (untrapped) particle settle for `duration` seconds: one
  /// period advance through the field model, so a particle already deep in
  /// a trap's basin takes the integrator's exact path.
  void settle(physics::ParticleBody& particle, double duration, Rng& rng);

 private:
  CageFieldModel field_;
  physics::OverdampedIntegrator integrator_;
};

}  // namespace biochip::core
