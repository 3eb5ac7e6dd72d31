#pragma once
/// \file capacitive.hpp
/// \brief Per-pixel capacitive sensing model (after Romani et al., ISSCC
/// 2004, ref [4] of the paper).
///
/// Each electrode doubles as a capacitance probe: the pixel senses the
/// electrode-to-lid capacitance through the liquid. A cell (ε_eff ~ 5 at the
/// sense frequency, vs. ~78.5 for the buffer) displacing liquid above the
/// electrode *reduces* the capacitance. The per-frame noise is kT/C sampling
/// noise plus an amplifier floor; correlated double sampling removes the
/// per-pixel offset, and N-frame averaging buys √N SNR — the paper's
/// "trade time of execution for quality of the results" (claim C4).

#include <cstddef>

#include "common/geometry.hpp"

namespace biochip::sensor {

/// Static electrical model of the capacitive pixel.
struct CapacitivePixel {
  double electrode_area = 0.0;       ///< metal area [m²]
  double chamber_height = 0.0;       ///< electrode-to-lid liquid gap [m]
  double passivation_thickness = 0.3e-6;  ///< dielectric over the metal [m]
  double passivation_eps_r = 7.0;    ///< Si3N4-class passivation
  double medium_eps_r = 78.5;        ///< buffer relative permittivity
  double particle_eps_r = 5.0;       ///< effective cell permittivity at sense freq
  double sense_voltage = 1.0;        ///< sampling reference [V]
  /// Amplifier input noise floor, *charge*-referred [C rms]. The ΔC-referred
  /// noise is this divided by the sense voltage — which is why sensing
  /// dynamic range "benefits from a larger supply voltage" (paper §2).
  double amp_noise_charge = 100e-18;
  double offset_sigma_farads = 3e-15;  ///< per-pixel fixed-pattern offset σ [F]
  double sensing_depth_factor = 0.5;   ///< λ = factor · sqrt(area) fringing depth

  /// Baseline (no particle) pixel capacitance: passivation in series with
  /// the liquid column [F].
  double baseline_capacitance() const;

  /// Characteristic vertical sensing depth λ [m].
  double sensing_depth() const;

  /// Capacitance change for a sphere of radius r whose center sits at height
  /// z above the chip surface and lateral offset `lateral` from the pixel
  /// center [F]. Negative (cell displaces high-ε liquid). Equals
  /// `target_signal(r, z).at(lateral)`.
  double delta_c(double particle_radius, double z, double lateral) const;

  /// `delta_c` split for a walk over many pixels near one particle: the
  /// amplitude depends only on the particle (radius, height), the falloff
  /// only on the lateral offset.
  struct TargetSignal {
    double amplitude = 0.0;   ///< −C₀·contrast·fill·vertical [F]
    double half_width = 0.0;  ///< electrode half-width, the falloff scale [m]
    /// ΔC at lateral offset `lateral` [F]: amplitude × Gaussian falloff.
    double at(double lateral) const;
  };
  /// The per-particle part of `delta_c`, computed once.
  TargetSignal target_signal(double particle_radius, double z) const;

  /// Per-frame random noise σ (kT/C sampling + amplifier floor), ΔC-referred
  /// [F rms] at temperature T [K].
  double frame_noise_sigma(double temperature) const;

  /// SNR of a single-frame detection of the given particle (CDS assumed:
  /// offset removed, random noise remains).
  double single_frame_snr(double particle_radius, double z, double temperature) const;

  /// SNR after averaging n frames (√n improvement on random noise).
  double averaged_snr(double particle_radius, double z, double temperature,
                      std::size_t n_frames) const;
};

/// Frames needed to reach `target_snr` for the given particle (claim C4's
/// time-for-quality trade; rounds up, minimum 1).
std::size_t frames_for_snr(const CapacitivePixel& pixel, double particle_radius, double z,
                           double temperature, double target_snr);

}  // namespace biochip::sensor
