#include "sensor/capacitive.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace biochip::sensor {

double CapacitivePixel::baseline_capacitance() const {
  BIOCHIP_REQUIRE(electrode_area > 0.0, "electrode area must be positive");
  BIOCHIP_REQUIRE(chamber_height > 0.0, "chamber height must be positive");
  const double c_pass =
      passivation_eps_r * constants::epsilon0 * electrode_area / passivation_thickness;
  const double c_liquid = medium_eps_r * constants::epsilon0 * electrode_area / chamber_height;
  return c_pass * c_liquid / (c_pass + c_liquid);
}

double CapacitivePixel::sensing_depth() const {
  return sensing_depth_factor * std::sqrt(electrode_area);
}

double CapacitivePixel::delta_c(double particle_radius, double z, double lateral) const {
  return target_signal(particle_radius, z).at(lateral);
}

CapacitivePixel::TargetSignal CapacitivePixel::target_signal(double particle_radius,
                                                             double z) const {
  BIOCHIP_REQUIRE(particle_radius > 0.0, "particle radius must be positive");
  const double lambda = sensing_depth();
  // Fraction of the fringing sensing volume (area × λ) displaced by the
  // sphere, attenuated exponentially with the gap below the sphere and
  // with a Gaussian lateral falloff over the electrode half-width (`at`).
  const double v_sphere =
      (4.0 / 3.0) * constants::pi * particle_radius * particle_radius * particle_radius;
  const double v_sense = electrode_area * lambda;
  double fill = v_sphere / v_sense;
  if (fill > 1.0) fill = 1.0;
  const double gap = std::max(z - particle_radius, 0.0);
  const double vertical = std::exp(-gap / lambda);
  const double contrast = (medium_eps_r - particle_eps_r) / medium_eps_r;
  return {-baseline_capacitance() * contrast * fill * vertical,
          0.5 * std::sqrt(electrode_area)};
}

double CapacitivePixel::TargetSignal::at(double lateral) const {
  const double lat = std::exp(-0.5 * (lateral / half_width) * (lateral / half_width));
  return amplitude * lat;
}

double CapacitivePixel::frame_noise_sigma(double temperature) const {
  BIOCHIP_REQUIRE(temperature > 0.0, "temperature must be positive");
  BIOCHIP_REQUIRE(sense_voltage > 0.0, "sense voltage must be positive");
  // Both noise sources live in charge: kT/C sampling noise and the amplifier
  // floor. Referring to capacitance divides by the sense voltage, so a
  // higher supply directly buys SNR (paper §2).
  const double c = baseline_capacitance();
  const double q_ktc = std::sqrt(constants::kB * temperature * c);
  const double q_total = std::sqrt(q_ktc * q_ktc + amp_noise_charge * amp_noise_charge);
  return q_total / sense_voltage;
}

double CapacitivePixel::single_frame_snr(double particle_radius, double z,
                                         double temperature) const {
  return std::fabs(delta_c(particle_radius, z, 0.0)) / frame_noise_sigma(temperature);
}

double CapacitivePixel::averaged_snr(double particle_radius, double z, double temperature,
                                     std::size_t n_frames) const {
  BIOCHIP_REQUIRE(n_frames >= 1, "need at least one frame");
  return single_frame_snr(particle_radius, z, temperature) *
         std::sqrt(static_cast<double>(n_frames));
}

std::size_t frames_for_snr(const CapacitivePixel& pixel, double particle_radius, double z,
                           double temperature, double target_snr) {
  BIOCHIP_REQUIRE(target_snr > 0.0, "target SNR must be positive");
  const double single = pixel.single_frame_snr(particle_radius, z, temperature);
  if (single <= 0.0) throw NumericError("particle produces no signal");
  const double n = (target_snr / single) * (target_snr / single);
  return n <= 1.0 ? 1 : static_cast<std::size_t>(std::ceil(n));
}

}  // namespace biochip::sensor
