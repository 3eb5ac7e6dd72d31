#include "chip/device.hpp"

#include "common/error.hpp"
#include "common/units.hpp"

namespace biochip::chip {

BiochipDevice::BiochipDevice(const DeviceConfig& config)
    : config_(config),
      array_(config.cols, config.rows, config.pitch, config.metal_fill) {
  BIOCHIP_REQUIRE(config.chamber_height > 0.0, "chamber height must be positive");
  BIOCHIP_REQUIRE(config.drive_frequency > 0.0, "drive frequency must be positive");
  if (config.drive_amplitude < 0.0) throw ConfigError("drive amplitude must be >= 0");
}

double BiochipDevice::drive_amplitude() const {
  return config_.drive_amplitude > 0.0 ? config_.drive_amplitude : config_.technology.supply;
}

double BiochipDevice::chamber_volume() const {
  const Rect e = array_.extent();
  return e.area() * config_.chamber_height;
}

Aabb BiochipDevice::chamber_bounds() const {
  const Rect e = array_.extent();
  return {{e.min.x, e.min.y, 0.0}, {e.max.x, e.max.y, config_.chamber_height}};
}

std::size_t BiochipDevice::cage_capacity(int spacing) const {
  return cage_lattice(array_, spacing).sites.size();
}

double BiochipDevice::electrode_capacitance() const {
  const double metal_area = array_.footprint({0, 0}).area();
  return constants::eps_r_water * constants::epsilon0 * metal_area / config_.chamber_height;
}

double BiochipDevice::actuation_power(std::size_t dirty_pixels, double pattern_rate) const {
  // Each switching pixel swings its electrode by 2V across C_elec, plus the
  // AC drive continuously displaces charge: P_ac ≈ C V² f_drive per driven
  // electrode (upper bound; the liquid is mostly reactive).
  const double c = electrode_capacitance();
  const double v = drive_amplitude();
  const double p_program = static_cast<double>(dirty_pixels) * c * 4.0 * v * v * pattern_rate;
  const double p_leak = 1e-9 * static_cast<double>(array_.electrode_count());  // 1 nW/pixel
  return p_program + p_leak;
}

double BiochipDevice::core_area() const {
  const Rect e = array_.extent();
  return e.area();
}

bool BiochipDevice::pixel_fits() const {
  return chip::pixel_fits(config_.technology, config_.pitch,
                          config_.programming.state_bits_per_pixel);
}

field::ChamberDomain BiochipDevice::local_domain(int patch, int nodes_per_pitch) const {
  BIOCHIP_REQUIRE(patch >= 3 && patch % 2 == 1, "patch must be odd and >= 3");
  BIOCHIP_REQUIRE(nodes_per_pitch >= 2, "need at least 2 nodes per pitch");
  field::ChamberDomain d;
  d.spacing = config_.pitch / static_cast<double>(nodes_per_pitch);
  d.width_x = static_cast<double>(patch) * config_.pitch;
  d.width_y = d.width_x;
  d.height = config_.chamber_height;
  return d;
}

field::HarmonicCage BiochipDevice::calibrate_cage(int patch, int nodes_per_pitch,
                                                  field::MultigridWorkspace* workspace) const {
  const field::ChamberDomain domain = local_domain(patch, nodes_per_pitch);
  const double v = drive_amplitude();
  const int center = patch / 2;
  const ElectrodeArray local(patch, patch, config_.pitch, config_.metal_fill);
  std::vector<field::ElectrodePatch> patches;
  patches.reserve(local.electrode_count());
  for (int r = 0; r < patch; ++r)
    for (int c = 0; c < patch; ++c) {
      const bool is_cage = (r == center && c == center);
      // Background counter-phase (-V), cage site and lid in-phase (+V).
      patches.push_back({local.footprint({c, r}),
                         is_cage ? std::complex<double>{v, 0.0}
                                 : std::complex<double>{-v, 0.0}});
    }
  field::SolverOptions opts;
  opts.tolerance = 1e-5 * v;
  const field::PhasorSolution sol = field::solve_phasor(
      domain, patches, std::complex<double>{v, 0.0}, opts, nullptr, workspace);

  const Vec2 cage_xy = local.center({center, center});
  const Aabb search{{cage_xy.x - 0.9 * config_.pitch, cage_xy.y - 0.9 * config_.pitch,
                     0.10 * config_.chamber_height},
                    {cage_xy.x + 0.9 * config_.pitch, cage_xy.y + 0.9 * config_.pitch,
                     0.92 * config_.chamber_height}};
  return field::calibrate_cage(sol, search, 0.5 * config_.pitch);
}

BiochipDevice paper_device() {
  using namespace units;
  return BiochipDevice(paper_config_on_node(paper_node()));
}

DeviceConfig paper_config_on_node(const CmosNode& node) {
  using namespace units;
  DeviceConfig cfg;
  cfg.technology = node;
  cfg.cols = 320;
  cfg.rows = 320;
  cfg.pitch = 20.0_um;
  cfg.metal_fill = 0.8;
  cfg.chamber_height = 100.0_um;
  // Below the viable-cell first crossover (~180 kHz in 30 mS/m buffer) so
  // cells experience negative DEP and the closed cages levitate them.
  cfg.drive_frequency = 100.0_kHz;
  cfg.drive_amplitude = 0.0;  // node supply
  cfg.programming = ProgrammingModel{};
  return cfg;
}

}  // namespace biochip::chip
