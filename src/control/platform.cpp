#include "control/platform.hpp"

#include <algorithm>
#include <cmath>

#include "chip/defects.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "core/threadpool.hpp"

namespace biochip::control {

namespace {

sensor::CapacitivePixel pixel_for_device(const chip::BiochipDevice& device) {
  sensor::CapacitivePixel px;
  px.electrode_area = device.array().footprint({0, 0}).area();
  px.chamber_height = device.config().chamber_height;
  px.sense_voltage = device.drive_amplitude();
  return px;
}

}  // namespace

PlatformConfig PlatformConfig::paper_defaults() {
  PlatformConfig cfg;
  cfg.device = chip::paper_config_on_node(chip::paper_node());
  cfg.medium = physics::dep_buffer();
  cfg.scan = sensor::ScanTiming{};
  return cfg;
}

LabOnChipPlatform::LabOnChipPlatform(const PlatformConfig& config)
    : config_(config),
      device_(config.device),
      unit_cage_(device_.calibrate_cage()),
      cages_(device_.array(), config.cage_separation),
      engine_(device_, config.medium, unit_cage_,
              config.capture_radius_pitches * config.device.pitch),
      imager_(device_.array(), pixel_for_device(device_), config.medium.temperature,
              config.seed ^ 0xFEEDFACEull),
      rng_(config.seed) {
  physics::validate(config.medium);
  BIOCHIP_REQUIRE(config.tow_speed > 0.0, "tow speed must be positive");
}

double LabOnChipPlatform::site_period() const {
  return device_.array().pitch() / config_.tow_speed;
}

void LabOnChipPlatform::load_sample(const std::vector<cell::MixtureComponent>& mixture) {
  const Aabb region = device_.chamber_bounds();
  sample_ = cell::draw_population(mixture, region, /*sedimented=*/true, rng_);
  bodies_ = cell::to_bodies(sample_, config_.medium, config_.device.drive_frequency);
  cage_to_body_.clear();
}

std::vector<sensor::Detection> LabOnChipPlatform::detect_cells(std::size_t n_frames,
                                                               double threshold_sigma) {
  std::vector<sensor::FrameTarget> targets;
  targets.reserve(bodies_.size());
  for (const physics::ParticleBody& b : bodies_)
    targets.push_back({b.position, b.radius});
  const Grid2 frame = imager_.averaged_frame(targets, rng_, n_frames);
  const double sigma =
      imager_.cds_noise_sigma() / std::sqrt(static_cast<double>(n_frames));
  return sensor::detect_threshold(frame, device_.array(), threshold_sigma * sigma);
}

double LabOnChipPlatform::acquisition_time(std::size_t n_frames) const {
  return config_.scan.acquisition_time(device_.array(), n_frames);
}

physics::ParticleBody& LabOnChipPlatform::body_for_instance(int instance_id) {
  for (physics::ParticleBody& b : bodies_)
    if (b.id == instance_id) return b;
  throw PreconditionError("unknown sample instance id");
}

void LabOnChipPlatform::refresh_engine_sites() {
  std::vector<GridCoord> sites;
  for (int id : cages_.cage_ids()) sites.push_back(cages_.site(id));
  engine_.field_model().set_sites(std::move(sites));
}

std::optional<int> LabOnChipPlatform::trap_cell(int instance_id) {
  physics::ParticleBody& body = body_for_instance(instance_id);
  if (body.dep_prefactor >= 0.0) return std::nullopt;  // pDEP: no closed cage
  const GridCoord site = device_.array().nearest({body.position.x, body.position.y});
  if (!cages_.can_place(site)) return std::nullopt;
  const int cage_id = cages_.create(site);
  cage_to_body_.emplace_back(cage_id, static_cast<int>(&body - bodies_.data()));
  refresh_engine_sites();
  // Let the cell get pulled off the floor into the trap.
  engine_.settle(body, 4.0 * site_period(), rng_);
  return cage_id;
}

std::optional<int> LabOnChipPlatform::body_in_cage(int cage_id) const {
  for (const auto& [cid, bidx] : cage_to_body_)
    if (cid == cage_id) return bidx;
  return std::nullopt;
}

MoveResult LabOnChipPlatform::move_cell(int cage_id, GridCoord destination) {
  MoveResult result;
  const std::optional<int> body_idx = body_in_cage(cage_id);
  BIOCHIP_REQUIRE(body_idx.has_value(), "cage holds no tracked cell");
  BIOCHIP_REQUIRE(device_.array().contains(destination), "destination outside array");

  // Plan an L-shaped Manhattan path (single-cage; multi-cage planning goes
  // through cad::route_astar in run_assay). Both L orientations are tried:
  // one of them often clears obstacles the other grazes (e.g. a column of
  // parked cages at the destination).
  const GridCoord start = cages_.site(cage_id);
  auto make_l_path = [&](bool col_first) {
    GridCoord cur = start;
    std::vector<GridCoord> path{cur};
    auto walk_cols = [&] {
      while (cur.col != destination.col) {
        cur.col += (destination.col > cur.col) ? 1 : -1;
        path.push_back(cur);
      }
    };
    auto walk_rows = [&] {
      while (cur.row != destination.row) {
        cur.row += (destination.row > cur.row) ? 1 : -1;
        path.push_back(cur);
      }
    };
    if (col_first) {
      walk_cols();
      walk_rows();
    } else {
      walk_rows();
      walk_cols();
    }
    return path;
  };
  auto legal = [&](const std::vector<GridCoord>& path) {
    for (const GridCoord step : path)
      if (!cages_.can_place(step, cage_id)) return false;
    return true;
  };
  std::vector<GridCoord> path = make_l_path(/*col_first=*/true);
  if (!legal(path)) {
    path = make_l_path(/*col_first=*/false);
    if (!legal(path)) {
      result.success = false;
      return result;
    }
  }

  // Exclude the moving cage from the static site set during the tow.
  std::vector<GridCoord> static_sites;
  for (int id : cages_.cage_ids())
    if (id != cage_id) static_sites.push_back(cages_.site(id));
  engine_.field_model().set_sites(std::move(static_sites));

  result.tow = engine_.tow(bodies_[static_cast<std::size_t>(*body_idx)], path,
                           site_period(), rng_);
  result.pattern_updates = path.size() - 1;
  // Each hop rewrites two pixels (old site off, new site on).
  result.electronics_time = static_cast<double>(result.pattern_updates) *
                            config_.device.programming.incremental_program_time(2);
  if (result.tow.retained) {
    for (std::size_t i = 1; i < path.size(); ++i) cages_.move(cage_id, path[i]);
    result.success = true;
  }
  refresh_engine_sites();
  return result;
}

EpisodeReport LabOnChipPlatform::move_cells(const std::vector<CageGoal>& goals) {
  ControlConfig config;
  config.closed_loop = false;
  // Ring 0 on a clean map blocks no site: edge sites lack a full
  // counter-phase ring, but every cage keeps its trap wherever it sits.
  config.defect_ring = 0;
  const chip::DefectMap clean(device_.array());
  ClosedLoopEngine episode(cages_, engine_, imager_, clean, site_period(), config);
  EpisodeReport report = episode.run(goals, bodies_, cage_to_body_, rng_.split(),
                                     &core::ThreadPool::global());
  refresh_engine_sites();
  return report;
}

cad::SynthesisResult LabOnChipPlatform::run_assay(const cad::AssayGraph& graph,
                                                  const cad::ChipResources& resources) const {
  cad::SynthesisConfig cfg;
  cfg.dims = {device_.array().cols(), device_.array().rows()};
  cfg.resources = resources;
  cfg.min_separation = config_.cage_separation;
  cfg.step_period = site_period();
  cfg.seed = config_.seed;
  return cad::synthesize(graph, cfg);
}

}  // namespace biochip::control
