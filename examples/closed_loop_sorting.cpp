// Closed-loop sorting: the full sense → track → replan → actuate loop on a
// defective chip. A 32×32-site tile carries ≥2% defective pixels (traps
// parked on an unusable site exert no force) plus injected cell-escape
// events. The open-loop baseline executes the same plan blind and loses
// cells; the closed-loop engine watches every cage through the capacitive
// imager, confirms losses with hysteresis, pauses the tow, recaptures the
// stray cell and re-routes online around defects and congestion — and the
// whole episode is bitwise reproducible across serial and pooled execution.
//
// Run:  ./closed_loop_sorting

#include <chrono>
#include <iostream>
#include <memory>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/table.hpp"
#include "control/engine.hpp"
#include "core/threadpool.hpp"
#include "physics/medium.hpp"

using namespace biochip;

namespace {

sensor::CapacitivePixel pixel_for(const chip::BiochipDevice& dev) {
  sensor::CapacitivePixel px;
  px.electrode_area = dev.array().footprint({0, 0}).area();
  px.chamber_height = dev.config().chamber_height;
  px.sense_voltage = dev.drive_amplitude();
  return px;
}

// One self-contained chip world (episodes must not share mutable state).
struct World {
  chip::BiochipDevice dev;
  physics::Medium medium = physics::dep_buffer();
  chip::CageController cages;
  core::ManipulationEngine engine;
  sensor::FrameSynthesizer imager;
  chip::DefectMap defects;
  std::vector<physics::ParticleBody> bodies;
  std::vector<std::pair<int, int>> cage_bodies;
  std::vector<control::CageGoal> goals;

  World(const chip::DeviceConfig& cfg, const field::HarmonicCage& cage)
      : dev(cfg), cages(dev.array(), 2),
        engine(dev, medium, cage, 1.5 * cfg.pitch),
        imager(dev.array(), pixel_for(dev), medium.temperature, 7),
        defects(dev.array()) {}

  void add_cell(GridCoord site, GridCoord goal) {
    const cell::ParticleSpec spec = cell::viable_lymphocyte();
    const int id = cages.create(site);
    bodies.push_back({engine.field_model().trap_center(site), spec.radius, spec.density,
                      spec.dep_prefactor(medium, dev.config().drive_frequency), id});
    cage_bodies.emplace_back(id, static_cast<int>(bodies.size()) - 1);
    goals.push_back({id, goal});
  }
};

std::unique_ptr<World> make_world(const chip::DeviceConfig& cfg,
                                  const field::HarmonicCage& cage) {
  auto world = std::make_unique<World>(cfg, cage);
  // ≥2% defective pixels, seeded; launch/goal neighborhoods kept usable so
  // the episode starts legally (everything in between is the loop's problem).
  Rng defect_rng(515);
  world->defects = chip::sample_defects(world->dev.array(), 0.022, defect_rng);
  const int start_col = 4, goal_col = 27;
  const int rows[6] = {4, 8, 12, 16, 20, 24};
  for (const int row : rows)
    for (const int col : {start_col, goal_col})
      for (int dr = -1; dr <= 1; ++dr)
        for (int dc = -1; dc <= 1; ++dc)
          world->defects.set_state({col + dc, row + dr}, chip::PixelState::kOk);
  for (const int row : rows) world->add_cell({start_col, row}, {goal_col, row});
  return world;
}

}  // namespace

int main() {
  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = 32;
  cfg.rows = 32;
  const field::HarmonicCage cage = chip::BiochipDevice(cfg).calibrate_cage(5, 6);

  control::ControlConfig control_cfg;
  control_cfg.defect_aware_initial = false;  // same blind plan as the baseline
  control_cfg.escape_rate = 0.002;           // random losses, fork-stream seeded
  control_cfg.forced_escapes = {{6, 0}, {14, 3}};  // scripted losses (tick, cage)

  std::cout << "Closed-loop sorting on a 32x32 tile, "
            << make_world(cfg, cage)->defects.defect_count()
            << " defective pixels (2.2%), 6 cells, 2 scripted escapes\n\n";

  Table t({"mode", "delivered", "ticks", "replans", "lost events", "recaptures",
           "ticks/s"});
  control::EpisodeReport reports[2];
  for (const bool closed : {false, true}) {
    auto world = make_world(cfg, cage);
    control::ControlConfig c = control_cfg;
    c.closed_loop = closed;
    control::ClosedLoopEngine engine(world->cages, world->engine, world->imager,
                                     world->defects, 0.4, c);
    Rng rng(90210);
    const auto t0 = std::chrono::steady_clock::now();
    const control::EpisodeReport report =
        engine.run(world->goals, world->bodies, world->cage_bodies, rng.split(),
                   &core::ThreadPool::global());
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    reports[closed ? 1 : 0] = report;
    t.row()
        .cell(closed ? "closed loop" : "open loop")
        .cell(std::to_string(report.delivered_ids.size()) + "/" +
              std::to_string(world->goals.size()))
        .cell(report.ticks)
        .cell(static_cast<int>(report.replans))
        .cell(static_cast<int>(count_events(report.events, control::EventKind::kCellLost)))
        .cell(static_cast<int>(
            count_events(report.events, control::EventKind::kCellRecaptured)))
        .cell(static_cast<double>(report.ticks) / wall, 1);
  }
  t.print(std::cout);

  std::cout << "\nClosed-loop audit trail:\n";
  for (const control::ControlEvent& e : reports[1].events)
    if (e.kind != control::EventKind::kDelivered) std::cout << "  " << e << "\n";

  // Determinism: the pooled episode fan-out must reproduce the serial
  // reference bit for bit (counter-based Rng::fork streams).
  std::vector<Vec3> positions[2];
  for (const bool pooled : {false, true}) {
    auto world = make_world(cfg, cage);
    control::ClosedLoopEngine engine(world->cages, world->engine, world->imager,
                                     world->defects, 0.4, control_cfg);
    std::vector<control::ClosedLoopEngine::Episode> episodes{
        {&engine, world->goals, &world->bodies, world->cage_bodies}};
    Rng rng(90210);
    control::ClosedLoopEngine::run_episodes(
        episodes, rng.split(), pooled ? &core::ThreadPool::global() : nullptr);
    for (const physics::ParticleBody& b : world->bodies)
      positions[pooled].push_back(b.position);
  }
  const bool bitwise = positions[0] == positions[1];
  std::cout << "\nSerial vs pooled execution bitwise identical: "
            << (bitwise ? "yes" : "NO") << "\n";

  const std::size_t goals_n = 6;
  const double closed_rate =
      static_cast<double>(reports[1].delivered_ids.size()) / goals_n;
  const double open_rate =
      static_cast<double>(reports[0].delivered_ids.size()) / goals_n;
  std::cout << "Open loop delivers " << open_rate * 100.0 << " %, closed loop "
            << closed_rate * 100.0 << " % (target >= 95 %).\n";
  return (bitwise && closed_rate >= 0.95 && open_rate < closed_rate) ? 0 : 1;
}
