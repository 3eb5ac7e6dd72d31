// Multi-chamber sorting: per-chamber supervisors + shared transfer
// arbitration on a 3-chamber lab-on-chip chain. Each 16x16-site chamber
// carries ~2% defective pixels and runs its own closed loop (sense → track →
// replan → actuate); cross-chamber deliveries tow the cage to a fluidic
// transfer port, raise a TransferRequest, and the destination chamber
// admits, routes through its own reservation table, and supervises the final
// leg — denying with backoff while the port neighborhood is congested. The
// open-loop baseline executes the same plans and blind hand-offs without
// feedback and loses cells; the whole multi-chamber episode is bitwise
// reproducible across serial and pooled chamber execution.
//
// Run:  ./multi_chamber_sorting

#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/table.hpp"
#include "control/orchestrator.hpp"
#include "core/threadpool.hpp"
#include "fluidic/chamber_network.hpp"
#include "physics/medium.hpp"

using namespace biochip;

namespace {

constexpr int kSide = 16;
constexpr int kChambers = 3;

sensor::CapacitivePixel pixel_for(const chip::BiochipDevice& dev) {
  sensor::CapacitivePixel px;
  px.electrode_area = dev.array().footprint({0, 0}).area();
  px.chamber_height = dev.config().chamber_height;
  px.sense_voltage = dev.drive_amplitude();
  return px;
}

// One self-contained chamber world (chambers must not share mutable state).
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

  int add_cell(GridCoord site) {
    const cell::ParticleSpec spec = cell::viable_lymphocyte();
    const int id = cages.create(site);
    bodies.push_back({engine.field_model().trap_center(site), spec.radius,
                      spec.density,
                      spec.dep_prefactor(medium, dev.config().drive_frequency), id});
    cage_bodies.emplace_back(id, static_cast<int>(bodies.size()) - 1);
    return id;
  }

  void keep_usable(GridCoord site) {
    for (int dr = -1; dr <= 1; ++dr)
      for (int dc = -1; dc <= 1; ++dc)
        defects.set_state({site.col + dc, site.row + dr}, chip::PixelState::kOk);
  }

  control::ChamberSetup setup() {
    return {&cages, &engine, &imager, &defects, &bodies, cage_bodies, goals};
  }
};

struct Scenario {
  std::vector<std::unique_ptr<World>> worlds;
  std::vector<control::ChamberSetup> chambers;
  std::vector<control::TransferGoal> transfers;
  std::size_t goal_count = 0;
};

// 3-chamber chain: two cross-chamber transfers (0→1, 1→2) plus one local
// delivery per chamber, ~2% defective pixels per chamber, one scripted
// escape on a transfer cage and a small random escape rate.
Scenario make_scenario(const chip::DeviceConfig& cfg, const field::HarmonicCage& cage) {
  Scenario s;
  for (int c = 0; c < kChambers; ++c) {
    s.worlds.push_back(std::make_unique<World>(cfg, cage));
    World& w = *s.worlds.back();
    Rng defect_rng(600 + static_cast<std::uint64_t>(c));
    w.defects = chip::sample_defects(w.dev.array(), 0.02, defect_rng);
    w.keep_usable({14, 8});  // port sites of the chain
    w.keep_usable({1, 8});
  }
  // Local deliveries (one per chamber).
  for (int c = 0; c < kChambers; ++c) {
    World& w = *s.worlds[static_cast<std::size_t>(c)];
    w.keep_usable({3, 3});
    w.keep_usable({12, 12});
    const int id = w.add_cell({3, 3});
    w.goals.push_back({id, {12, 12}});
    ++s.goal_count;
  }
  // Cross-chamber transfers: chamber 0 → 1 and 1 → 2.
  for (int c = 0; c + 1 < kChambers; ++c) {
    World& src = *s.worlds[static_cast<std::size_t>(c)];
    World& dst = *s.worlds[static_cast<std::size_t>(c) + 1];
    src.keep_usable({3, 8});
    dst.keep_usable({11, 8});
    const int id = src.add_cell({3, 8});
    s.transfers.push_back({c, id, c + 1, {11, 8}});
    ++s.goal_count;
  }
  for (auto& w : s.worlds) s.chambers.push_back(w->setup());
  return s;
}

fluidic::ChamberNetwork make_network(const chip::DeviceConfig& cfg) {
  fluidic::ChamberNetwork net;
  fluidic::Microchamber geo;
  geo.length = cfg.cols * cfg.pitch;
  geo.width = cfg.rows * cfg.pitch;
  geo.height = cfg.chamber_height;
  for (int c = 0; c < kChambers; ++c) net.add_chamber(geo, kSide, kSide);
  for (int c = 0; c + 1 < kChambers; ++c)
    net.add_port(c, {14, 8}, c + 1, {1, 8}, 500e-6, 60e-6);
  return net;
}

std::size_t delivered_total(const control::OrchestratorReport& r) {
  std::size_t n = r.delivered_transfers.size();
  for (const control::EpisodeReport& c : r.chambers) n += c.delivered_ids.size();
  return n;
}

}  // namespace

int main() {
  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = kSide;
  cfg.rows = kSide;
  const field::HarmonicCage cage = chip::BiochipDevice(cfg).calibrate_cage(5, 6);
  const fluidic::ChamberNetwork net = make_network(cfg);

  control::OrchestratorConfig base;
  base.control.defect_aware_initial = false;  // same blind plans as the baseline
  base.control.escape_rate = 0.002;
  // Scripted losses at tick 5 on cage id 1 — the transfer cage of chambers
  // 0 and 1 (cage ids are per chamber; chamber 2 has no cage 1).
  base.control.forced_escapes = {{5, 1}};

  // The fluidic side of the same topology: port channel flow under 2 mbar.
  fluidic::HydraulicNetwork hyd = net.hydraulics(physics::dep_buffer());
  hyd.set_pressure(0, 200.0);
  hyd.set_pressure(kChambers - 1, 0.0);
  const auto flow = hyd.solve();
  std::cout << "3-chamber chain, " << net.port_count() << " transfer ports; "
            << "port channel flow at 2 mbar head: " << flow.channel_flow[0] * 1e12
            << " pl/s\n\n";

  Table t({"mode", "delivered", "handoffs", "denials", "ticks", "ticks/s"});
  control::OrchestratorReport reports[2];
  for (const bool closed : {false, true}) {
    Scenario s = make_scenario(cfg, cage);
    control::OrchestratorConfig config = base;
    config.control.closed_loop = closed;
    control::Orchestrator orch(net, config);
    Rng rng(90210);
    const auto t0 = std::chrono::steady_clock::now();
    const control::OrchestratorReport report =
        orch.run(s.chambers, s.transfers, rng.split(), &core::ThreadPool::global());
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    reports[closed ? 1 : 0] = report;
    t.row()
        .cell(closed ? "closed loop" : "open loop")
        .cell(std::to_string(delivered_total(report)) + "/" +
              std::to_string(s.goal_count))
        .cell(std::to_string(report.admissions) + "/" +
              std::to_string(report.transfers.size()))
        .cell(static_cast<int>(report.denials))
        .cell(report.ticks)
        .cell(static_cast<double>(report.ticks) / wall, 1);
  }
  t.print(std::cout);

  std::cout << "\nClosed-loop transfer audit (chamber logs):\n";
  for (std::size_t c = 0; c < reports[1].chambers.size(); ++c)
    for (const control::ControlEvent& e : reports[1].chambers[c].events)
      if (e.kind == control::EventKind::kTransferRequested ||
          e.kind == control::EventKind::kTransferAdmitted ||
          e.kind == control::EventKind::kTransferDenied ||
          e.kind == control::EventKind::kCellLost ||
          e.kind == control::EventKind::kCellRecaptured)
        std::cout << "  chamber " << c << ": " << e << "\n";

  // Determinism: pooled chamber fan-out must reproduce the serial reference
  // bit for bit (disjoint per-chamber fork-stream spaces + serial
  // arbitration).
  std::vector<Vec3> positions[2];
  for (const bool pooled : {false, true}) {
    Scenario s = make_scenario(cfg, cage);
    control::Orchestrator orch(net, base);
    Rng rng(90210);
    orch.run(s.chambers, s.transfers, rng.split(),
             pooled ? &core::ThreadPool::global() : nullptr);
    for (const auto& w : s.worlds)
      for (const physics::ParticleBody& b : w->bodies)
        positions[pooled].push_back(b.position);
  }
  const bool bitwise = positions[0] == positions[1];
  std::cout << "\nSerial vs pooled chamber execution bitwise identical: "
            << (bitwise ? "yes" : "NO") << "\n";

  const std::size_t open_delivered = delivered_total(reports[0]);
  const std::size_t closed_delivered = delivered_total(reports[1]);
  const std::size_t handoffs = reports[1].delivered_transfers.size();
  std::cout << "Open loop delivers " << open_delivered << ", closed loop "
            << closed_delivered << " of 5 goals; " << handoffs
            << "/2 cross-chamber handoffs delivered.\n";
  return (bitwise && handoffs >= 1 && closed_delivered > open_delivered &&
          closed_delivered >= 4)
             ? 0
             : 1;
}
