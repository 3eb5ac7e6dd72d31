// Fault-lifecycle tests: deterministic injector schedules, injected-vs-
// observed exact accounting through the orchestrator, transfer retry /
// escalation / deadline discipline (and explicit failure when no port is
// left), per-port transfer queueing, the rescue
// maneuver (with a pocket from the initial map and from mid-episode faults),
// watchdog quarantine, idle-chamber elision equivalence, and
// pooled-vs-serial bitwise identity under randomized fault fuzz.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "chip/fault_injector.hpp"
#include "common/error.hpp"
#include "control/health.hpp"
#include "control/orchestrator.hpp"
#include "core/threadpool.hpp"
#include "fluidic/chamber_network.hpp"
#include "physics/medium.hpp"

namespace biochip::control {
namespace {

// ----------------------------------------------------- injector schedules ----

bool same_fault(const chip::FaultEvent& a, const chip::FaultEvent& b) {
  return a.tick == b.tick && a.kind == b.kind && a.chamber == b.chamber &&
         a.site == b.site && a.port == b.port && a.duration == b.duration;
}

TEST(FaultInjectorTest, ScriptedFireExactlyAndSampledSchedulesAreDeterministic) {
  chip::FaultScheduleConfig cfg;
  cfg.scripted = {
      {5, chip::FaultKind::kElectrodeDead, 0, {3, 3}, -1, 0},
      {5, chip::FaultKind::kPortIntermittent, -1, {}, 0, 10},
      {9, chip::FaultKind::kSensorRowDropout, 1, {0, 4}, -1, 4},
  };
  cfg.rates.electrode_dead = 0.01;
  cfg.rates.sensor_pixel_burst = 0.01;
  cfg.rates.port_intermittent = 0.01;
  const std::vector<chip::ChamberShape> shapes{{16, 16}, {16, 16}};

  const auto collect = [&](const chip::FaultScheduleConfig& schedule,
                           std::uint64_t seed) {
    chip::FaultInjector inj(schedule, shapes, 1, Rng(seed));
    std::vector<chip::FaultEvent> all;
    for (int t = 1; t <= 50; ++t)
      for (const chip::FaultEvent& f : inj.tick(t)) all.push_back(f);
    EXPECT_EQ(inj.injected(), all.size());
    return all;
  };

  const std::vector<chip::FaultEvent> a = collect(cfg, 7);
  const std::vector<chip::FaultEvent> b = collect(cfg, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n)
    EXPECT_TRUE(same_fault(a[n], b[n])) << "event " << n;

  // Scripted entries fire at their exact tick, none earlier.
  std::size_t scripted_seen = 0;
  for (const chip::FaultEvent& f : a) {
    if (f.kind == chip::FaultKind::kElectrodeDead && f.tick == 5 &&
        f.site == GridCoord{3, 3})
      ++scripted_seen;
    if (f.kind == chip::FaultKind::kPortIntermittent && f.port == 0) {
      EXPECT_GE(f.tick, 5);
    }
    if (f.kind == chip::FaultKind::kSensorRowDropout && f.chamber == 1 &&
        f.site.row == 4) {
      EXPECT_EQ(f.duration, 4);
    }
  }
  EXPECT_GE(scripted_seen, 1u);
  EXPECT_EQ(chip::FaultInjector(cfg, shapes, 1, Rng(7)).injected(), 0u);

  // With every rate at zero nothing is sampled: an empty schedule never
  // fires, and a scripted-only schedule fires exactly its script. Every
  // fault-free driver run takes this path.
  chip::FaultScheduleConfig scripted_only;
  scripted_only.scripted = cfg.scripted;
  for (const chip::FaultScheduleConfig& quiet :
       {chip::FaultScheduleConfig{}, scripted_only}) {
    const std::vector<chip::FaultEvent> fired = collect(quiet, 7);
    ASSERT_EQ(fired.size(), quiet.scripted.size());
    for (std::size_t n = 0; n < fired.size(); ++n)
      EXPECT_TRUE(same_fault(fired[n], quiet.scripted[n])) << "event " << n;
  }
}

TEST(FaultInjectorTest, ElectrodeCapBoundsSampledFaults) {
  chip::FaultScheduleConfig cfg;
  cfg.rates.electrode_dead = 0.5;  // ~8 expected per tick on a 16x16 chamber
  cfg.max_electrode_faults_per_chamber = 3;
  chip::FaultInjector inj(cfg, {{16, 16}}, 0, Rng(11));
  std::size_t electrode = 0;
  for (int t = 1; t <= 100; ++t)
    for (const chip::FaultEvent& f : inj.tick(t))
      if (f.kind == chip::FaultKind::kElectrodeDead) ++electrode;
  EXPECT_EQ(electrode, 3u);
  EXPECT_EQ(inj.electrode_faults(0), 3u);
}

// ------------------------------------------------------- episode fixtures ----

sensor::CapacitivePixel pixel_for(const chip::BiochipDevice& dev) {
  sensor::CapacitivePixel px;
  px.electrode_area = dev.array().footprint({0, 0}).area();
  px.chamber_height = dev.config().chamber_height;
  px.sense_voltage = dev.drive_amplitude();
  return px;
}

fluidic::Microchamber chamber_geometry(const chip::DeviceConfig& cfg) {
  fluidic::Microchamber c;
  c.length = cfg.cols * cfg.pitch;
  c.width = cfg.rows * cfg.pitch;
  c.height = cfg.chamber_height;
  return c;
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
  std::vector<CageGoal> goals;

  World(const chip::DeviceConfig& cfg, const field::HarmonicCage& cage)
      : dev(cfg), cages(dev.array(), 2),
        engine(dev, medium, cage, 1.5 * cfg.pitch),
        imager(dev.array(), pixel_for(dev), medium.temperature, 99),
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

  ChamberSetup setup() {
    return {&cages, &engine, &imager, &defects, &bodies, cage_bodies, goals};
  }
};

class FaultFuzzTest : public ::testing::Test {
 protected:
  FaultFuzzTest() {
    cfg_ = chip::paper_config_on_node(chip::paper_node());
    cfg_.cols = 16;
    cfg_.rows = 16;
    cage_ = chip::BiochipDevice(cfg_).calibrate_cage(5, 6);
  }

  std::unique_ptr<World> make_world() const {
    return std::make_unique<World>(cfg_, cage_);
  }

  /// a → b → c chain with ports at {14,8} / {1,8} on each side.
  fluidic::ChamberNetwork chain(std::size_t n) const {
    fluidic::ChamberNetwork net;
    const fluidic::Microchamber geo = chamber_geometry(cfg_);
    for (std::size_t c = 0; c < n; ++c) net.add_chamber(geo, 16, 16);
    for (std::size_t c = 0; c + 1 < n; ++c)
      net.add_port(static_cast<int>(c), {14, 8}, static_cast<int>(c) + 1, {1, 8},
                   500e-6, 60e-6);
    return net;
  }

  chip::DeviceConfig cfg_;
  field::HarmonicCage cage_;
};

// Every injected fault is observable in the audit trail, exactly once, as
// its typed event — the injected-vs-observed accounting contract.
TEST_F(FaultFuzzTest, InjectedVsObservedExactAccounting) {
  fluidic::ChamberNetwork net = chain(2);
  auto w0 = make_world();
  auto w1 = make_world();
  const int cage = w0->add_cell({10, 8});
  const int local = w1->add_cell({4, 3});
  w1->goals.push_back({local, {12, 3}});

  OrchestratorConfig config;
  config.faults.scripted = {
      {1, chip::FaultKind::kPortIntermittent, -1, {}, 0, 2},
      {3, chip::FaultKind::kElectrodeSilentDead, 0, {12, 13}, -1, 0},
      {3, chip::FaultKind::kElectrodeDead, 1, {5, 13}, -1, 0},
      {4, chip::FaultKind::kElectrodeStuckCage, 0, {3, 13}, -1, 0},
      {5, chip::FaultKind::kSensorRowDropout, 0, {0, 14}, -1, 3},
      {6, chip::FaultKind::kSensorPixelBurst, 1, {10, 3}, -1, 2},
  };
  Orchestrator orch(net, config);
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
  const std::vector<TransferGoal> transfers{{0, cage, 1, {12, 8}}};
  const OrchestratorReport report =
      orch.run(chambers, transfers, Rng(404), nullptr);

  ASSERT_TRUE(report.planned);
  ASSERT_EQ(report.injected_faults.size(), 6u);
  std::size_t fault_injected = 0, sensor_fault = 0, port_down = 0,
              port_restored = 0, port_failed = 0;
  for (const EpisodeReport& chamber : report.chambers) {
    fault_injected += count_events(chamber.events, EventKind::kFaultInjected);
    sensor_fault += count_events(chamber.events, EventKind::kSensorFault);
    port_down += count_events(chamber.events, EventKind::kPortDown);
    port_restored += count_events(chamber.events, EventKind::kPortRestored);
    port_failed += count_events(chamber.events, EventKind::kPortFailed);
  }
  EXPECT_EQ(fault_injected, 3u);  // one per electrode fault, announced or not
  EXPECT_EQ(sensor_fault, 2u);
  EXPECT_EQ(port_down, 1u);
  EXPECT_EQ(port_restored, 1u);  // the intermittent outage came back up
  EXPECT_EQ(port_failed, 0u);
  EXPECT_TRUE(report.failed_ports.empty());

  // Faults sat away from the traffic: everything still delivers, and the
  // carried-over ground truth holds both the announced and the silent kill.
  EXPECT_EQ(report.delivered_transfers, (std::vector<std::size_t>{0}));
  EXPECT_EQ(report.chambers[1].delivered_ids, std::vector<int>{local});
  ASSERT_EQ(report.final_truth_defects.size(), 2u);
  EXPECT_EQ(report.final_truth_defects[0].state({12, 13}), chip::PixelState::kDead);
  EXPECT_EQ(report.final_truth_defects[0].state({3, 13}),
            chip::PixelState::kStuckCage);
  EXPECT_EQ(report.final_truth_defects[1].state({5, 13}), chip::PixelState::kDead);
}

// A permanently failed port escalates the transfer to the alternate port of
// the same chamber pair mid-tow; the transfer still delivers.
TEST_F(FaultFuzzTest, PortFailureEscalatesToAlternatePort) {
  fluidic::ChamberNetwork net;
  const fluidic::Microchamber geo = chamber_geometry(cfg_);
  net.add_chamber(geo, 16, 16);
  net.add_chamber(geo, 16, 16);
  net.add_port(0, {14, 8}, 1, {1, 8}, 500e-6, 60e-6);
  net.add_port(0, {14, 10}, 1, {1, 10}, 500e-6, 60e-6);

  auto w0 = make_world();
  auto w1 = make_world();
  const int cage = w0->add_cell({10, 8});

  OrchestratorConfig config;
  config.faults.scripted = {{1, chip::FaultKind::kPortFailed, -1, {}, 0, 0}};
  Orchestrator orch(net, config);
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
  const std::vector<TransferGoal> transfers{{0, cage, 1, {12, 9}}};
  const OrchestratorReport report =
      orch.run(chambers, transfers, Rng(505), nullptr);

  ASSERT_TRUE(report.planned);
  EXPECT_EQ(report.transfers[0].phase, TransferPhase::kDelivered);
  EXPECT_EQ(report.transfers[0].port_id, 1);
  EXPECT_EQ(report.transfers[0].reroutes, 1);
  EXPECT_EQ(report.reroutes, 1u);
  EXPECT_EQ(count_events(report.chambers[0].events, EventKind::kTransferRerouted), 1u);
  EXPECT_EQ(count_events(report.chambers[0].events, EventKind::kPortFailed), 1u);
  EXPECT_EQ(report.failed_ports, std::vector<int>{0});
}

// A transfer whose port fails with no alternate left fails explicitly: one
// `kDeliveryFailed` in its source's trail and `kFailed`, no reroute. Three
// arms: the port fails mid-tow and the pair's other port is dead from the
// start or held by a second transfer from the same chamber (which still
// delivers), or the port fails while the cage waits at it.
TEST_F(FaultFuzzTest, PortFailureWithoutAlternateFailsExplicitly) {
  fluidic::ChamberNetwork net;
  const fluidic::Microchamber geo = chamber_geometry(cfg_);
  net.add_chamber(geo, 16, 16);
  net.add_chamber(geo, 16, 16);
  net.add_port(0, {14, 8}, 1, {1, 8}, 500e-6, 60e-6);
  net.add_port(0, {14, 11}, 1, {1, 11}, 500e-6, 60e-6);

  struct Arm {
    const char* name;
    std::vector<int> failed_ports;
    std::vector<chip::FaultEvent> faults;
    bool second_transfer;
    int fail_tick;  ///< the tick port 0 fails permanently
  };
  const std::vector<Arm> arms{
      {"mid-tow, alternate dead", {1},
       {{1, chip::FaultKind::kPortFailed, -1, {}, 0, 0}}, false, 1},
      {"mid-tow, alternate held", {},
       {{1, chip::FaultKind::kPortFailed, -1, {}, 0, 0}}, true, 1},
      {"at the port, alternate dead", {1},
       {{1, chip::FaultKind::kPortIntermittent, -1, {}, 0, 400},
        {40, chip::FaultKind::kPortFailed, -1, {}, 0, 0}}, false, 40},
  };
  for (const Arm& arm : arms) {
    auto w0 = make_world();
    auto w1 = make_world();
    const int cage = w0->add_cell({10, 8});
    std::vector<TransferGoal> transfers{{0, cage, 1, {12, 6}}};
    if (arm.second_transfer) transfers.push_back({0, w0->add_cell({10, 12}), 1, {12, 12}});

    OrchestratorConfig config;
    config.failed_ports = arm.failed_ports;
    config.faults.scripted = arm.faults;
    Orchestrator orch(net, config);
    std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
    const OrchestratorReport report = orch.run(chambers, transfers, Rng(808), nullptr);

    ASSERT_TRUE(report.planned) << arm.name;
    EXPECT_EQ(report.transfers[0].phase, TransferPhase::kFailed) << arm.name;
    EXPECT_EQ(report.transfers[0].port_id, 0) << arm.name;
    EXPECT_EQ(report.transfers[0].reroutes, 0) << arm.name;
    EXPECT_FALSE(report.transfers[0].timed_out) << arm.name;
    std::size_t failures = 0, requested = 0;
    for (const ControlEvent& e : report.chambers[0].events) {
      if (e.kind == EventKind::kDeliveryFailed) {
        EXPECT_EQ(e.cage_id, cage) << arm.name;
        EXPECT_EQ(e.tick, arm.fail_tick) << arm.name;
        ++failures;
      }
      if (e.kind == EventKind::kTransferRequested && e.cage_id == cage) ++requested;
    }
    EXPECT_EQ(failures, 1u) << arm.name;
    // Only the arm whose port failed at tick 40 had the cage at the port.
    EXPECT_EQ(requested, arm.fail_tick == 1 ? 0u : 1u) << arm.name;
    EXPECT_EQ(count_events(report.chambers[0].events, EventKind::kTransferRerouted), 0u)
        << arm.name;
    std::vector<int> failed_ports{0};
    if (!arm.failed_ports.empty()) failed_ports.push_back(1);
    EXPECT_EQ(report.failed_ports, failed_ports) << arm.name;
    EXPECT_EQ(report.failed_transfers, (std::vector<std::size_t>{0})) << arm.name;
    if (arm.second_transfer) {
      EXPECT_EQ(report.transfers[1].phase, TransferPhase::kDelivered) << arm.name;
      EXPECT_EQ(report.transfers[1].port_id, 1) << arm.name;
    }
  }
}

// A transfer still queued when the budget runs out gets its explicit failure
// too. The only port is down for the whole episode and there is no
// admission deadline, so the first transfer waits at the port to the end and
// the second never leaves the queue: each fails with one event.
TEST_F(FaultFuzzTest, TransferQueuedAtBudgetEndFailsExplicitly) {
  fluidic::ChamberNetwork net = chain(2);
  auto w0 = make_world();
  auto w1 = make_world();
  const int cage_a = w0->add_cell({10, 8});
  const int cage_b = w0->add_cell({6, 8});

  OrchestratorConfig config;
  config.faults.scripted = {{1, chip::FaultKind::kPortIntermittent, -1, {}, 0, 100000}};
  Orchestrator orch(net, config);
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
  const std::vector<TransferGoal> transfers{{0, cage_a, 1, {12, 5}},
                                            {0, cage_b, 1, {12, 11}}};
  const OrchestratorReport report = orch.run(chambers, transfers, Rng(909), nullptr);

  ASSERT_TRUE(report.planned);
  EXPECT_EQ(report.failed_transfers, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(report.transfers[0].phase, TransferPhase::kFailed);
  EXPECT_EQ(report.transfers[1].phase, TransferPhase::kFailed);
  EXPECT_EQ(report.transfers[1].port_id, -1);  // never left the queue
  EXPECT_EQ(report.transfer_requests, 1u);
  EXPECT_EQ(report.admissions, 0u);
  for (const int cage : {cage_a, cage_b}) {
    std::size_t failures = 0;
    for (const ControlEvent& e : report.chambers[0].events)
      if (e.kind == EventKind::kDeliveryFailed && e.cage_id == cage) {
        EXPECT_EQ(e.tick, report.ticks) << "cage " << cage;
        ++failures;
      }
    EXPECT_EQ(failures, 1u) << "cage " << cage;
  }
  EXPECT_TRUE(report.chambers[0].failed_ids.empty());
}

// A long intermittent outage on the only port holds the transfer at the port
// until its admission deadline, which fails it explicitly — no livelock, no
// denial hammering.
TEST_F(FaultFuzzTest, IntermittentPortOutageTimesOutExplicitly) {
  fluidic::ChamberNetwork net = chain(2);
  auto w0 = make_world();
  auto w1 = make_world();
  const int cage = w0->add_cell({10, 8});

  OrchestratorConfig config;
  config.transfer_deadline = 15;
  config.faults.scripted = {{1, chip::FaultKind::kPortIntermittent, -1, {}, 0, 400}};
  Orchestrator orch(net, config);
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
  const std::vector<TransferGoal> transfers{{0, cage, 1, {12, 8}}};
  const OrchestratorReport report =
      orch.run(chambers, transfers, Rng(606), nullptr);

  ASSERT_TRUE(report.planned);
  EXPECT_EQ(report.transfers[0].phase, TransferPhase::kFailed);
  EXPECT_TRUE(report.transfers[0].timed_out);
  EXPECT_EQ(report.timeouts, 1u);
  EXPECT_EQ(report.failed_transfers, (std::vector<std::size_t>{0}));
  EXPECT_EQ(count_events(report.chambers[0].events, EventKind::kPortDown), 1u);
  EXPECT_EQ(count_events(report.chambers[0].events, EventKind::kTransferTimedOut), 1u);
  EXPECT_EQ(count_events(report.chambers[0].events, EventKind::kDeliveryFailed), 1u);
  // Held, not hammered: the outage never produced an admission denial.
  EXPECT_EQ(report.denials, 0u);
}

// Two transfers sharing one source port: the second stages as kQueued (its
// cage parks, goal-less) and only claims the port after the first admission
// — no two cages ever race to one port site. Both deliver.
TEST_F(FaultFuzzTest, SharedSourcePortQueuesSecondTransfer) {
  fluidic::ChamberNetwork net = chain(2);
  auto w0 = make_world();
  auto w1 = make_world();
  const int cage_a = w0->add_cell({10, 8});
  const int cage_b = w0->add_cell({6, 8});

  OrchestratorConfig config;
  Orchestrator orch(net, config);
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
  const std::vector<TransferGoal> transfers{{0, cage_a, 1, {12, 5}},
                                            {0, cage_b, 1, {12, 11}}};
  const OrchestratorReport report =
      orch.run(chambers, transfers, Rng(707), nullptr);

  ASSERT_TRUE(report.planned);
  EXPECT_EQ(report.delivered_transfers, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(report.transfers[0].phase, TransferPhase::kDelivered);
  EXPECT_EQ(report.transfers[1].phase, TransferPhase::kDelivered);
  // The queued transfer's port leg starts only after the first hand-off.
  EXPECT_GT(report.transfers[1].handoff_tick, report.transfers[0].handoff_tick);
  EXPECT_EQ(count_events(report.chambers[0].events, EventKind::kTransferRequested), 2u);
  EXPECT_EQ(report.admissions, 2u);
}

// The rescue maneuver recovers a cell lost into a fully blocked
// neighborhood; without it the loss is terminal. The cell is parked inside a
// pocket whose every site fails ring-usability while its own pixel stays
// healthy, so only a relaxed-mask (empty-cage) approach can reach it.
TEST_F(FaultFuzzTest, RescueRecoversCellFromBlockedNeighborhood) {
  const auto run_once = [&](bool rescue) {
    auto w = make_world();
    // Dead pixels at {7,3}, {9,3}, {8,5}: every site of the 3x3 around
    // {8,4} is ring-blocked, but the {8,4} pixel itself reads fine.
    w->defects.set_state({7, 3}, chip::PixelState::kDead);
    w->defects.set_state({9, 3}, chip::PixelState::kDead);
    w->defects.set_state({8, 5}, chip::PixelState::kDead);
    w->add_cell({8, 7});
    w->goals.push_back({0, {13, 7}});

    ControlConfig config;
    config.rescue = rescue;
    // Scripted escape with an exact heading onto the {8,4} trap center
    // inside the pocket. The displacement applies after tick 1's physics,
    // when the cell has settled on the cage's first route step {9,7} — aim
    // from there, not from the start site.
    const Vec3 from = w->engine.field_model().trap_center({9, 7});
    const Vec3 to = w->engine.field_model().trap_center({8, 4});
    ControlConfig::DirectedEscape de;
    de.tick = 1;
    de.cage_id = 0;
    de.angle = std::atan2(to.y - from.y, to.x - from.x);
    de.distance_pitches = (to - from).norm() / cfg_.pitch;
    config.directed_escapes = {de};

    ClosedLoopEngine engine(w->cages, w->engine, w->imager, w->defects, 0.4, config);
    Rng rng(808);
    return engine.run(w->goals, w->bodies, w->cage_bodies, rng.split(),
                      &core::ThreadPool::global());
  };

  const EpisodeReport with_rescue = run_once(true);
  ASSERT_TRUE(with_rescue.planned);
  EXPECT_EQ(count_events(with_rescue.events, EventKind::kEscapeInjected), 1u);
  EXPECT_GE(count_events(with_rescue.events, EventKind::kRescueStarted), 1u);
  EXPECT_GE(count_events(with_rescue.events, EventKind::kCellRecaptured), 1u);
  EXPECT_EQ(with_rescue.delivered_ids, std::vector<int>{0});
  EXPECT_TRUE(with_rescue.success);

  const EpisodeReport without = run_once(false);
  ASSERT_TRUE(without.planned);
  EXPECT_EQ(count_events(without.events, EventKind::kRescueStarted), 0u);
  EXPECT_GE(count_events(without.events, EventKind::kRecaptureFailed), 1u);
  EXPECT_EQ(without.failed_ids, std::vector<int>{0});
  EXPECT_FALSE(without.success);
}

// The same pocket, but made by announced electrode faults after the episode
// is planned: the rescue replans must route under ring-0 sites rebuilt from
// the faulted belief map. Sites kept from episode start (no defects) would
// let the rescue cage cross the dead pixels, so every tick checks that no
// cage stands on one.
TEST_F(FaultFuzzTest, RescueRoutesAroundFaultsAnnouncedMidEpisode) {
  auto w = make_world();
  w->add_cell({8, 7});
  w->goals.push_back({0, {13, 7}});

  ControlConfig config;
  config.rescue = true;
  const Vec3 from = w->engine.field_model().trap_center({9, 7});
  const Vec3 to = w->engine.field_model().trap_center({8, 4});
  ControlConfig::DirectedEscape de;
  de.tick = 1;
  de.cage_id = 0;
  de.angle = std::atan2(to.y - from.y, to.x - from.x);
  de.distance_pitches = (to - from).norm() / cfg_.pitch;
  config.directed_escapes = {de};

  ClosedLoopEngine engine(w->cages, w->engine, w->imager, w->defects, 0.4, config);
  Rng rng(808);
  EpisodeRuntime rt(engine, w->goals, w->bodies, w->cage_bodies, rng.split(), nullptr);
  ASSERT_TRUE(rt.planned());
  const std::vector<GridCoord> dead{{7, 3}, {9, 3}, {8, 5}};
  for (const GridCoord site : dead)
    rt.apply_electrode_fault(0, site, chip::FaultKind::kElectrodeDead);
  ASSERT_FALSE(rt.site_ok({8, 4}));  // the pocket is ring-blocked in belief

  for (int t = 1; t <= rt.budget(); ++t) {
    rt.tick(t);
    for (const GridCoord site : dead)
      ASSERT_FALSE(rt.site(0) == site) << "tick " << t << " cage on a dead pixel";
    if (rt.all_delivered()) break;
  }
  const EpisodeReport report = rt.finish();
  EXPECT_EQ(count_events(report.events, EventKind::kFaultInjected), 3u);
  EXPECT_GE(count_events(report.events, EventKind::kRescueStarted), 1u);
  EXPECT_GE(count_events(report.events, EventKind::kCellRecaptured), 1u);
  EXPECT_EQ(report.delivered_ids, std::vector<int>{0});
  EXPECT_TRUE(report.success);
}

// ------------------------------------------------------- health watchdog ----

TEST(HealthMonitorTest, StrikesQuarantineTheRegionAndLadderIsOneWay) {
  HealthConfig cfg;
  cfg.enabled = true;
  cfg.suspect_after_losses = 2;
  HealthMonitor monitor(cfg, 16, 16);

  // One strike: suspect, not yet quarantined.
  auto out = monitor.observe(1, {{1, EventKind::kCellLost, 3, {8, 8}}}, 0.0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(monitor.strikes({8, 8}), 1);
  EXPECT_TRUE(monitor.newly_quarantined().empty());

  // Second strike at the same site: the 3x3 region is quarantined.
  out = monitor.observe(2, {{2, EventKind::kRecaptureFailed, 3, {8, 8}}}, 0.0);
  ASSERT_EQ(count_events(out, EventKind::kSiteQuarantined), 1u);
  EXPECT_EQ(monitor.newly_quarantined().size(), 9u);
  EXPECT_EQ(monitor.state(), HealthState::kNormal);

  // The ladder climbs on the excess blocked fraction and never descends.
  out = monitor.observe(3, {}, 0.10);
  EXPECT_EQ(count_events(out, EventKind::kHealthDegraded), 1u);
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor.frames_multiplier(), HealthMonitor::kDegradedFramesBoost);
  out = monitor.observe(4, {}, 0.01);  // fraction back down: state stays
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  out = monitor.observe(5, {}, 0.25);
  EXPECT_EQ(count_events(out, EventKind::kHealthQuarantined), 1u);
  EXPECT_EQ(monitor.state(), HealthState::kQuarantined);

  // Admission policy per rung: degraded throttles, quarantined refuses.
  EXPECT_FALSE(monitor.admission_allowed(100, 99));
  HealthMonitor degraded(cfg, 16, 16);
  degraded.observe(1, {}, 0.10);
  ASSERT_EQ(degraded.state(), HealthState::kDegraded);
  EXPECT_TRUE(degraded.admission_allowed(10, -1));
  EXPECT_FALSE(
      degraded.admission_allowed(10, 10 - HealthMonitor::kDegradedAdmissionCooldown + 1));
  EXPECT_TRUE(degraded.admission_allowed(10, 10 - HealthMonitor::kDegradedAdmissionCooldown));
}

// Open-ended-horizon mode: stale strikes expire, site quarantines serve a
// probation term and recover with their strikes reset, and the ladder climbs
// back one rung per observation with 2x hysteresis. Defaults (window 0,
// probation 0) keep the episode semantics of the test above bit-for-bit.
TEST(HealthMonitorTest, StrikeWindowAndProbationRecoverFalsePositives) {
  HealthConfig cfg;
  cfg.enabled = true;
  cfg.suspect_after_losses = 2;
  cfg.strike_window = 100;
  cfg.quarantine_probation = 50;
  HealthMonitor monitor(cfg, 16, 16);

  // Strikes far apart in time are noise, not a dead electrode: the stale
  // strike expires instead of accumulating toward a quarantine.
  auto out = monitor.observe(1, {{1, EventKind::kCellLost, 3, {8, 8}}}, 0.0);
  EXPECT_TRUE(out.empty());
  out = monitor.observe(150, {{150, EventKind::kCellLost, 4, {8, 8}}}, 0.0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(monitor.strikes({8, 8}), 1);

  // Two strikes inside the window still quarantine promptly...
  out = monitor.observe(160, {{160, EventKind::kRecaptureFailed, 4, {8, 8}}}, 0.0);
  ASSERT_EQ(count_events(out, EventKind::kSiteQuarantined), 1u);
  EXPECT_EQ(monitor.newly_quarantined().size(), 9u);

  // ...and probation lifts the whole ring again, strikes reset, so a false
  // positive recovers for good while a dead electrode re-earns its term.
  out = monitor.observe(211, {}, 0.0);
  EXPECT_EQ(count_events(out, EventKind::kSiteRehabilitated), 9u);
  EXPECT_EQ(monitor.rehabilitated().size(), 9u);
  EXPECT_EQ(monitor.strikes({8, 8}), 0);

  // The ladder descends on a blocked-fraction spike and, in probation mode,
  // climbs back one rung per observation once the fraction drops below half
  // the rung's threshold (2x hysteresis: 0.16 >= 0.20/2 holds the rung).
  out = monitor.observe(300, {}, 0.25);
  EXPECT_EQ(monitor.state(), HealthState::kQuarantined);
  out = monitor.observe(301, {}, 0.16);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(monitor.state(), HealthState::kQuarantined);
  out = monitor.observe(302, {}, 0.08);
  EXPECT_EQ(count_events(out, EventKind::kHealthRecovered), 1u);
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  out = monitor.observe(303, {}, 0.02);
  EXPECT_EQ(count_events(out, EventKind::kHealthRecovered), 1u);
  EXPECT_EQ(monitor.state(), HealthState::kNormal);
}

// The runtime folds watchdog quarantines into its belief mask (routing sees
// them) without ever touching ground truth, and announced vs silent
// electrode faults split exactly along the belief/truth line: a silent fault
// drops the trap it kills while routing still trusts the site, and a
// quarantine refuses routes into its region while the hardware still traps.
TEST_F(FaultFuzzTest, RuntimeFaultHooksSplitBeliefFromTruth) {
  auto w = make_world();
  w->add_cell({3, 8});
  w->goals.push_back({0, {12, 8}});
  w->add_cell({12, 12});  // parked: no goal

  ControlConfig config;
  config.health.enabled = true;
  config.health.suspect_after_losses = 2;
  ClosedLoopEngine engine(w->cages, w->engine, w->imager, w->defects, 0.4, config);
  EpisodeRuntime rt(engine, w->goals, w->bodies, w->cage_bodies, Rng(12), nullptr);
  ASSERT_TRUE(rt.planned());

  // Announced fault: belief AND truth. Silent fault: truth only.
  ASSERT_TRUE(rt.site_ok({6, 3}));
  rt.apply_electrode_fault(1, {6, 3}, chip::FaultKind::kElectrodeDead);
  EXPECT_FALSE(rt.site_ok({6, 3}));
  EXPECT_EQ(rt.truth_defects().state({6, 3}), chip::PixelState::kDead);
  ASSERT_TRUE(rt.site_ok({12, 12}));
  rt.apply_electrode_fault(1, {12, 12}, chip::FaultKind::kElectrodeSilentDead);
  EXPECT_TRUE(rt.site_ok({12, 12}));  // the controller does not know
  EXPECT_EQ(rt.truth_defects().state({12, 12}), chip::PixelState::kDead);
  EXPECT_GT(rt.excess_blocked_fraction(), 0.0);

  // Fabricated tow-failure telemetry at one site: after the strike
  // threshold the watchdog quarantines the region in belief — ground truth
  // (the actual hardware) is untouched.
  rt.record_event({1, EventKind::kCellLost, 0, {9, 12}});
  rt.record_event({1, EventKind::kRecaptureFailed, 0, {9, 12}});
  ASSERT_TRUE(rt.site_ok({9, 12}));
  rt.tick(1);  // the watchdog consumes the audit stream during the tick
  EXPECT_FALSE(rt.site_ok({9, 12}));
  EXPECT_FALSE(rt.site_ok({8, 11}));  // ring-1 region, not just the site
  EXPECT_EQ(rt.truth_defects().state({9, 12}), chip::PixelState::kOk);

  // The tick's trap set follows truth: the parked cage on the silently dead
  // site holds nothing, the towing cage keeps its trap.
  const std::vector<GridCoord>& traps = w->engine.field_model().sites();
  EXPECT_EQ(std::count(traps.begin(), traps.end(), GridCoord{12, 12}), 0);
  EXPECT_EQ(std::count(traps.begin(), traps.end(), rt.site(0)), 1);

  // Routing follows belief: an admission into the quarantined region is
  // refused, one beside it is routed (so the refusal is the region's).
  physics::ParticleBody cell = w->bodies[0];
  cell.position = rt.trap_center({3, 2});
  EXPECT_FALSE(rt.admit_cage({3, 2}, {9, 12}, 2, cell).has_value());
  EXPECT_TRUE(rt.admit_cage({3, 2}, {5, 12}, 2, cell).has_value());

  const EpisodeReport report = rt.finish();
  EXPECT_EQ(count_events(report.events, EventKind::kFaultInjected), 2u);
  EXPECT_EQ(count_events(report.events, EventKind::kSiteQuarantined), 1u);
}

// ------------------------------------------------- elision + determinism ----

// Idle-chamber elision: a finished, unreferenced chamber skips its full
// sense/track/supervise tick. The audit event streams and the global
// accounting are identical with and without elision.
TEST_F(FaultFuzzTest, IdleChamberElisionPreservesEventStreams) {
  const auto run_once = [&](bool elide) {
    fluidic::ChamberNetwork net = chain(3);
    auto w0 = make_world();
    auto w1 = make_world();
    auto w2 = make_world();
    const int cage_a = w0->add_cell({10, 8});
    const int local = w2->add_cell({4, 3});
    w2->goals.push_back({local, {6, 3}});  // chamber 2 finishes early

    OrchestratorConfig config;
    config.elide_idle_chambers = elide;
    Orchestrator orch(net, config);
    std::vector<ChamberSetup> chambers{w0->setup(), w1->setup(), w2->setup()};
    const std::vector<TransferGoal> transfers{{0, cage_a, 1, {12, 8}}};
    return orch.run(chambers, transfers, Rng(909), nullptr);
  };

  const OrchestratorReport off = run_once(false);
  const OrchestratorReport on = run_once(true);
  ASSERT_TRUE(off.planned && on.planned);
  EXPECT_EQ(off.elided_chamber_ticks, 0u);
  EXPECT_GT(on.elided_chamber_ticks, 0u);

  EXPECT_EQ(off.ticks, on.ticks);
  EXPECT_EQ(off.delivered_transfers, on.delivered_transfers);
  EXPECT_EQ(off.admissions, on.admissions);
  EXPECT_EQ(off.denials, on.denials);
  ASSERT_EQ(off.chambers.size(), on.chambers.size());
  for (std::size_t c = 0; c < off.chambers.size(); ++c) {
    const EpisodeReport& a = off.chambers[c];
    const EpisodeReport& b = on.chambers[c];
    EXPECT_EQ(a.delivered_ids, b.delivered_ids) << "chamber " << c;
    EXPECT_EQ(a.failed_ids, b.failed_ids) << "chamber " << c;
    ASSERT_EQ(a.events.size(), b.events.size()) << "chamber " << c;
    for (std::size_t e = 0; e < a.events.size(); ++e) {
      EXPECT_EQ(a.events[e].tick, b.events[e].tick);
      EXPECT_EQ(a.events[e].kind, b.events[e].kind);
      EXPECT_EQ(a.events[e].cage_id, b.events[e].cage_id);
    }
  }
}

// Bitwise identity of pooled vs serial chamber fan-out with the whole fault
// lifecycle armed: sampled faults of five kinds, health monitoring, rescue,
// deadlines, escalation and elision all on.
TEST_F(FaultFuzzTest, PooledBitwiseIdenticalUnderFaultFuzz) {
  const auto run_once = [&](bool pooled) {
    fluidic::ChamberNetwork net = chain(3);
    auto w0 = make_world();
    auto w1 = make_world();
    auto w2 = make_world();
    const int cage_a = w0->add_cell({10, 8});
    const int cage_b = w1->add_cell({3, 12});
    const int local = w2->add_cell({4, 3});
    w2->goals.push_back({local, {12, 3}});

    OrchestratorConfig config;
    config.control.escape_rate = 0.002;
    config.control.rescue = true;
    config.control.health.enabled = true;
    config.transfer_deadline = 80;
    config.elide_idle_chambers = true;
    config.faults.rates.electrode_dead = 0.0005;
    config.faults.rates.electrode_silent_dead = 0.0005;
    config.faults.rates.sensor_row_dropout = 0.001;
    config.faults.rates.sensor_pixel_burst = 0.001;
    config.faults.rates.port_intermittent = 0.001;
    config.faults.max_electrode_faults_per_chamber = 4;
    Orchestrator orch(net, config);
    std::vector<ChamberSetup> chambers{w0->setup(), w1->setup(), w2->setup()};
    const std::vector<TransferGoal> transfers{{0, cage_a, 1, {12, 8}},
                                              {1, cage_b, 2, {12, 10}}};
    Rng rng(424242);
    const OrchestratorReport report =
        orch.run(chambers, transfers, rng.split(),
                 pooled ? &core::ThreadPool::global() : nullptr);

    std::vector<Vec3> positions;
    for (const World* w : {w0.get(), w1.get(), w2.get()})
      for (const physics::ParticleBody& b : w->bodies) positions.push_back(b.position);
    return std::make_pair(report, positions);
  };

  const auto [serial, serial_pos] = run_once(false);
  const auto [pooled, pooled_pos] = run_once(true);

  ASSERT_TRUE(serial.planned);
  ASSERT_EQ(serial_pos.size(), pooled_pos.size());
  for (std::size_t n = 0; n < serial_pos.size(); ++n)
    ASSERT_EQ(serial_pos[n], pooled_pos[n]) << "body " << n;

  EXPECT_EQ(serial.ticks, pooled.ticks);
  EXPECT_EQ(serial.elided_chamber_ticks, pooled.elided_chamber_ticks);
  EXPECT_EQ(serial.transfer_requests, pooled.transfer_requests);
  EXPECT_EQ(serial.admissions, pooled.admissions);
  EXPECT_EQ(serial.denials, pooled.denials);
  EXPECT_EQ(serial.reroutes, pooled.reroutes);
  EXPECT_EQ(serial.timeouts, pooled.timeouts);
  EXPECT_EQ(serial.delivered_transfers, pooled.delivered_transfers);
  EXPECT_EQ(serial.failed_transfers, pooled.failed_transfers);
  ASSERT_EQ(serial.injected_faults.size(), pooled.injected_faults.size());
  for (std::size_t n = 0; n < serial.injected_faults.size(); ++n)
    ASSERT_TRUE(same_fault(serial.injected_faults[n], pooled.injected_faults[n]))
        << "fault " << n;
  ASSERT_EQ(serial.chambers.size(), pooled.chambers.size());
  for (std::size_t c = 0; c < serial.chambers.size(); ++c) {
    const EpisodeReport& a = serial.chambers[c];
    const EpisodeReport& b = pooled.chambers[c];
    EXPECT_EQ(a.delivered_ids, b.delivered_ids) << "chamber " << c;
    EXPECT_EQ(a.failed_ids, b.failed_ids) << "chamber " << c;
    EXPECT_EQ(serial.health[c], pooled.health[c]) << "chamber " << c;
    ASSERT_EQ(a.events.size(), b.events.size()) << "chamber " << c;
    for (std::size_t e = 0; e < a.events.size(); ++e) {
      EXPECT_EQ(a.events[e].tick, b.events[e].tick);
      EXPECT_EQ(a.events[e].kind, b.events[e].kind);
      EXPECT_EQ(a.events[e].cage_id, b.events[e].cage_id);
    }
  }
}

// The tracked whole-chamber field is a pure function of the episode under a
// hostile fault schedule: electrode faults (announced AND silent — both kill
// the trap, so both drop the site's drive and dirty its window; the silent
// one touches ground truth only), sensor overlays, random escapes, rescue
// and the health watchdog all armed. Two runs of the same scenario must
// match tick by tick, grids and solver schedule alike.
TEST_F(FaultFuzzTest, TrackedFieldBitwiseRepeatableUnderFaultFuzz) {
  struct Run {
    std::vector<std::vector<double>> grids;  ///< tracked potential per tick
    field::SolveAccounting accounting;
  };
  const auto run_once = [&] {
    auto w = make_world();
    w->add_cell({3, 8});
    w->add_cell({12, 4});
    w->goals.push_back({0, {12, 8}});
    w->goals.push_back({1, {4, 4}});

    ControlConfig config;
    config.escape_rate = 0.002;
    config.rescue = true;
    config.health.enabled = true;
    config.field_tracking_nodes_per_pitch = 2;
    config.field_tracking.tolerance = 1e-7;
    config.field_tracking.incremental.tolerance = 1e-7;
    config.field_tracking.incremental.reanchor_period = 8;
    ClosedLoopEngine engine(w->cages, w->engine, w->imager, w->defects, 0.4, config);
    EpisodeRuntime rt(engine, w->goals, w->bodies, w->cage_bodies, Rng(424242),
                      nullptr);
    EXPECT_TRUE(rt.planned());

    Run run;
    for (int t = 1; t <= 30; ++t) {
      // Silent kill on cage 0's route: the trap dies, the controller does
      // not know, and the tracked drive drops at the occupied site anyway.
      if (t == 4)
        rt.apply_electrode_fault(t, {6, 8}, chip::FaultKind::kElectrodeSilentDead);
      if (t == 6)
        rt.apply_electrode_fault(t, {12, 6}, chip::FaultKind::kElectrodeDead);
      if (t == 8) rt.begin_sensor_dropout(t, 8, 3);
      if (t == 10) rt.begin_sensor_burst(t, {10, 8}, 3, 2);
      rt.tick(t);
      EXPECT_NE(rt.field_tracker(), nullptr);
      run.grids.push_back(rt.field_tracker()->potential().data());
    }
    run.accounting = rt.field_tracker()->accounting();
    return run;
  };

  const Run first = run_once();
  const Run again = run_once();
  ASSERT_EQ(first.grids.size(), again.grids.size());
  for (std::size_t t = 0; t < first.grids.size(); ++t) {
    ASSERT_EQ(first.grids[t].size(), again.grids[t].size());
    for (std::size_t n = 0; n < first.grids[t].size(); ++n)
      ASSERT_EQ(first.grids[t][n], again.grids[t][n]) << "tick " << t + 1 << " node " << n;
  }
  // Same work, not just the same answer: the schedule of full vs windowed
  // solves is part of the determinism contract.
  EXPECT_EQ(first.accounting.solves, again.accounting.solves);
  EXPECT_EQ(first.accounting.window_solves, again.accounting.window_solves);
  EXPECT_EQ(first.accounting.total_sweeps, again.accounting.total_sweeps);
  // The incremental path actually engaged: windowed solves dominate, full
  // re-anchors stay on the configured cadence.
  EXPECT_GT(first.accounting.window_solves, first.accounting.solves);
  EXPECT_GE(first.accounting.solves, 1u);
}

}  // namespace
}  // namespace biochip::control
