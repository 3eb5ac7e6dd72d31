// Tests for the multi-chamber orchestration layer: ChamberNetwork topology,
// end-to-end cross-chamber handoff, admission denial + backoff under
// destination congestion, defect-blocked ports failing explicitly, and
// pooled-vs-serial bitwise identity with >= 3 chambers.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/error.hpp"
#include "control/orchestrator.hpp"
#include "core/threadpool.hpp"
#include "fluidic/chamber_network.hpp"
#include "physics/medium.hpp"

namespace biochip::control {
namespace {

// ------------------------------------------------------- chamber network ----

fluidic::Microchamber chamber_geometry(const chip::DeviceConfig& cfg) {
  fluidic::Microchamber c;
  c.length = cfg.cols * cfg.pitch;
  c.width = cfg.rows * cfg.pitch;
  c.height = cfg.chamber_height;
  return c;
}

TEST(ChamberNetworkTest, TopologyQueriesAndValidation) {
  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = 16;
  cfg.rows = 16;
  const fluidic::Microchamber geo = chamber_geometry(cfg);

  fluidic::ChamberNetwork net;
  const int a = net.add_chamber(geo, 16, 16);
  const int b = net.add_chamber(geo, 16, 16);
  const int c = net.add_chamber(geo, 16, 16);
  const int p0 = net.add_port(a, {14, 8}, b, {1, 8}, 500e-6, 60e-6);
  const int p1 = net.add_port(b, {14, 8}, c, {1, 8}, 500e-6, 60e-6);

  EXPECT_EQ(net.chamber_count(), 3u);
  EXPECT_EQ(net.port_count(), 2u);
  EXPECT_TRUE(net.connected(a, b));
  EXPECT_TRUE(net.connected(b, a));  // ports are bidirectional
  EXPECT_FALSE(net.connected(a, c));
  ASSERT_TRUE(net.port_between(b, c).has_value());
  EXPECT_EQ(*net.port_between(b, c), p1);
  EXPECT_EQ(net.port_site(p0, a), (GridCoord{14, 8}));
  EXPECT_EQ(net.port_site(p0, b), (GridCoord{1, 8}));
  EXPECT_EQ(net.ports_of(b), (std::vector<int>{p0, p1}));
  EXPECT_THROW(net.port_site(p0, c), PreconditionError);

  // Invalid elements are rejected up front.
  EXPECT_THROW(net.add_port(a, {20, 8}, b, {1, 8}, 500e-6, 60e-6), Error);
  EXPECT_THROW(net.add_port(a, {14, 8}, a, {1, 8}, 500e-6, 60e-6), Error);
  EXPECT_THROW(net.add_chamber(geo, 0, 16), ConfigError);

  // The topology doubles as a hydraulic circuit: node ids = chamber ids.
  fluidic::HydraulicNetwork hyd = net.hydraulics(physics::dep_buffer());
  EXPECT_EQ(hyd.node_count(), 3u);
  EXPECT_EQ(hyd.channel_count(), 2u);
  hyd.set_pressure(a, 200.0);
  hyd.set_pressure(c, 0.0);
  const auto sol = hyd.solve();
  EXPECT_GT(sol.channel_flow[0], 0.0);  // a → b → c
  EXPECT_NEAR(sol.channel_flow[0], sol.channel_flow[1], 1e-18);
}

// ------------------------------------------------------ episode fixtures ----

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
  std::vector<CageGoal> goals;

  World(const chip::DeviceConfig& cfg, const field::HarmonicCage& cage)
      : dev(cfg), cages(dev.array(), 2),
        engine(dev, medium, cage, 1.5 * cfg.pitch),
        imager(dev.array(), pixel_for(dev), medium.temperature, 99),
        defects(dev.array()) {}

  // A caged cell without an intra-chamber goal (transfer cages get their
  // port goal from the orchestrator).
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

class OrchestratorTest : public ::testing::Test {
 protected:
  OrchestratorTest() {
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

// A cell caged in chamber 0 is towed to the port, handed off on a
// TransferRequest, admitted and routed by chamber 1's supervisor through its
// own reservation table, and delivered at the final goal — end to end.
TEST_F(OrchestratorTest, HandoffDeliversEndToEnd) {
  fluidic::ChamberNetwork net = chain(2);
  auto w0 = make_world();
  auto w1 = make_world();
  const int cage = w0->add_cell({10, 8});

  OrchestratorConfig config;
  Orchestrator orch(net, config);
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
  const std::vector<TransferGoal> transfers{{0, cage, 1, {12, 8}}};
  const OrchestratorReport report =
      orch.run(chambers, transfers, Rng(2026), nullptr);

  ASSERT_TRUE(report.planned);
  ASSERT_EQ(report.transfers.size(), 1u);
  const TransferOutcome& out = report.transfers[0];
  EXPECT_EQ(out.phase, TransferPhase::kDelivered);
  EXPECT_EQ(report.delivered_transfers, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(report.failed_transfers.empty());
  EXPECT_GE(out.handoff_tick, 1);
  ASSERT_GE(out.dest_cage_id, 0);

  // Audit trail: request in the source chamber, admission + delivery in the
  // destination chamber.
  EXPECT_EQ(count_events(report.chambers[0].events, EventKind::kTransferRequested), 1u);
  EXPECT_EQ(count_events(report.chambers[1].events, EventKind::kTransferAdmitted), 1u);
  EXPECT_EQ(report.transfer_requests, 1u);
  EXPECT_EQ(report.admissions, 1u);

  // The transfer is accounted exactly once, globally: neither chamber's
  // intra-chamber books mention the handed-off cage.
  EXPECT_TRUE(report.chambers[1].delivered_ids.empty());
  EXPECT_TRUE(report.chambers[0].delivered_ids.empty());
  EXPECT_TRUE(report.chambers[0].failed_ids.empty());
  // The cell physically sits in the destination trap basin.
  const Vec3 trap = w1->engine.field_model().trap_center({12, 8});
  ASSERT_FALSE(w1->bodies.empty());
  EXPECT_LE((w1->bodies.back().position - trap).norm(),
            w1->engine.field_model().capture_radius());
}

// Two transfers from different source chambers converge on adjacent port
// sites of one destination: the second admission finds the first cage still
// inside the separation ring and is denied, backs off, and is admitted once
// the first cage moves on. Both deliver.
TEST_F(OrchestratorTest, CongestedDestinationDeniesThenAdmits) {
  fluidic::ChamberNetwork net;
  const fluidic::Microchamber geo = chamber_geometry(cfg_);
  for (int c = 0; c < 3; ++c) net.add_chamber(geo, 16, 16);
  net.add_port(0, {14, 8}, 2, {1, 8}, 500e-6, 60e-6);
  net.add_port(1, {14, 8}, 2, {1, 9}, 500e-6, 60e-6);

  auto w0 = make_world();
  auto w1 = make_world();
  auto w2 = make_world();
  const int cage_a = w0->add_cell({10, 8});
  const int cage_b = w1->add_cell({10, 8});

  OrchestratorConfig config;
  config.transfer_backoff = 4;
  Orchestrator orch(net, config);
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup(), w2->setup()};
  const std::vector<TransferGoal> transfers{{0, cage_a, 2, {12, 6}},
                                            {1, cage_b, 2, {12, 10}}};
  const OrchestratorReport report =
      orch.run(chambers, transfers, Rng(31), nullptr);

  ASSERT_TRUE(report.planned);
  // Both cages reach their ports on the same tick; transfer 0 is admitted
  // first, so transfer 1's port site {1,9} is chebyshev-1 from the fresh
  // cage at {1,8} and must be denied at least once.
  EXPECT_GE(report.denials, 1u);
  EXPECT_GE(report.transfers[1].denials, 1);
  EXPECT_EQ(count_events(report.chambers[1].events, EventKind::kTransferDenied),
            static_cast<std::size_t>(report.transfers[1].denials));
  // Backoff: retries are spaced, not hammered every tick.
  EXPECT_LE(report.transfers[1].requests, 1 + report.transfers[1].denials);
  EXPECT_GE(report.transfers[1].handoff_tick,
            report.transfers[0].handoff_tick + config.transfer_backoff);
  // Congestion is transient: both transfers deliver.
  EXPECT_EQ(report.delivered_transfers, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(report.transfers[0].phase, TransferPhase::kDelivered);
  EXPECT_EQ(report.transfers[1].phase, TransferPhase::kDelivered);
}

// A port whose destination neighborhood fails `site_usable` can never hold
// the receiving cage: the transfer fails explicitly (event + global failure
// accounting), nothing crashes, and unrelated goals still deliver.
TEST_F(OrchestratorTest, DefectBlockedPortFailsExplicitly) {
  fluidic::ChamberNetwork net = chain(2);
  auto w0 = make_world();
  auto w1 = make_world();
  const int cage = w0->add_cell({10, 8});
  // An intra-chamber goal in the destination keeps working throughout.
  const int local = w1->add_cell({4, 3});
  w1->goals.push_back({local, {12, 3}});
  // Kill the destination port pixel: {1,8} fails site_usable.
  w1->defects.set_state({1, 8}, chip::PixelState::kDead);

  OrchestratorConfig config;
  Orchestrator orch(net, config);
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
  const std::vector<TransferGoal> transfers{{0, cage, 1, {12, 8}}};
  const OrchestratorReport report =
      orch.run(chambers, transfers, Rng(77), nullptr);

  ASSERT_TRUE(report.planned);
  EXPECT_EQ(report.transfers[0].phase, TransferPhase::kFailed);
  EXPECT_EQ(report.failed_transfers, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(report.delivered_transfers.empty());
  EXPECT_EQ(report.admissions, 0u);
  // The failure is an explicit event in the source chamber, and the port
  // leg is not double-counted as an intra-chamber delivery there.
  EXPECT_EQ(count_events(report.chambers[0].events, EventKind::kDeliveryFailed), 1u);
  EXPECT_TRUE(report.chambers[0].delivered_ids.empty());
  // The unrelated local goal in the destination chamber still delivered.
  EXPECT_EQ(report.chambers[1].delivered_ids, std::vector<int>{local});

  // Same explicit fail-fast when the *final destination* (not the port) is
  // defect-blocked: no admission can ever route there, so the transfer must
  // not burn the budget in deny/backoff cycles.
  auto w2 = make_world();
  auto w3 = make_world();
  const int cage2 = w2->add_cell({10, 8});
  w3->defects.set_state({12, 8}, chip::PixelState::kDead);
  std::vector<ChamberSetup> chambers2{w2->setup(), w3->setup()};
  const OrchestratorReport report2 =
      orch.run(chambers2, {{0, cage2, 1, {12, 8}}}, Rng(78), nullptr);
  ASSERT_TRUE(report2.planned);
  EXPECT_EQ(report2.transfers[0].phase, TransferPhase::kFailed);
  EXPECT_EQ(report2.failed_transfers, (std::vector<std::size_t>{0}));
  EXPECT_EQ(report2.denials, 0u);  // fail-fast, not deny/backoff
}

// An incomplete chamber setup is rejected before the port staging reads the
// transfer source's defect map.
TEST_F(OrchestratorTest, NullSourceDefectMapIsRejected) {
  fluidic::ChamberNetwork net = chain(2);
  auto w0 = make_world();
  auto w1 = make_world();
  const int cage = w0->add_cell({10, 8});
  Orchestrator orch(net, OrchestratorConfig{});
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
  chambers[0].defects = nullptr;
  EXPECT_THROW(orch.run(chambers, {{0, cage, 1, {12, 8}}}, Rng(5), nullptr),
               PreconditionError);
}

// A destination off the destination chamber's grid is rejected before any
// tick runs: the cage never leaves its start site. ({16, 8} is one column
// past a 16x16 grid; unchecked, its row-major index aliases site {0, 9}.)
TEST_F(OrchestratorTest, TransferDestinationOutsideChamberIsRejected) {
  fluidic::ChamberNetwork net = chain(2);
  auto w0 = make_world();
  auto w1 = make_world();
  const int cage = w0->add_cell({10, 8});
  Orchestrator orch(net, OrchestratorConfig{});
  std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
  EXPECT_THROW(orch.run(chambers, {{0, cage, 1, {16, 8}}}, Rng(6), nullptr),
               PreconditionError);
  EXPECT_EQ(w0->cages.site(cage), (GridCoord{10, 8}));
}

// Bitwise identity of the pooled chamber fan-out vs the serial reference on
// a 3-chamber chain with transfers, intra-chamber goals, scripted and
// random escapes: same trajectories, same event logs, same accounting.
TEST_F(OrchestratorTest, PooledBitwiseIdenticalToSerialWithThreeChambers) {
  const auto run_once = [&](std::size_t max_parts) {
    fluidic::ChamberNetwork net = chain(3);
    auto w0 = make_world();
    auto w1 = make_world();
    auto w2 = make_world();
    const int cage_a = w0->add_cell({10, 8});   // transfer 0 → chamber 1
    const int cage_b = w1->add_cell({3, 12});   // transfer 1 → chamber 2
    const int local = w2->add_cell({4, 3});     // intra-chamber goal
    w2->goals.push_back({local, {12, 3}});

    OrchestratorConfig config;
    config.control.escape_rate = 0.002;
    config.control.forced_escapes = {{3, cage_a}};
    Orchestrator orch(net, config);
    std::vector<ChamberSetup> chambers{w0->setup(), w1->setup(), w2->setup()};
    const std::vector<TransferGoal> transfers{{0, cage_a, 1, {12, 8}},
                                              {1, cage_b, 2, {12, 10}}};
    Rng rng(90210);
    const OrchestratorReport report = orch.run(chambers, transfers, rng.split(),
                                               &core::ThreadPool::global(), max_parts);

    std::vector<Vec3> positions;
    for (const World* w : {w0.get(), w1.get(), w2.get()})
      for (const physics::ParticleBody& b : w->bodies) positions.push_back(b.position);
    return std::make_pair(report, positions);
  };

  const auto [serial, serial_pos] = run_once(1);
  const auto [pooled, pooled_pos] = run_once(0);

  ASSERT_TRUE(serial.planned);
  ASSERT_EQ(serial_pos.size(), pooled_pos.size());
  for (std::size_t n = 0; n < serial_pos.size(); ++n)
    ASSERT_EQ(serial_pos[n], pooled_pos[n]) << "body " << n;

  EXPECT_EQ(serial.ticks, pooled.ticks);
  EXPECT_EQ(serial.transfer_requests, pooled.transfer_requests);
  EXPECT_EQ(serial.admissions, pooled.admissions);
  EXPECT_EQ(serial.denials, pooled.denials);
  EXPECT_EQ(serial.delivered_transfers, pooled.delivered_transfers);
  EXPECT_EQ(serial.failed_transfers, pooled.failed_transfers);
  ASSERT_EQ(serial.chambers.size(), pooled.chambers.size());
  for (std::size_t c = 0; c < serial.chambers.size(); ++c) {
    const EpisodeReport& a = serial.chambers[c];
    const EpisodeReport& b = pooled.chambers[c];
    EXPECT_EQ(a.delivered_ids, b.delivered_ids) << "chamber " << c;
    EXPECT_EQ(a.failed_ids, b.failed_ids) << "chamber " << c;
    ASSERT_EQ(a.events.size(), b.events.size()) << "chamber " << c;
    for (std::size_t e = 0; e < a.events.size(); ++e) {
      EXPECT_EQ(a.events[e].tick, b.events[e].tick);
      EXPECT_EQ(a.events[e].kind, b.events[e].kind);
      EXPECT_EQ(a.events[e].cage_id, b.events[e].cage_id);
    }
  }
  // The episode actually exercised the cross-chamber machinery.
  EXPECT_EQ(serial.transfer_requests, 2u);
  EXPECT_EQ(serial.admissions, 2u);
}

}  // namespace
}  // namespace biochip::control
