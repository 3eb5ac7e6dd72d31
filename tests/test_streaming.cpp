// Tests for the open-system streaming mode: arrival-process purity, pooled
// vs serial bitwise identity, idle-chamber elision equivalence, bounded
// residency under slot recycling, typed load shedding at 2x overload, and
// the one-admission-per-chamber-per-tick rule.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/error.hpp"
#include "control/streaming.hpp"
#include "core/threadpool.hpp"
#include "fluidic/chamber_network.hpp"
#include "physics/medium.hpp"

namespace biochip::control {
namespace {

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

  void add_cell(const cell::ParticleSpec& spec, GridCoord site, GridCoord goal) {
    const int id = cages.create(site);
    bodies.push_back({engine.field_model().trap_center(site), spec.radius,
                      spec.density,
                      spec.dep_prefactor(medium, dev.config().drive_frequency), id});
    cage_bodies.emplace_back(id, static_cast<int>(bodies.size()) - 1);
    goals.push_back({id, goal});
  }

  physics::ParticleBody prototype(const cell::ParticleSpec& spec) const {
    return {{0.0, 0.0, 0.0}, spec.radius, spec.density,
            spec.dep_prefactor(medium, dev.config().drive_frequency), 0};
  }

  ChamberSetup setup() {
    return {&cages, &engine, &imager, &defects, &bodies, cage_bodies, goals};
  }
};

class StreamingTest : public ::testing::Test {
 protected:
  StreamingTest() {
    cfg_ = chip::paper_config_on_node(chip::paper_node());
    cfg_.cols = 16;
    cfg_.rows = 16;
    cage_ = chip::BiochipDevice(cfg_).calibrate_cage(5, 6);
  }

  std::unique_ptr<World> make_world() const {
    return std::make_unique<World>(cfg_, cage_);
  }

  fluidic::Microchamber geometry() const {
    fluidic::Microchamber c;
    c.length = cfg_.cols * cfg_.pitch;
    c.width = cfg_.rows * cfg_.pitch;
    c.height = cfg_.chamber_height;
    return c;
  }

  /// n chambers, one inlet at {1,8} per listed chamber.
  fluidic::ChamberNetwork net(std::size_t n_chambers,
                              const std::vector<int>& inlet_chambers) const {
    fluidic::ChamberNetwork net;
    for (std::size_t c = 0; c < n_chambers; ++c)
      net.add_chamber(geometry(), 16, 16);
    for (int c : inlet_chambers) net.add_inlet(c, {1, 8});
    return net;
  }

  StreamingConfig base_config(const World& w, std::size_t n_inlets,
                              double rate) const {
    StreamingConfig cfg;
    cfg.ticks = 200;
    cfg.arrival_rates.assign(n_inlets, rate);
    // Two types with the same 5 µm imaging footprint but different physics
    // (density, DEP prefactor). Larger cells (K562, 9 µm) read fine alone
    // but merge into one detection cluster when admitted in close convoy —
    // a real association hazard, exercised separately, not a default mix.
    cfg.type_weights = {3.0, 1.0};
    cfg.body_prototypes = {w.prototype(cell::viable_lymphocyte()),
                           w.prototype(cell::polystyrene_bead(5e-6))};
    cfg.admission.queue_capacity = 4;
    cfg.admission.chamber_quota = 3;
    cfg.admission.degraded_quota = 1;
    cfg.service_deadline = 120;
    return cfg;
  }

  chip::DeviceConfig cfg_;
  field::HarmonicCage cage_;
};

// ------------------------------------------------------- arrival process ----

// The arrival draw at (inlet, tick) is a pure function of the stream — the
// same whatever order ticks and inlets are queried in, and unchanged by how
// many other inlets or chambers exist (stream ids, not topology, key it).
TEST_F(StreamingTest, ArrivalProcessIsPureAndCallOrderInvariant) {
  const Rng base = Rng(123).fork(0);
  std::vector<int> a, b;

  // Forward vs reverse query order, interleaved inlets: identical draws.
  std::vector<std::vector<int>> forward;
  for (int t = 1; t <= 50; ++t)
    for (int i = 0; i < 3; ++i) {
      sample_arrivals(base, i, t, 0.4, {2.0, 1.0}, a);
      forward.push_back(a);
    }
  std::size_t k = forward.size();
  for (int t = 50; t >= 1; --t)
    for (int i = 2; i >= 0; --i) {
      sample_arrivals(base, i, t, 0.4, {2.0, 1.0}, b);
      ASSERT_EQ(b, forward[--k]) << "inlet " << i << " tick " << t;
    }

  // Distinct (inlet, tick) keys decorrelate; the process actually arrives.
  std::size_t total = 0;
  for (int t = 1; t <= 50; ++t) total += sample_arrivals(base, 0, t, 0.4, {1.0}, a);
  EXPECT_GT(total, 5u);
  EXPECT_LT(total, 60u);

  // Zero rate draws nothing and consumes nothing.
  EXPECT_EQ(sample_arrivals(base, 0, 1, 0.0, {1.0}, a), 0u);
  EXPECT_TRUE(a.empty());
}

// ------------------------------------------- serial vs pooled determinism ----

// The full streaming report — admission stats, latency histogram, per-kind
// event counters, peaks — and every body position are bitwise identical for
// the pooled chamber fan-out vs the serial reference, with faults, health
// monitoring and random escapes in play.
TEST_F(StreamingTest, SerialVsPooledBitwiseIdentical) {
  const auto run_once = [&](bool pooled) {
    fluidic::ChamberNetwork network = net(2, {0, 1});
    auto w0 = make_world();
    auto w1 = make_world();

    StreamingConfig cfg = base_config(*w0, 2, 0.12);
    cfg.control.escape_rate = 0.002;
    cfg.control.health.enabled = true;
    cfg.goal_sites = {{{12, 4}, {12, 8}, {12, 12}}, {{12, 4}, {12, 8}, {12, 12}}};
    cfg.faults.scripted.push_back(
        {40, chip::FaultKind::kElectrodeDead, 0, {7, 3}, -1, 0});

    StreamingService service(network, cfg);
    std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
    Rng rng(90210);
    const StreamingReport report =
        service.run(chambers, rng.split(), pooled ? &core::ThreadPool::global() : nullptr);

    std::vector<Vec3> positions;
    for (const World* w : {w0.get(), w1.get()})
      for (const physics::ParticleBody& b : w->bodies) positions.push_back(b.position);
    return std::make_pair(report, positions);
  };

  const auto [serial, serial_pos] = run_once(false);
  const auto [pooled, pooled_pos] = run_once(true);

  EXPECT_TRUE(serial == pooled);
  ASSERT_EQ(serial_pos.size(), pooled_pos.size());
  for (std::size_t n = 0; n < serial_pos.size(); ++n)
    ASSERT_EQ(serial_pos[n], pooled_pos[n]) << "body " << n;

  // The run exercised the open system: arrivals were offered and delivered.
  EXPECT_GT(serial.admission.offered, 10u);
  EXPECT_GT(serial.delivered, 5u);
  EXPECT_EQ(serial.injected_faults, 1u);
}

// Idle-chamber elision changes how much work runs, not what happens: the
// report matches the non-elided run in everything but frames spent sensing
// empty chambers and the background crossings those frames read.
TEST_F(StreamingTest, IdleChamberElisionPreservesTheReport) {
  const auto run_once = [&](bool elide) {
    fluidic::ChamberNetwork network = net(2, {0});  // chamber 1 is always idle
    auto w0 = make_world();
    auto w1 = make_world();
    StreamingConfig cfg = base_config(*w0, 1, 0.10);
    cfg.goal_sites = {{{12, 4}, {12, 8}, {12, 12}}, {}};
    cfg.elide_idle_chambers = elide;
    StreamingService service(network, cfg);
    std::vector<ChamberSetup> chambers{w0->setup(), w1->setup()};
    return service.run(chambers, Rng(4711), nullptr);
  };

  StreamingReport eager = run_once(false);
  StreamingReport elided = run_once(true);

  EXPECT_EQ(eager.elided_chamber_ticks, 0u);
  EXPECT_GE(elided.elided_chamber_ticks, 200u);  // chamber 1 every tick + gaps
  EXPECT_LT(elided.frames_sensed, eager.frames_sensed);
  EXPECT_LE(elided.background_crossings, eager.background_crossings);
  // Everything observable is identical.
  elided.elided_chamber_ticks = eager.elided_chamber_ticks = 0;
  elided.frames_sensed = eager.frames_sensed = 0;
  elided.background_crossings = eager.background_crossings = 0;
  EXPECT_TRUE(eager == elided);
}

// --------------------------------------------------- bounded-memory soak ----

// The monotone-growth regression: with body slots recycled (every driver)
// and cage ids recycled (streaming turns it on), servicing tens of arrivals
// keeps the body array and the cage-slot table bounded by the in-flight
// quota — not by the number of cells ever serviced — and the admission
// accounting closes exactly.
TEST_F(StreamingTest, SlotRecyclingBoundsResidencyOverManyServices) {
  fluidic::ChamberNetwork network = net(1, {0});
  auto w0 = make_world();
  StreamingConfig cfg = base_config(*w0, 1, 0.30);
  cfg.ticks = 400;
  cfg.goal_sites = {{{12, 4}, {12, 8}, {12, 12}}};
  StreamingService service(network, cfg);
  std::vector<ChamberSetup> chambers{w0->setup()};
  const StreamingReport report = service.run(chambers, Rng(2026), nullptr);

  // Enough cells flowed through to make unbounded growth visible...
  EXPECT_GT(report.admission.admitted, 20u);
  EXPECT_GT(report.delivered, 15u);
  // ...yet residency never exceeded the quota: slots were recycled.
  EXPECT_LE(report.peak_resident_bodies,
            static_cast<std::size_t>(cfg.admission.chamber_quota));
  EXPECT_LE(report.peak_cage_slots,
            static_cast<std::size_t>(cfg.admission.chamber_quota));
  EXPECT_LE(report.peak_in_flight,
            static_cast<std::size_t>(cfg.admission.chamber_quota +
                                     cfg.admission.queue_capacity));
  // Exact conservation: every offered cell is shed, still queued, or
  // admitted; every admitted cell is delivered, evicted, or still in flight.
  EXPECT_EQ(report.admission.offered,
            report.admission.shed + report.admission.admitted + report.queued_end);
  EXPECT_EQ(report.admission.admitted,
            report.delivered + report.evicted + report.in_flight_end);
  // Latency histogram holds exactly the delivered cells.
  std::uint64_t hist_total = 0;
  for (std::uint64_t v : report.latency_hist) hist_total += v;
  EXPECT_EQ(hist_total, report.delivered);
  EXPECT_GE(report.latency_quantile(0.99), report.latency_quantile(0.5));
}

// ------------------------------------------------------- overload behavior ----

// Scripted 2x overload: arrivals far beyond the service rate degrade the
// shed fraction and the queue wait — never memory, and never silently. Every
// shed and every first deferral is a typed audit event, queues respect the
// watermark, and the service keeps delivering (no livelock).
TEST_F(StreamingTest, OverloadShedsTypedEventsAndStaysBounded) {
  fluidic::ChamberNetwork network = net(1, {0});
  auto w0 = make_world();
  StreamingConfig cfg = base_config(*w0, 1, 1.0);  // >> service rate
  cfg.ticks = 250;
  cfg.goal_sites = {{{12, 4}, {12, 8}, {12, 12}}};
  StreamingService service(network, cfg);
  std::vector<ChamberSetup> chambers{w0->setup()};
  const StreamingReport report = service.run(chambers, Rng(777), nullptr);

  // Overload is explicit, typed, and accounted one-to-one.
  EXPECT_GT(report.admission.shed, 0u);
  EXPECT_GT(report.admission.deferrals, 0u);
  EXPECT_EQ(count_events(report, EventKind::kAdmissionShed), report.admission.shed);
  EXPECT_EQ(count_events(report, EventKind::kAdmissionDeferred),
            report.admission.deferrals);
  EXPECT_EQ(count_events(report, EventKind::kTransferAdmitted),
            report.admission.admitted);
  // Backpressure bounds residency: quota in flight + watermarked queue.
  EXPECT_LE(report.peak_in_flight,
            static_cast<std::size_t>(cfg.admission.chamber_quota +
                                     cfg.admission.queue_capacity));
  EXPECT_LE(report.peak_resident_bodies,
            static_cast<std::size_t>(cfg.admission.chamber_quota));
  // No livelock: the chamber kept servicing cells under overload.
  EXPECT_GT(report.delivered, 10u);
  EXPECT_EQ(report.admission.offered,
            report.admission.shed + report.admission.admitted + report.queued_end);
}

// --------------------------------------------------------- admission rate ----

// Two saturated inlets feed one chamber with quota to spare, yet the
// chamber admits one cell per tick: one tick never floods its reservation
// table.
TEST_F(StreamingTest, OneAdmissionPerChamberPerTick) {
  fluidic::ChamberNetwork network;
  network.add_chamber(geometry(), 16, 16);
  network.add_inlet(0, {1, 4});
  network.add_inlet(0, {1, 12});
  auto w = make_world();
  StreamingConfig cfg = base_config(*w, 2, 5.0);
  cfg.ticks = 3;
  cfg.admission.chamber_quota = 4;
  cfg.goal_sites = {{{12, 4}, {12, 8}, {12, 12}, {8, 8}}};
  StreamingService service(network, cfg);
  std::vector<ChamberSetup> chambers{w->setup()};
  const StreamingReport report = service.run(chambers, Rng(77), nullptr);
  EXPECT_EQ(report.admission.admitted, 3u);
}

// ------------------------------------------------------ setup validation ----

// An incomplete chamber setup is rejected before the service touches it.
TEST_F(StreamingTest, NullDefectMapIsRejected) {
  const fluidic::ChamberNetwork network = net(1, {0});
  auto w = make_world();
  StreamingConfig cfg = base_config(*w, 1, 0.1);
  cfg.goal_sites = {{{12, 8}}};
  StreamingService service(network, cfg);
  std::vector<ChamberSetup> chambers{w->setup()};
  chambers[0].defects = nullptr;
  EXPECT_THROW(service.run(chambers, Rng(5), nullptr), PreconditionError);
}

}  // namespace
}  // namespace biochip::control
