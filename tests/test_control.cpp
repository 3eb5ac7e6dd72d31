// Tests for the closed-loop control subsystem: tracker hysteresis, the
// lost → recapture → delivery loop on a seeded episode, pooled-vs-serial
// bitwise identity, and defect-injection fuzz.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "control/engine.hpp"
#include "control/events.hpp"
#include "control/tracker.hpp"
#include "core/threadpool.hpp"
#include "physics/medium.hpp"

namespace biochip::control {
namespace {

// ------------------------------------------------------ occupancy tracker ----

sensor::Detection det(double x, double y) {
  sensor::Detection d;
  d.position = {x, y};
  d.score = 1.0;
  d.pixel_count = 1;
  return d;
}

class TrackerTest : public ::testing::Test {
 protected:
  TrackerTest() : tracker_({/*lost_after*/ 3, /*occupied_after*/ 2, 0.0}, 30e-6) {
    tracker_.add_track(7, TrackState::kOccupied);
  }
  OccupancyTracker tracker_;
  const std::vector<int> ids_{7};
  const std::vector<Vec2> expected_{{100e-6, 100e-6}};
};

TEST_F(TrackerTest, SingleNoisyMissDoesNotFlipTheTrack) {
  // One missed frame, then the detection returns: no state change ever.
  auto up = tracker_.update(ids_, expected_, {});
  EXPECT_TRUE(up.changes.empty());
  EXPECT_EQ(tracker_.state(7), TrackState::kOccupied);
  up = tracker_.update(ids_, expected_, {det(102e-6, 99e-6)});
  EXPECT_TRUE(up.changes.empty());
  // Two more isolated misses, interleaved with hits: still no flap.
  for (int round = 0; round < 2; ++round) {
    up = tracker_.update(ids_, expected_, {});
    EXPECT_TRUE(up.changes.empty()) << "round " << round;
    up = tracker_.update(ids_, expected_, {det(100e-6, 100e-6)});
    EXPECT_TRUE(up.changes.empty()) << "round " << round;
  }
  EXPECT_EQ(tracker_.state(7), TrackState::kOccupied);
}

TEST_F(TrackerTest, ConsecutiveMissesConfirmLossExactlyOnce) {
  tracker_.update(ids_, expected_, {});
  tracker_.update(ids_, expected_, {});
  EXPECT_EQ(tracker_.state(7), TrackState::kOccupied);  // 2 misses: not yet
  const auto up = tracker_.update(ids_, expected_, {});
  ASSERT_EQ(up.changes.size(), 1u);
  EXPECT_EQ(up.changes[0].cage_id, 7);
  EXPECT_EQ(up.changes[0].state, TrackState::kLost);
  // Further misses do not re-announce the loss.
  EXPECT_TRUE(tracker_.update(ids_, expected_, {}).changes.empty());
}

TEST_F(TrackerTest, RecaptureNeedsHitHysteresis) {
  for (int n = 0; n < 3; ++n) tracker_.update(ids_, expected_, {});
  ASSERT_EQ(tracker_.state(7), TrackState::kLost);
  auto up = tracker_.update(ids_, expected_, {det(101e-6, 100e-6)});
  EXPECT_TRUE(up.changes.empty());  // one hit: not confirmed yet
  up = tracker_.update(ids_, expected_, {det(101e-6, 100e-6)});
  ASSERT_EQ(up.changes.size(), 1u);
  EXPECT_EQ(up.changes[0].state, TrackState::kOccupied);
  EXPECT_TRUE(tracker_.has_fix(7));
  EXPECT_NEAR(tracker_.last_fix(7).x, 101e-6, 1e-12);
}

TEST_F(TrackerTest, OutOfGateDetectionIsUnmatched) {
  // 50 µm from the expected trap center with a 30 µm gate: stray.
  const auto up = tracker_.update(ids_, expected_, {det(150e-6, 100e-6)});
  ASSERT_EQ(up.unmatched_detections.size(), 1u);
  EXPECT_EQ(up.unmatched_detections[0], 0u);
}

// ------------------------------------------------------- episode fixtures ----

sensor::CapacitivePixel pixel_for(const chip::BiochipDevice& dev) {
  sensor::CapacitivePixel px;
  px.electrode_area = dev.array().footprint({0, 0}).area();
  px.chamber_height = dev.config().chamber_height;
  px.sense_voltage = dev.drive_amplitude();
  return px;
}

// One self-contained chip world per episode (episodes must not share state).
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

  void add_cell(GridCoord site, GridCoord goal) {
    const cell::ParticleSpec spec = cell::viable_lymphocyte();
    const int id = cages.create(site);
    bodies.push_back({engine.field_model().trap_center(site), spec.radius, spec.density,
                      spec.dep_prefactor(medium, dev.config().drive_frequency), id});
    cage_bodies.emplace_back(id, static_cast<int>(bodies.size()) - 1);
    goals.push_back({id, goal});
  }
};

class ClosedLoopTest : public ::testing::Test {
 protected:
  ClosedLoopTest() {
    cfg_ = chip::paper_config_on_node(chip::paper_node());
    cfg_.cols = 24;
    cfg_.rows = 24;
    cage_ = chip::BiochipDevice(cfg_).calibrate_cage(5, 6);
  }

  std::unique_ptr<World> make_world() const {
    auto world = std::make_unique<World>(cfg_, cage_);
    world->defects.set_state({10, 4}, chip::PixelState::kDead);
    world->add_cell({3, 4}, {20, 4});
    world->add_cell({3, 10}, {20, 10});
    world->add_cell({3, 16}, {20, 16});
    return world;
  }

  EpisodeReport run(World& world, const ControlConfig& config, std::uint64_t seed) {
    ClosedLoopEngine engine(world.cages, world.engine, world.imager, world.defects, 0.4,
                            config);
    Rng rng(seed);
    return engine.run(world.goals, world.bodies, world.cage_bodies, rng.split(),
                      &core::ThreadPool::global());
  }

  chip::DeviceConfig cfg_;
  field::HarmonicCage cage_;
};

// The acceptance loop: a scripted escape plus a dead pixel on one route. The
// open-loop baseline loses the cell; the closed loop confirms the loss,
// recaptures, re-routes around the defect and delivers everything.
TEST_F(ClosedLoopTest, LostCellIsRecapturedAndDelivered) {
  ControlConfig config;
  config.forced_escapes = {{4, 0}};
  config.defect_aware_initial = false;  // exercise the online defect reroute

  auto open_world = make_world();
  ControlConfig open = config;
  open.closed_loop = false;
  const EpisodeReport open_report = run(*open_world, open, 2026);
  EXPECT_TRUE(open_report.planned);
  EXPECT_FALSE(open_report.success);
  EXPECT_EQ(open_report.failed_ids, std::vector<int>{0});

  auto closed_world = make_world();
  const EpisodeReport report = run(*closed_world, config, 2026);
  EXPECT_TRUE(report.planned);
  EXPECT_TRUE(report.success) << "failed cages: " << report.failed_ids.size();
  EXPECT_EQ(report.delivered_ids.size(), 3u);
  EXPECT_GE(report.replans, 2u);  // defect reroute + recapture legs

  // The audit trail tells the story in order for cage 0.
  std::vector<EventKind> story;
  for (const ControlEvent& e : report.events)
    if (e.cage_id == 0 && e.kind != EventKind::kRerouted) story.push_back(e.kind);
  const std::vector<EventKind> expected{
      EventKind::kEscapeInjected, EventKind::kCellLost, EventKind::kRecaptureStarted,
      EventKind::kCellRecaptured, EventKind::kDelivered};
  EXPECT_EQ(story, expected);
}

// Bitwise identity of the pooled episode fan-out vs the serial reference:
// same trajectories, same event logs, for any chunking.
TEST_F(ClosedLoopTest, EpisodeFanOutBitwiseIdenticalToSerial) {
  ControlConfig config;
  config.forced_escapes = {{4, 0}};
  config.escape_rate = 0.002;

  const auto run_episodes = [&](std::size_t max_parts) {
    std::vector<std::unique_ptr<World>> worlds;
    std::vector<std::unique_ptr<ClosedLoopEngine>> engines;
    std::vector<ClosedLoopEngine::Episode> episodes;
    for (int n = 0; n < 3; ++n) {
      worlds.push_back(make_world());
      World& w = *worlds.back();
      engines.push_back(std::make_unique<ClosedLoopEngine>(w.cages, w.engine, w.imager,
                                                           w.defects, 0.4, config));
      episodes.push_back({engines.back().get(), w.goals, &w.bodies, w.cage_bodies});
    }
    Rng rng(4242);
    const auto reports = ClosedLoopEngine::run_episodes(
        episodes, rng.split(), core::ThreadPool::global(), max_parts);
    std::vector<Vec3> positions;
    for (const auto& w : worlds)
      for (const physics::ParticleBody& b : w->bodies) positions.push_back(b.position);
    return std::make_pair(reports, positions);
  };

  const auto [serial_reports, serial_pos] = run_episodes(1);
  const auto [fanned_reports, fanned_pos] = run_episodes(0);
  ASSERT_EQ(serial_pos.size(), fanned_pos.size());
  for (std::size_t n = 0; n < serial_pos.size(); ++n)
    ASSERT_EQ(serial_pos[n], fanned_pos[n]) << "body " << n;
  ASSERT_EQ(serial_reports.size(), fanned_reports.size());
  for (std::size_t n = 0; n < serial_reports.size(); ++n) {
    const EpisodeReport& a = serial_reports[n];
    const EpisodeReport& b = fanned_reports[n];
    EXPECT_TRUE(a.planned);
    ASSERT_EQ(a.events.size(), b.events.size()) << "episode " << n;
    for (std::size_t e = 0; e < a.events.size(); ++e) {
      EXPECT_EQ(a.events[e].tick, b.events[e].tick);
      EXPECT_EQ(a.events[e].kind, b.events[e].kind);
      EXPECT_EQ(a.events[e].cage_id, b.events[e].cage_id);
    }
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.delivered_ids, b.delivered_ids);
    EXPECT_EQ(a.failed_ids, b.failed_ids);
  }
}

// Bitwise identity of the per-body physics fan-out inside one episode vs
// the serial body loop, closed and open loop: every body integrates on its
// own stream, so how the pool chunks the bodies cannot show.
TEST_F(ClosedLoopTest, PerBodyPoolBitwiseIdenticalToSerial) {
  core::ThreadPool pool(4);
  for (const bool closed : {true, false}) {
    ControlConfig config;
    config.closed_loop = closed;
    config.forced_escapes = {{4, 0}};
    config.escape_rate = 0.002;
    const auto run_with = [&](core::ThreadPool* p) {
      auto world = make_world();
      ClosedLoopEngine engine(world->cages, world->engine, world->imager,
                              world->defects, 0.4, config);
      const EpisodeReport report =
          engine.run(world->goals, world->bodies, world->cage_bodies, Rng(77), p);
      std::vector<Vec3> positions;
      for (const physics::ParticleBody& b : world->bodies) positions.push_back(b.position);
      return std::make_pair(report, positions);
    };
    const auto [serial, serial_pos] = run_with(nullptr);
    const auto [pooled, pooled_pos] = run_with(&pool);
    ASSERT_TRUE(serial.planned) << "closed " << closed;
    ASSERT_EQ(serial_pos.size(), pooled_pos.size());
    for (std::size_t n = 0; n < serial_pos.size(); ++n)
      ASSERT_EQ(serial_pos[n], pooled_pos[n]) << "closed " << closed << " body " << n;
    ASSERT_EQ(serial.events.size(), pooled.events.size()) << "closed " << closed;
    for (std::size_t e = 0; e < serial.events.size(); ++e) {
      EXPECT_EQ(serial.events[e].tick, pooled.events[e].tick);
      EXPECT_EQ(serial.events[e].kind, pooled.events[e].kind);
      EXPECT_EQ(serial.events[e].cage_id, pooled.events[e].cage_id);
      EXPECT_EQ(serial.events[e].site, pooled.events[e].site);
    }
    EXPECT_EQ(serial.success, pooled.success);
    EXPECT_EQ(serial.ticks, pooled.ticks);
    EXPECT_EQ(serial.elapsed, pooled.elapsed);
    EXPECT_EQ(serial.replans, pooled.replans);
    EXPECT_EQ(serial.frames_sensed, pooled.frames_sensed);
    EXPECT_EQ(serial.delivered_ids, pooled.delivered_ids);
    EXPECT_EQ(serial.failed_ids, pooled.failed_ids);
  }
}

// Defect-injection fuzz: randomized defect maps and random escapes. The
// engine must never crash, never silently drop a cell from the books —
// every goal cage ends in exactly one of delivered/failed, and every
// failure carries an explicit event.
TEST_F(ClosedLoopTest, DefectFuzzAccountsForEveryCell) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    auto world = std::make_unique<World>(cfg_, cage_);
    Rng defect_rng(seed);
    world->defects =
        chip::sample_defects(world->dev.array(), 0.01, defect_rng);
    // Keep the launch/goal sites themselves usable so the episode starts
    // legally; everything in between is up to the supervisor.
    const GridCoord starts[3] = {{3, 4}, {3, 10}, {3, 16}};
    const GridCoord goals[3] = {{20, 4}, {20, 10}, {20, 16}};
    for (int n = 0; n < 3; ++n) {
      for (int dr = -1; dr <= 1; ++dr)
        for (int dc = -1; dc <= 1; ++dc) {
          world->defects.set_state({starts[n].col + dc, starts[n].row + dr},
                                   chip::PixelState::kOk);
          world->defects.set_state({goals[n].col + dc, goals[n].row + dr},
                                   chip::PixelState::kOk);
        }
      world->add_cell(starts[n], goals[n]);
    }

    ControlConfig config;
    config.escape_rate = 0.01;
    const EpisodeReport report = run(*world, config, seed * 1000 + 1);
    ASSERT_TRUE(report.planned) << "seed " << seed;

    std::vector<int> accounted = report.delivered_ids;
    accounted.insert(accounted.end(), report.failed_ids.begin(),
                     report.failed_ids.end());
    std::sort(accounted.begin(), accounted.end());
    EXPECT_EQ(accounted, (std::vector<int>{0, 1, 2})) << "seed " << seed;
    EXPECT_EQ(count_events(report.events, EventKind::kDeliveryFailed),
              report.failed_ids.size())
        << "seed " << seed;
    // Delivered cages must have a delivery event; failed ones must not be
    // double-counted as delivered.
    for (const int id : report.delivered_ids)
      EXPECT_TRUE(std::any_of(report.events.begin(), report.events.end(),
                              [&](const ControlEvent& e) {
                                return e.cage_id == id &&
                                       e.kind == EventKind::kDelivered;
                              }))
          << "seed " << seed << " cage " << id;
  }
}

}  // namespace
}  // namespace biochip::control
