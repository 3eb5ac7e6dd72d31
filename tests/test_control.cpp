// Tests for the closed-loop control subsystem: tracker hysteresis, the
// replanner's mask ownership, the
// lost → recapture → delivery loop on a seeded episode, the failed-plan
// report, pooled-vs-serial bitwise identity, body-slot reuse and per-body
// stream keying, and defect-injection fuzz.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/error.hpp"
#include "control/engine.hpp"
#include "control/events.hpp"
#include "control/replanner.hpp"
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
  TrackerTest() : tracker_(30e-6) {
    tracker_.add_track(7, TrackState::kOccupied);
  }
  OccupancyTracker tracker_;
  const std::vector<Vec2> expected_{{100e-6, 100e-6}};
};

TEST_F(TrackerTest, SingleNoisyMissDoesNotFlipTheTrack) {
  // One missed frame, then the detection returns: no state change ever.
  auto up = tracker_.update(expected_, {});
  EXPECT_TRUE(up.changes.empty());
  EXPECT_EQ(tracker_.state(7), TrackState::kOccupied);
  up = tracker_.update(expected_, {det(102e-6, 99e-6)});
  EXPECT_TRUE(up.changes.empty());
  // Two more isolated misses, interleaved with hits: still no flap.
  for (int round = 0; round < 2; ++round) {
    up = tracker_.update(expected_, {});
    EXPECT_TRUE(up.changes.empty()) << "round " << round;
    up = tracker_.update(expected_, {det(100e-6, 100e-6)});
    EXPECT_TRUE(up.changes.empty()) << "round " << round;
  }
  EXPECT_EQ(tracker_.state(7), TrackState::kOccupied);
}

TEST_F(TrackerTest, ConsecutiveMissesConfirmLossExactlyOnce) {
  tracker_.update(expected_, {});
  tracker_.update(expected_, {});
  EXPECT_EQ(tracker_.state(7), TrackState::kOccupied);  // 2 misses: not yet
  const auto up = tracker_.update(expected_, {});
  ASSERT_EQ(up.changes.size(), 1u);
  EXPECT_EQ(up.changes[0].cage_id, 7);
  EXPECT_EQ(up.changes[0].state, TrackState::kLost);
  // Further misses do not re-announce the loss.
  EXPECT_TRUE(tracker_.update(expected_, {}).changes.empty());
}

TEST_F(TrackerTest, RecaptureNeedsHitHysteresis) {
  for (int n = 0; n < 3; ++n) tracker_.update(expected_, {});
  ASSERT_EQ(tracker_.state(7), TrackState::kLost);
  auto up = tracker_.update(expected_, {det(101e-6, 100e-6)});
  EXPECT_TRUE(up.changes.empty());  // one hit: not confirmed yet
  up = tracker_.update(expected_, {det(101e-6, 100e-6)});
  ASSERT_EQ(up.changes.size(), 1u);
  EXPECT_EQ(up.changes[0].state, TrackState::kOccupied);
}

TEST_F(TrackerTest, OutOfGateDetectionIsUnmatched) {
  // 50 µm from the expected trap center with a 30 µm gate: stray.
  const auto up = tracker_.update(expected_, {det(150e-6, 100e-6)});
  ASSERT_EQ(up.unmatched_detections.size(), 1u);
  EXPECT_EQ(up.unmatched_detections[0], 0u);
}

// `update` reads one expected position per track in `cage_ids()` order
// (ascending cage id), whatever order the tracks were added in.
TEST(TrackerOrderTest, ExpectedPositionsFollowTheTrackOrder) {
  OccupancyTracker tracker(30e-6);
  tracker.add_track(9);
  tracker.add_track(3);
  ASSERT_EQ(tracker.cage_ids(), (std::vector<int>{3, 9}));
  const std::vector<Vec2> expected{{100e-6, 100e-6}, {400e-6, 100e-6}};  // cages 3, 9
  // Only cage 9's cell shows: three misses confirm cage 3's loss alone.
  TrackUpdate up;
  for (int n = 0; n < 3; ++n) up = tracker.update(expected, {det(401e-6, 100e-6)});
  ASSERT_EQ(up.changes.size(), 1u);
  EXPECT_EQ(up.changes[0].cage_id, 3);
  EXPECT_EQ(tracker.state(3), TrackState::kLost);
  EXPECT_EQ(tracker.state(9), TrackState::kOccupied);
  EXPECT_TRUE(up.unmatched_detections.empty());
  EXPECT_THROW(tracker.update({{100e-6, 100e-6}}, {}), PreconditionError);
}

// ------------------------------------------------------- episode fixtures ----

// -------------------------------------------------------------- replanner ----

// A 16×12 grid whose column 8 is walled off when `wall` is set.
std::vector<std::uint8_t> column_wall(const cad::RouteConfig& cfg, bool wall) {
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(cfg.cols * cfg.rows), 0);
  if (wall)
    for (int r = 0; r < cfg.rows; ++r) mask[static_cast<std::size_t>(r * cfg.cols + 8)] = 1;
  return mask;
}

cad::RouteConfig replanner_grid() {
  cad::RouteConfig cfg;
  cfg.cols = 16;
  cfg.rows = 12;
  return cfg;
}

// The replanner's reachability labels follow its mask: a wall that cuts the
// goal off makes the replan fail with the path untouched, and once the wall
// is cleared the same replan must succeed — labels left over from the walled
// mask would still refuse it.
TEST(ReplannerTest, SetBlockedRebuildsTheReachabilityLabels) {
  const cad::RouteConfig cfg = replanner_grid();
  Replanner planner(cfg, column_wall(cfg, false));
  planner.commit({{0, {{2, 5}}}, {1, {{13, 1}}}});
  const GridCoord goal{13, 8};

  planner.set_blocked(column_wall(cfg, true));
  EXPECT_TRUE(planner.sites().blocked({8, 5}));
  EXPECT_FALSE(planner.replan(0, goal, 1));
  EXPECT_EQ(planner.position_at(0, 40), (GridCoord{2, 5}));
  EXPECT_EQ(planner.replans(), 0u);

  planner.set_blocked(column_wall(cfg, false));
  EXPECT_FALSE(planner.sites().blocked({8, 5}));
  ASSERT_TRUE(planner.replan(0, goal, 1));
  EXPECT_EQ(planner.replans(), 1u);
  const int end = planner.horizon();
  EXPECT_EQ(planner.position_at(0, end), goal);
  for (int t = 1; t <= end; ++t)
    EXPECT_GE(chebyshev(planner.position_at(0, t), planner.position_at(1, t)),
              cfg.min_separation)
        << "t " << t;
}

// Relaxed replans route under the rescue sites the replanner builds from
// their own mask, and only once rescue is on; rebuilding them follows a new
// mask. Strict replans, the defect lookahead and admissions keep the strict
// sites throughout.
TEST(ReplannerTest, RescueSitesAndAdmissionsUseTheirOwnMasks) {
  const cad::RouteConfig cfg = replanner_grid();
  Replanner planner(cfg, column_wall(cfg, true));
  planner.commit({{0, {{2, 5}}}});
  const GridCoord goal{13, 8};
  EXPECT_FALSE(planner.rescue_enabled());
  EXPECT_THROW(planner.replan_relaxed(0, goal, 1), PreconditionError);

  planner.set_rescue_blocked(column_wall(cfg, true));  // rescue on, still walled
  ASSERT_TRUE(planner.rescue_enabled());
  EXPECT_FALSE(planner.replan_relaxed(0, goal, 1));
  planner.set_rescue_blocked(column_wall(cfg, false));  // rebuilt without the wall
  EXPECT_FALSE(planner.replan(0, goal, 1));
  ASSERT_TRUE(planner.replan_relaxed(0, goal, 1));
  EXPECT_EQ(planner.replans(), 1u);
  EXPECT_EQ(planner.position_at(0, planner.horizon()), goal);
  EXPECT_TRUE(planner.sites().blocked({8, 5}));
  bool crosses = false;  // the relaxed route crosses the strict wall...
  for (int t = 1; t <= planner.horizon(); ++t)
    crosses = crosses || planner.position_at(0, t).col == 8;
  EXPECT_TRUE(crosses);
  EXPECT_TRUE(planner.enters_blocked_ahead(0, 0, planner.horizon()));  // ...strictly

  EXPECT_FALSE(planner.admit({1, {2, 2}, {12, 2}}, 3));  // the wall holds
  EXPECT_FALSE(planner.has_path(1));
  ASSERT_TRUE(planner.admit({1, {2, 2}, {6, 2}}, 3));
  EXPECT_EQ(planner.position_at(1, 0), (GridCoord{2, 2}));  // parked before t0
  EXPECT_EQ(planner.position_at(1, planner.horizon() + 1), (GridCoord{6, 2}));
  EXPECT_THROW(planner.admit({1, {2, 8}, {5, 8}}, 4), PreconditionError);
}

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

// A failed initial plan is an episode of zero ticks with the ordinary
// accounting: every goal fails once, with one explicit event at tick 0, in
// goal order. The destination of cage 1 has a dead pixel in its ring, so the
// defect-aware plan cannot route; cage 3 already sits at its goal, and an
// unplanned episode still delivers nothing.
TEST_F(ClosedLoopTest, UnroutableGoalFailsEveryGoalAtTickZero) {
  auto world = make_world();
  world->defects.set_state({21, 10}, chip::PixelState::kDead);
  world->add_cell({12, 20}, {12, 20});
  const std::vector<GridCoord> starts{{3, 4}, {3, 10}, {3, 16}, {12, 20}};

  const EpisodeReport report = run(*world, ControlConfig{}, 2027);
  EXPECT_FALSE(report.planned);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.ticks, 0);
  EXPECT_TRUE(report.delivered_ids.empty());
  EXPECT_EQ(report.failed_ids, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(report.events.size(), 4u);
  for (std::size_t n = 0; n < report.events.size(); ++n) {
    EXPECT_EQ(report.events[n].tick, 0) << "goal " << n;
    EXPECT_EQ(report.events[n].kind, EventKind::kDeliveryFailed) << "goal " << n;
    EXPECT_EQ(report.events[n].cage_id, static_cast<int>(n));
    EXPECT_EQ(report.events[n].site, starts[n]) << "goal " << n;
  }
  // No tick ran: every cell is where it started.
  for (std::size_t n = 0; n < starts.size(); ++n)
    EXPECT_EQ(world->bodies[n].position, world->engine.field_model().trap_center(starts[n]));
}

// Bitwise identity of the pooled episode fan-out vs the serial reference:
// same trajectories, same event logs, for any chunking.
TEST_F(ClosedLoopTest, EpisodeFanOutBitwiseIdenticalToSerial) {
  ControlConfig config;
  config.forced_escapes = {{4, 0}};
  config.escape_rate = 0.002;

  const auto run_episodes = [&](bool pooled) {
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
        episodes, rng.split(), pooled ? &core::ThreadPool::global() : nullptr);
    std::vector<Vec3> positions;
    for (const auto& w : worlds)
      for (const physics::ParticleBody& b : w->bodies) positions.push_back(b.position);
    return std::make_pair(reports, positions);
  };

  const auto [serial_reports, serial_pos] = run_episodes(false);
  const auto [fanned_reports, fanned_pos] = run_episodes(true);
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

// Body slots recycle in every driver, not only in streaming: a released
// cage frees its slot, and the next admission takes it, so neither the
// runtime's nor the caller's body array grows past its peak population.
TEST_F(ClosedLoopTest, ReleasedSlotIsReusedOutsideStreaming) {
  auto world = make_world();
  ClosedLoopEngine engine(world->cages, world->engine, world->imager, world->defects, 0.4,
                          ControlConfig{});
  EpisodeRuntime runtime(engine, world->goals, world->bodies, world->cage_bodies, Rng(31),
                         nullptr);
  ASSERT_TRUE(runtime.planned());
  runtime.tick(1);
  ASSERT_EQ(runtime.resident_bodies(), 3u);

  physics::ParticleBody cell = runtime.release_cage(world->goals[0].cage_id);
  const GridCoord port{3, 21};
  cell.position = runtime.trap_center(port);
  const std::optional<int> id = runtime.admit_cage(port, {20, 21}, 2, cell);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(runtime.resident_bodies(), 3u);
  EXPECT_EQ(world->bodies.size(), 3u);
  EXPECT_EQ(runtime.body_of(*id).position, cell.position);
  runtime.tick(2);  // the reused slot is live: its body moves
  EXPECT_NE(runtime.body_of(*id).position, cell.position);
}

// Escape draws are keyed by the body's admission id, so the order of the
// caller's `cage_bodies` list cannot change a forced escape's heading. The
// list is reversed, which moves `goals[0]` from its front to its back.
TEST_F(ClosedLoopTest, EscapeDrawsFollowTheBodyNotItsListPosition) {
  const auto positions_after_escape = [&](bool reversed) {
    auto world = make_world();
    ControlConfig config;
    config.forced_escapes = {{1, world->goals[0].cage_id}};
    std::vector<std::pair<int, int>> cage_bodies = world->cage_bodies;
    if (reversed) std::reverse(cage_bodies.begin(), cage_bodies.end());
    ClosedLoopEngine engine(world->cages, world->engine, world->imager, world->defects,
                            0.4, config);
    EpisodeRuntime runtime(engine, world->goals, world->bodies, cage_bodies, Rng(8), nullptr);
    EXPECT_TRUE(runtime.planned());
    runtime.tick(1);
    const EpisodeReport report = runtime.finish();
    EXPECT_EQ(count_events(report.events, EventKind::kEscapeInjected), 1u)
        << "reversed " << reversed;
    std::vector<Vec3> positions;
    for (const physics::ParticleBody& b : world->bodies) positions.push_back(b.position);
    return positions;
  };
  const std::vector<Vec3> listed = positions_after_escape(false);
  const std::vector<Vec3> reversed = positions_after_escape(true);
  ASSERT_EQ(listed.size(), reversed.size());
  for (std::size_t n = 0; n < listed.size(); ++n)
    EXPECT_EQ(listed[n], reversed[n]) << "body " << n;
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
