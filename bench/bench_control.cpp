// Closed-loop control engine throughput: supervisory ticks/s of the full
// sense → track → replan → actuate loop vs array size and live-cage count,
// plus the open-loop baseline for the control overhead, plus the
// multi-chamber orchestrator's ticks/s vs chamber count, plus the sense
// phase alone against the dense sequence, plus one episode's set-up on the
// paper's 320 × 320 array. Per-tick cost is the sparse sense
// (the cells' window pixels plus the threshold crossings, drawn from the
// frame's law) on top of the per-body physics; the counters record achieved
// ticks/s so the BENCH JSON carries the control loop's throughput
// trajectory. Every rate counter is a wall-clock rate (`UseRealTime`): the
// episode rows fan out over the global pool, so main-thread CPU time would
// overstate them.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/stats.hpp"
#include "control/orchestrator.hpp"
#include "control/streaming.hpp"
#include "core/threadpool.hpp"
#include "fluidic/chamber_network.hpp"
#include "obs/obs.hpp"
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

const field::HarmonicCage& unit_cage() {
  static const field::HarmonicCage cage =
      chip::BiochipDevice(chip::paper_config_on_node(chip::paper_node()))
          .calibrate_cage(5, 6);
  return cage;
}

std::unique_ptr<World> make_world(int side, int n_cages) {
  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = side;
  cfg.rows = side;
  auto world = std::make_unique<World>(cfg, unit_cage());
  Rng defect_rng(515);
  world->defects = chip::sample_defects(world->dev.array(), 0.01, defect_rng);
  const int start_col = 3;
  const int goal_col = side - 4;
  for (int n = 0; n < n_cages; ++n) {
    const int row = 2 + 3 * n;
    for (const int col : {start_col, goal_col})
      for (int dr = -1; dr <= 1; ++dr)
        for (int dc = -1; dc <= 1; ++dc)
          world->defects.set_state({col + dc, row + dr}, chip::PixelState::kOk);
    world->add_cell({start_col, row}, {goal_col, row});
  }
  return world;
}

// range(0) = array side, range(1) = live cages, range(2) = closed loop (1)
// vs open-loop baseline (0).
void bm_control_episode(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const int n_cages = static_cast<int>(state.range(1));
  unit_cage();  // calibrate outside the timed region

  control::ControlConfig config;
  config.closed_loop = state.range(2) == 1;
  config.escape_rate = 0.003;

  double total_ticks = 0.0;
  double delivered = 0.0, goals_n = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = make_world(side, n_cages);
    control::ClosedLoopEngine engine(world->cages, world->engine, world->imager,
                                     world->defects, 0.4, config);
    Rng rng(90210);
    state.ResumeTiming();
    const control::EpisodeReport report =
        engine.run(world->goals, world->bodies, world->cage_bodies, rng.split(),
                   &core::ThreadPool::global());
    state.PauseTiming();
    total_ticks += report.ticks;
    delivered += static_cast<double>(report.delivered_ids.size());
    goals_n += static_cast<double>(world->goals.size());
    state.ResumeTiming();
  }
  state.counters["ticks_per_s"] =
      benchmark::Counter(total_ticks, benchmark::Counter::kIsRate);
  state.counters["delivered_frac"] = goals_n > 0.0 ? delivered / goals_n : 0.0;
}

BENCHMARK(bm_control_episode)
    ->Args({16, 4, 1})
    ->Args({32, 4, 1})
    ->Args({32, 10, 1})
    ->Args({32, 10, 0})
    ->Args({48, 10, 1})
    ->Args({48, 15, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Episode set-up on the paper's array, as perfbench's `rare_cell` pays it per
// episode: ClosedLoopEngine + EpisodeRuntime construction (blocked mask,
// initial A* plan, replanner, preflight) for twelve cells on a side² array
// with 1% defects, each 60-120 pitches (Manhattan) from its goal in a bank
// near the right edge. range(0) = array side. `makespan` and `moves` come
// from one route_astar of the same requests under the episode's mask after
// the timed loop: they repeat exactly unless the planner's answer changes.
std::unique_ptr<World> make_sparse_world(int side) {
  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = side;
  cfg.rows = side;
  auto world = std::make_unique<World>(cfg, unit_cage());
  Rng defect_rng(515);
  world->defects = chip::sample_defects(world->dev.array(), 0.01, defect_rng);
  Rng sites(616);
  std::vector<GridCoord> used;
  const auto clear_of = [&](GridCoord s) {
    for (const GridCoord u : used)
      if (chebyshev(u, s) < 4) return false;
    return true;
  };
  for (int k = 0; k < 12; ++k) {
    const GridCoord goal{side - 6, 28 + 24 * k};
    used.push_back(goal);
    GridCoord start;
    do {
      const auto dist = static_cast<int>(sites.uniform_int(60, 120));
      const auto dr = static_cast<int>(sites.uniform_int(-20, 20));
      start = {goal.col - (dist - std::abs(dr)), goal.row + dr};
    } while (!clear_of(start));
    used.push_back(start);
    for (int dr = -1; dr <= 1; ++dr)
      for (int dc = -1; dc <= 1; ++dc)
        world->defects.set_state({goal.col + dc, goal.row + dr}, chip::PixelState::kOk);
    world->add_cell(start, goal);
  }
  return world;
}

void bm_episode_setup(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  unit_cage();  // calibrate outside the timed region
  const control::ControlConfig config;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = make_sparse_world(side);
    state.ResumeTiming();
    control::ClosedLoopEngine engine(world->cages, world->engine, world->imager,
                                     world->defects, 0.4, config);
    const control::EpisodeRuntime runtime(engine, world->goals, world->bodies,
                                          world->cage_bodies, Rng(90210), nullptr);
    benchmark::DoNotOptimize(runtime.budget());
  }
  const auto world = make_sparse_world(side);
  cad::RouteConfig plan;
  plan.cols = side;
  plan.rows = side;
  plan.min_separation = world->cages.min_separation();
  plan.blocked = chip::blocked_site_mask(world->dev.array(), world->defects, config.defect_ring);
  std::vector<cad::RouteRequest> requests;
  for (const control::CageGoal& g : world->goals)
    requests.push_back({g.cage_id, world->cages.site(g.cage_id), g.destination});
  const cad::RouteResult result = cad::route_astar(requests, plan);
  state.counters["makespan"] = result.makespan_steps;
  state.counters["moves"] = static_cast<double>(result.total_moves);
}

BENCHMARK(bm_episode_setup)->Arg(320)->Unit(benchmark::kMillisecond)->UseRealTime();

// Multi-chamber orchestration: a chain of N 24x24 chambers, each with two
// local deliveries, plus one cross-chamber transfer per port. range(0) =
// chamber count. `ticks_per_s` is the global supervisory tick rate (one
// global tick = one tick of EVERY chamber, barrier-synchronized);
// `chamber_ticks_per_s` multiplies by the chamber count — the aggregate
// supervisory work rate, which is what should scale with worker count on a
// multi-core host (this container is 1-core, so expect it roughly flat).
/// Full in-memory telemetry (counting folds + phase spans, no file IO) —
/// the obs-on price the `_obs` bench variants measure against the baseline.
obs::ObsConfig bench_obs_config() {
  obs::ObsConfig ocfg;
  ocfg.enabled = true;
  ocfg.timing = true;
  return ocfg;
}

void run_orchestrator_bench(benchmark::State& state, int n_chambers,
                            const control::OrchestratorConfig& config,
                            bool with_obs = false) {
  const int side = 24;
  unit_cage();  // calibrate outside the timed region

  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = side;
  cfg.rows = side;

  fluidic::ChamberNetwork net;
  fluidic::Microchamber geo;
  geo.length = side * cfg.pitch;
  geo.width = side * cfg.pitch;
  geo.height = cfg.chamber_height;
  for (int c = 0; c < n_chambers; ++c) net.add_chamber(geo, side, side);
  for (int c = 0; c + 1 < n_chambers; ++c)
    net.add_port(c, {side - 2, side / 2}, c + 1, {1, side / 2}, 500e-6, 60e-6);

  double total_ticks = 0.0;
  double delivered = 0.0, goals_n = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<World>> worlds;
    std::vector<control::ChamberSetup> chambers;
    std::vector<control::TransferGoal> transfers;
    for (int c = 0; c < n_chambers; ++c) {
      worlds.push_back(std::make_unique<World>(cfg, unit_cage()));
      World& w = *worlds.back();
      Rng defect_rng(515 + static_cast<std::uint64_t>(c));
      w.defects = chip::sample_defects(w.dev.array(), 0.01, defect_rng);
      const GridCoord keep[8] = {{side - 2, side / 2}, {1, side / 2},
                                 {3, 4},               {side - 4, 4},
                                 {3, side - 5},        {side - 4, 7},
                                 {4, side / 2},        {side - 5, side / 2 - 3}};
      for (const GridCoord s : keep)
        for (int dr = -1; dr <= 1; ++dr)
          for (int dc = -1; dc <= 1; ++dc)
            w.defects.set_state({s.col + dc, s.row + dr}, chip::PixelState::kOk);
      w.add_cell({3, 4}, {side - 4, 4});
      w.add_cell({3, side - 5}, {side - 4, 4 + 3});  // second local delivery
      goals_n += 2.0;
    }
    for (int c = 0; c + 1 < n_chambers; ++c) {
      World& w = *worlds[static_cast<std::size_t>(c)];
      const int id = w.cages.create({4, side / 2});
      const cell::ParticleSpec spec = cell::viable_lymphocyte();
      w.bodies.push_back({w.engine.field_model().trap_center({4, side / 2}),
                          spec.radius, spec.density,
                          spec.dep_prefactor(w.medium, cfg.drive_frequency), id});
      w.cage_bodies.emplace_back(id, static_cast<int>(w.bodies.size()) - 1);
      transfers.push_back({c, id, c + 1, {side - 5, side / 2 - 3}});
      goals_n += 1.0;
    }
    for (auto& w : worlds)
      chambers.push_back({&w->cages, &w->engine, &w->imager, &w->defects, &w->bodies,
                          w->cage_bodies, w->goals});
    control::Orchestrator orch(net, config);
    Rng rng(90210);
    obs::Observer observer(with_obs ? bench_obs_config() : obs::ObsConfig{});
    orch.set_observer(with_obs ? &observer : nullptr);
    state.ResumeTiming();
    const control::OrchestratorReport report =
        orch.run(chambers, transfers, rng.split(), &core::ThreadPool::global());
    state.PauseTiming();
    total_ticks += report.ticks;
    delivered += static_cast<double>(report.delivered_transfers.size());
    for (const control::EpisodeReport& cr : report.chambers)
      delivered += static_cast<double>(cr.delivered_ids.size());
    state.ResumeTiming();
  }
  state.counters["ticks_per_s"] =
      benchmark::Counter(total_ticks, benchmark::Counter::kIsRate);
  state.counters["chamber_ticks_per_s"] =
      benchmark::Counter(total_ticks * n_chambers, benchmark::Counter::kIsRate);
  state.counters["delivered_frac"] = goals_n > 0.0 ? delivered / goals_n : 0.0;
}

void bm_orchestrator_chambers(benchmark::State& state) {
  control::OrchestratorConfig config;
  config.control.escape_rate = 0.003;
  run_orchestrator_bench(state, static_cast<int>(state.range(0)), config);
}

BENCHMARK(bm_orchestrator_chambers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Telemetry-on twin of bm_orchestrator_chambers: full counting-plane folds
// plus phase-span tracing, in memory (no exporter IO). Compare against the
// same-arg baseline for the obs overhead (docs/perf.md tracks the delta).
void bm_orchestrator_chambers_obs(benchmark::State& state) {
  control::OrchestratorConfig config;
  config.control.escape_rate = 0.003;
  run_orchestrator_bench(state, static_cast<int>(state.range(0)), config,
                         /*with_obs=*/true);
}

BENCHMARK(bm_orchestrator_chambers_obs)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Tracked-field twin of bm_orchestrator_chambers: every chamber keeps a
// whole-chamber potential grid current inside the actuation loop (2
// nodes/pitch). range(1) is the incremental re-anchor period: 1 = full
// multigrid solve every tick (what made in-loop field tracking
// unaffordable), 8 = windowed dirty-region corrections with the periodic
// full re-anchor. The /1 vs /8 chamber_ticks_per_s ratio is the incremental
// win inside the closed loop; the delta against the untracked same-arg
// baseline is the residual cost of tracking at all.
void bm_orchestrator_chambers_tracked(benchmark::State& state) {
  control::OrchestratorConfig config;
  config.control.escape_rate = 0.003;
  config.control.field_tracking_nodes_per_pitch = 2;
  config.control.field_tracking.incremental.reanchor_period =
      static_cast<std::size_t>(state.range(1));
  run_orchestrator_bench(state, static_cast<int>(state.range(0)), config);
}

BENCHMARK(bm_orchestrator_chambers_tracked)
    ->Args({3, 1})
    ->Args({3, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Fault-lifecycle overhead: the same chamber chain under a hostile sampled
// fault schedule with rescue and the per-chamber HealthMonitor enabled —
// the price of the robustness machinery in ticks/s and episode length
// (faulted episodes run ~2-3x longer), with `delivered_frac` recording what
// the degrading chip still lands (the machinery's job is to hold it at
// 1.0). range(0) = chamber count.
void bm_orchestrator_faulted(benchmark::State& state) {
  control::OrchestratorConfig config;
  config.control.escape_rate = 0.003;
  config.control.rescue = true;
  config.control.health.enabled = true;
  config.faults.rates.electrode_dead = 1e-2;
  config.faults.rates.electrode_silent_dead = 2e-2;
  config.faults.rates.sensor_row_dropout = 5e-3;
  config.faults.rates.sensor_pixel_burst = 5e-3;
  config.faults.rates.port_intermittent = 5e-3;
  config.faults.max_electrode_faults_per_chamber = 10;
  run_orchestrator_bench(state, static_cast<int>(state.range(0)), config);
}

BENCHMARK(bm_orchestrator_faulted)
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Open-system streaming service curve: a 2-chamber chip with one inlet per
// chamber under continuous Poisson arrivals and admission control
// (control/streaming.hpp). range(0) = offered load per inlet-tick x1000,
// spanning under-load to ~2x overload. The counters record the service
// curve the BENCH JSON tracks per PR: delivered `cells_per_hour` plus
// p50/p99 time-in-chip [ticks] vs offered load, the typed `shed_frac`, and
// the supervisory `ticks_per_s` loop cost. Runs are deterministic (fixed
// seed), so the quantiles are identical across iterations.
void run_streaming_bench(benchmark::State& state, bool with_obs,
                         int tracked_period = -1) {
  const double rate = static_cast<double>(state.range(0)) / 1000.0;
  const int side = 16;
  constexpr std::size_t n_chambers = 2;
  unit_cage();  // calibrate outside the timed region

  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = side;
  cfg.rows = side;

  fluidic::ChamberNetwork net;
  fluidic::Microchamber geo;
  geo.length = side * cfg.pitch;
  geo.width = side * cfg.pitch;
  geo.height = cfg.chamber_height;
  for (std::size_t c = 0; c < n_chambers; ++c) net.add_chamber(geo, side, side);
  for (int c = 0; c < static_cast<int>(n_chambers); ++c) net.add_inlet(c, {1, 8});

  double total_ticks = 0.0;
  control::StreamingReport last;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<World>> worlds;
    std::vector<control::ChamberSetup> chambers;
    for (std::size_t c = 0; c < n_chambers; ++c)
      worlds.push_back(std::make_unique<World>(cfg, unit_cage()));
    const auto proto = [&](const cell::ParticleSpec& spec) {
      return physics::ParticleBody{
          {0.0, 0.0, 0.0}, spec.radius, spec.density,
          spec.dep_prefactor(worlds[0]->medium, cfg.drive_frequency), 0};
    };
    control::StreamingConfig scfg;
    scfg.ticks = 800;
    scfg.arrival_rates.assign(n_chambers, rate);
    scfg.type_weights = {3.0, 1.0};
    scfg.body_prototypes = {proto(cell::viable_lymphocyte()),
                            proto(cell::polystyrene_bead(5e-6))};
    scfg.admission.queue_capacity = 4;
    scfg.admission.chamber_quota = 3;
    scfg.admission.degraded_quota = 1;
    scfg.service_deadline = 120;
    scfg.goal_sites.assign(n_chambers, {{12, 4}, {12, 8}, {12, 12}});
    scfg.control.escape_rate = 1e-3;
    scfg.control.health.enabled = true;
    if (tracked_period >= 0) {
      scfg.control.field_tracking_nodes_per_pitch = 2;
      scfg.control.field_tracking.incremental.reanchor_period =
          static_cast<std::size_t>(tracked_period);
    }
    scfg.elide_idle_chambers = true;
    control::StreamingService service(net, scfg);
    for (auto& w : worlds)
      chambers.push_back({&w->cages, &w->engine, &w->imager, &w->defects,
                          &w->bodies, w->cage_bodies, w->goals});
    Rng rng(90210);
    obs::Observer observer(with_obs ? bench_obs_config() : obs::ObsConfig{});
    service.set_observer(with_obs ? &observer : nullptr);
    state.ResumeTiming();
    last = service.run(chambers, rng.split(), &core::ThreadPool::global());
    state.PauseTiming();
    total_ticks += last.ticks;
    state.ResumeTiming();
  }
  state.counters["ticks_per_s"] =
      benchmark::Counter(total_ticks, benchmark::Counter::kIsRate);
  state.counters["cells_per_hour"] = last.cells_per_hour(0.4);
  state.counters["p50_ticks"] = static_cast<double>(last.latency_quantile(0.5));
  state.counters["p99_ticks"] = static_cast<double>(last.latency_quantile(0.99));
  state.counters["shed_frac"] =
      last.admission.offered == 0
          ? 0.0
          : static_cast<double>(last.admission.shed) /
                static_cast<double>(last.admission.offered);
  state.counters["delivered_frac"] =
      last.admission.admitted == 0
          ? 0.0
          : static_cast<double>(last.delivered) /
                static_cast<double>(last.admission.admitted);
}

void bm_streaming(benchmark::State& state) {
  run_streaming_bench(state, /*with_obs=*/false);
}

BENCHMARK(bm_streaming)
    ->Arg(36)   // ~0.5x the sustained service rate
    ->Arg(71)   // ~1.0x — the knee of the latency curve
    ->Arg(142)  // ~2.0x — scripted overload: typed shedding holds the line
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Telemetry-on twin of bm_streaming at the latency-curve knee: counting
// folds every tick plus ~10 phase spans per tick into the trace ring, no
// exporter IO. The CI bench smoke asserts the *disabled* path (bm_streaming
// itself, observer never attached) is unchanged; this variant prices the
// enabled path.
void bm_streaming_obs(benchmark::State& state) {
  run_streaming_bench(state, /*with_obs=*/true);
}

BENCHMARK(bm_streaming_obs)
    ->Arg(71)  // ~1.0x — the knee of the latency curve
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Tracked-field twin of bm_streaming at the knee: the service loop carries a
// live whole-chamber potential per chamber. range(1) is the re-anchor
// period, as in bm_orchestrator_chambers_tracked — the /1 row prices
// full-solve-per-tick, the /8 row the incremental dirty-region policy.
void bm_streaming_tracked(benchmark::State& state) {
  run_streaming_bench(state, /*with_obs=*/false,
                      static_cast<int>(state.range(1)));
}

BENCHMARK(bm_streaming_tracked)
    ->Args({71, 1})
    ->Args({71, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The sense phase alone, as the closed loop runs it: `averaged_crossings` →
// `apply_frame_faults` (1% defects, masked) → `cluster_flagged`, 16 frames at
// a 4σ threshold over lymphocytes levitated at 21 µm over pixel centers, as
// caged cells sit (12 on the paper's 320² array, one on 16²). range(0) =
// array side. The accuracy columns come from a fixed set of kCheckFrames
// frames after the timed loop, each on its own stream, so they do not
// depend on how many iterations the timed loop ran:
//  - `bg_crossings_per_frame`: crossings outside every cell's window, against
//    `bg_expected_per_frame` = N_bg·p, p = Φ(−4); `bg_crossings_se` is the
//    standard error of the former (binomial);
//  - `law_detections_per_frame` and `dense_detections_per_frame`: the sparse
//    sense against the dense sequence (`averaged_frame` →
//    `apply_pixel_faults` → `detect_threshold`) on independent streams;
//    `detections_se` is the standard error of their difference;
//  - `flagged_per_frame`: pixels the clusterer reads;
//  - `dense_us`: the dense sequence's wall time per frame.
void bm_sense(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = side;
  cfg.rows = side;
  const chip::BiochipDevice dev(cfg);
  const chip::ElectrodeArray& array = dev.array();
  const physics::Medium medium = physics::dep_buffer();
  const sensor::FrameSynthesizer imager(array, pixel_for(dev), medium.temperature, 7);
  Rng defect_rng(515);
  const chip::DefectMap defects = chip::sample_defects(array, 0.01, defect_rng);
  const std::vector<sensor::PixelFault> pixel_faults = sensor::pixel_faults(defects);
  sensor::FrameFaults faults;
  faults.pixels = pixel_faults;
  std::vector<sensor::FrameTarget> targets;
  Rng place(1);
  for (int k = 0; k < std::max(1, side * side / 8192); ++k) {
    const Vec2 at = array.center({static_cast<int>(place.uniform_int(2, side - 3)),
                                  static_cast<int>(place.uniform_int(2, side - 3))});
    targets.push_back({{at.x, at.y, 21e-6}, cell::viable_lymphocyte().radius});
  }
  constexpr std::size_t kFrames = 16;
  const double threshold = 4.0 * imager.cds_noise_sigma() / 4.0;  // 4σ of 16 frames
  const auto sparse_sense = [&](Rng rng, std::size_t* background, std::size_t* flagged) {
    const std::vector<sensor::FlaggedPixel> pixels = sensor::apply_frame_faults(
        imager.averaged_crossings(targets, rng, kFrames, threshold, background), array, faults,
        threshold);
    if (flagged != nullptr) *flagged += pixels.size();
    return sensor::cluster_flagged(pixels, array);
  };

  const Rng streams(90210);
  std::uint64_t frame = 0;
  for (auto _ : state) {
    auto dets = sparse_sense(streams.fork(frame++), nullptr, nullptr);
    benchmark::DoNotOptimize(dets.data());
  }

  constexpr std::size_t kCheckFrames = 128;
  const Rng check(4242);
  RunningStats background, law, dense;
  std::size_t flagged = 0;
  double dense_s = 0.0;
  for (std::uint64_t f = 0; f < kCheckFrames; ++f) {
    std::size_t bg = 0;
    law.add(static_cast<double>(sparse_sense(check.fork(2 * f), &bg, &flagged).size()));
    background.add(static_cast<double>(bg));
    const auto t0 = std::chrono::steady_clock::now();
    Rng rng = check.fork(2 * f + 1);
    Grid2 dense_frame = imager.averaged_frame(targets, rng, kFrames);
    sensor::apply_pixel_faults(dense_frame, defects);
    const auto dets = sensor::detect_threshold(dense_frame, array, threshold);
    dense_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    dense.add(static_cast<double>(dets.size()));
  }
  // Background pixels: those outside every cell's 2-pitch window.
  std::vector<std::uint8_t> window(array.electrode_count(), 0);
  for (const sensor::FrameTarget& t : targets) {
    const double reach = 2.0 * array.pitch();
    const GridCoord lo = array.nearest({t.position.x - reach, t.position.y - reach});
    const GridCoord hi = array.nearest({t.position.x + reach, t.position.y + reach});
    for (int r = lo.row; r <= hi.row; ++r)
      for (int c = lo.col; c <= hi.col; ++c) window[array.index({c, r})] = 1;
  }
  const auto n_bg = static_cast<double>(std::count(window.begin(), window.end(), 0));
  const double p = 0.5 * std::erfc(4.0 / std::sqrt(2.0));
  const auto n = static_cast<double>(kCheckFrames);
  state.counters["bg_crossings_per_frame"] = background.mean();
  state.counters["bg_expected_per_frame"] = n_bg * p;
  state.counters["bg_crossings_se"] = std::sqrt(n_bg * p * (1.0 - p) / n);
  state.counters["law_detections_per_frame"] = law.mean();
  state.counters["dense_detections_per_frame"] = dense.mean();
  state.counters["detections_se"] = std::sqrt((law.variance() + dense.variance()) / n);
  state.counters["flagged_per_frame"] = static_cast<double>(flagged) / n;
  state.counters["dense_us"] = 1e6 * dense_s / n;
}

BENCHMARK(bm_sense)->Arg(16)->Arg(320)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
