// Long-horizon soak: a 3-chamber service loop under accumulating runtime
// faults (ISSUE 6 acceptance scenario, see docs/robustness.md).
//
// The soak drives back-to-back orchestrated service episodes over a
// 3-chamber chain with two transfer ports per adjacent pair. Each round
// carries the previous round's ground-truth defect map forward as the next
// round's announced self-test map (the chip "learns" yesterday's faults) and
// carries permanently failed ports into `OrchestratorConfig::failed_ports`.
// Each round draws a scripted fault schedule from the round index alone —
// identical for both arms, fired in the opening ticks so per-goal exposure
// does not scale with round length: electrode dead/stuck/silent-dead faults
// ramping to a held density of ~5.5% (14/256 sites per chamber), sensor row
// dropouts and pixel bursts, and intermittent port outages — so the late
// soak runs on a chip markedly worse than the first round's.
//
// Two arms run the same scenario: HealthMonitor enabled vs disabled. The
// soak fails (non-zero exit) unless
//   * each arm sustains >= the requested tick budget (default 200k),
//   * every transfer terminates (admitted/failed/timed out — no livelock),
//   * round 0 is bitwise serial-vs-pooled identical (event streams,
//     injections, accounting) for both arms, and
//   * the health-on arm's delivered fraction is strictly above health-off.
//
// Memory stays bounded: each round builds fresh chamber worlds and keeps
// only scalar accumulators plus the carried defect maps, so steady state
// allocates per round, not per tick.
//
// Usage: example_soak_chamber_service [total_ticks_per_arm] [--obs=PREFIX]
//
// --obs=PREFIX attaches the telemetry layer to the health-on arm's first
// round (one representative orchestrated episode — the JSONL tick stream
// must stay monotone, so telemetry is not stitched across rounds) and
// writes PREFIX.metrics.jsonl / PREFIX.trace.json / PREFIX.summary.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cad/route.hpp"
#include "cell/library.hpp"
#include "chip/defects.hpp"
#include "chip/device.hpp"
#include "control/orchestrator.hpp"
#include "core/threadpool.hpp"
#include "fluidic/chamber_network.hpp"
#include "obs/obs.hpp"
#include "physics/medium.hpp"

namespace {

using namespace biochip;

constexpr int kGrid = 16;
constexpr std::size_t kChambers = 3;
/// Electrode-fault density target per chamber: 14/256 ~ 5.5% dead pixels.
constexpr std::size_t kElectrodeFaultTarget = 14;

fluidic::Microchamber chamber_geometry(const chip::DeviceConfig& cfg) {
  fluidic::Microchamber c;
  c.length = cfg.cols * cfg.pitch;
  c.width = cfg.rows * cfg.pitch;
  c.height = cfg.chamber_height;
  return c;
}

/// a - b - c chain with TWO ports per adjacent pair. Rows 7 and 11 keep the
/// two ports' defect rings disjoint — one dead pixel can condemn at most one
/// port of a pair, so a failed or blocked port always leaves an escalation
/// alternative until a second independent fault lands.
fluidic::ChamberNetwork chain(const chip::DeviceConfig& cfg) {
  fluidic::ChamberNetwork net;
  const fluidic::Microchamber geo = chamber_geometry(cfg);
  for (std::size_t c = 0; c < kChambers; ++c) net.add_chamber(geo, kGrid, kGrid);
  for (int c = 0; c + 1 < static_cast<int>(kChambers); ++c) {
    net.add_port(c, {14, 7}, c + 1, {1, 7}, 500e-6, 60e-6);
    net.add_port(c, {14, 11}, c + 1, {1, 11}, 500e-6, 60e-6);
  }
  return net;
}

sensor::CapacitivePixel pixel_for(const chip::BiochipDevice& dev) {
  sensor::CapacitivePixel px;
  px.electrode_area = dev.array().footprint({0, 0}).area();
  px.chamber_height = dev.config().chamber_height;
  px.sense_voltage = dev.drive_amplitude();
  return px;
}

/// One self-contained chamber world (chambers must not share mutable state).
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

  control::ChamberSetup setup() {
    return {&cages, &engine, &imager, &defects, &bodies, cage_bodies, goals};
  }
};

/// Nearest defect-usable site to `want` (chebyshev rings, deterministic scan
/// order) that keeps >= 3 sites of clearance from everything in `taken`.
/// Returns nullopt when the neighborhood has degraded past usability.
std::optional<GridCoord> pick_usable(const chip::ElectrodeArray& array,
                                     const chip::DefectMap& defects, GridCoord want,
                                     std::vector<GridCoord>& taken) {
  for (int radius = 0; radius < kGrid; ++radius)
    for (int row = want.row - radius; row <= want.row + radius; ++row)
      for (int col = want.col - radius; col <= want.col + radius; ++col) {
        if (std::max(std::abs(row - want.row), std::abs(col - want.col)) != radius)
          continue;
        if (col < 1 || row < 1 || col >= kGrid - 1 || row >= kGrid - 1) continue;
        const GridCoord site{col, row};
        if (!chip::site_usable(array, defects, site)) continue;
        const auto clashes = [&](GridCoord t) {
          return std::max(std::abs(t.col - col), std::abs(t.row - row)) < 3;
        };
        if (std::any_of(taken.begin(), taken.end(), clashes)) continue;
        taken.push_back(site);
        return site;
      }
  return std::nullopt;
}

/// Carried state of one soak arm between rounds.
struct ArmState {
  std::vector<chip::DefectMap> defects;  ///< last round's ground truth
  std::vector<int> failed_ports;
};

struct RoundResult {
  control::OrchestratorReport report;
  std::size_t attempted = 0;  ///< transfers + intra-chamber goals this round
};

struct SoakTotals {
  long long ticks = 0;
  std::size_t rounds = 0;
  std::size_t attempted = 0;
  std::size_t delivered = 0;
  std::size_t livelocked = 0;
  std::size_t unplanned_rounds = 0;

  double fraction() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(delivered) / static_cast<double>(attempted);
  }
};

/// One service round: fresh worlds seeded from the arm's carried defects,
/// two cross-chamber transfers + one intra-chamber goal per chamber, run
/// under the round's scripted fault schedule.
RoundResult run_round(const chip::DeviceConfig& cfg, const field::HarmonicCage& cage,
                      const fluidic::ChamberNetwork& net, const ArmState& arm,
                      bool health_on, std::uint64_t round, core::ThreadPool* pool,
                      obs::Observer* obs = nullptr) {
  std::vector<std::unique_ptr<World>> worlds;
  for (std::size_t c = 0; c < kChambers; ++c) {
    worlds.push_back(std::make_unique<World>(cfg, cage));
    if (!arm.defects.empty()) worlds[c]->defects = arm.defects[c];
  }

  // Port endpoints stay clear of cell starts/goals (3-site clearance).
  std::vector<std::vector<GridCoord>> taken(kChambers);
  for (std::size_t p = 0; p < net.port_count(); ++p) {
    const fluidic::TransferPort& port = net.port(static_cast<int>(p));
    taken[static_cast<std::size_t>(port.a)].push_back(port.a_site);
    taken[static_cast<std::size_t>(port.b)].push_back(port.b_site);
  }
  const auto pick = [&](std::size_t c, GridCoord want) {
    return pick_usable(worlds[c]->dev.array(), worlds[c]->defects, want, taken[c]);
  };
  // The service scheduler never dispatches a leg its own CAD layer calls
  // unroutable on the announced defect map — accumulated defects can cut a
  // usable site off from the rest of the chamber entirely.
  const auto routable = [&](std::size_t c, GridCoord from, GridCoord to) {
    cad::RouteConfig rc;
    rc.cols = kGrid;
    rc.rows = kGrid;
    rc.blocked = chip::blocked_site_mask(worlds[c]->dev.array(), worlds[c]->defects);
    return cad::route_astar({{0, from, to}}, rc).success;
  };

  RoundResult result;
  std::vector<control::TransferGoal> transfers;

  // Cross-chamber service legs: 0 -> 1 and 1 -> 2. A leg is staged only if
  // some port has a routable approach on the source side and a routable
  // final leg on the destination side.
  const auto stage_transfer = [&](std::size_t from, std::size_t to, GridCoord start,
                                  GridCoord dest) {
    const auto s = pick(from, start);
    const auto d = pick(to, dest);
    if (!s || !d) return;  // chamber degraded past staging this leg
    bool viable = false;
    for (const int p : net.ports_between(static_cast<int>(from), static_cast<int>(to)))
      if (routable(from, *s, net.port_site(p, static_cast<int>(from))) &&
          routable(to, net.port_site(p, static_cast<int>(to)), *d)) {
        viable = true;
        break;
      }
    if (!viable) return;
    const int id = worlds[from]->add_cell(*s);
    transfers.push_back({static_cast<int>(from), id, static_cast<int>(to), *d});
    ++result.attempted;
  };
  stage_transfer(0, 1, {10, 8}, {11, 4});
  stage_transfer(1, 2, {8, 12}, {11, 12});

  // One intra-chamber delivery per chamber.
  const GridCoord local_start[kChambers] = {{4, 4}, {4, 4}, {5, 5}};
  const GridCoord local_goal[kChambers] = {{11, 12}, {11, 4}, {12, 8}};
  for (std::size_t c = 0; c < kChambers; ++c) {
    const auto s = pick(c, local_start[c]);
    const auto g = pick(c, local_goal[c]);
    if (!s || !g || !routable(c, *s, *g)) continue;
    const int id = worlds[c]->add_cell(*s);
    worlds[c]->goals.push_back({id, *g});
    ++result.attempted;
  }

  control::OrchestratorConfig config;
  config.control.escape_rate = 5e-4;
  config.control.rescue = true;
  config.control.health.enabled = health_on;
  config.transfer_backoff = 4;
  config.max_transfer_backoff = 32;
  config.escalate_after_denials = 3;
  config.transfer_deadline = 150;
  config.elide_idle_chambers = true;
  config.failed_ports = arm.failed_ports;

  // Scripted fault schedule, drawn from the round index alone so both arms
  // face the identical fault set, and fired in the opening ticks so per-goal
  // exposure does not scale with round length (health-managed rounds run
  // longer — a per-tick rate would handicap exactly the arm under test).
  // Silent electrode faults keep landing every round; announced electrode
  // faults stop once a chamber's carried map reaches the density target,
  // which the carry loop in main() then holds frozen.
  Rng fault_rng = Rng(0xFA17).fork(round);
  const auto inner_site = [&]() -> GridCoord {
    return {static_cast<int>(fault_rng.uniform_int(2, kGrid - 3)),
            static_cast<int>(fault_rng.uniform_int(2, kGrid - 3))};
  };
  for (int c = 0; c < static_cast<int>(kChambers); ++c) {
    const std::size_t carried =
        arm.defects.empty() ? 0
                            : arm.defects[static_cast<std::size_t>(c)].defect_count();
    if (fault_rng.bernoulli(0.35))
      config.faults.scripted.push_back({static_cast<int>(fault_rng.uniform_int(2, 10)),
                                        chip::FaultKind::kElectrodeSilentDead, c,
                                        inner_site(), -1, 0});
    if (carried < kElectrodeFaultTarget && fault_rng.bernoulli(0.2))
      config.faults.scripted.push_back(
          {static_cast<int>(fault_rng.uniform_int(2, 10)),
           fault_rng.bernoulli(0.33) ? chip::FaultKind::kElectrodeStuckCage
                                     : chip::FaultKind::kElectrodeDead,
           c, inner_site(), -1, 0});
    if (fault_rng.bernoulli(0.05))
      config.faults.scripted.push_back(
          {static_cast<int>(fault_rng.uniform_int(2, 10)),
           chip::FaultKind::kSensorRowDropout, c,
           {0, static_cast<int>(fault_rng.uniform_int(0, kGrid - 1))}, -1, 4});
    if (fault_rng.bernoulli(0.08))
      config.faults.scripted.push_back({static_cast<int>(fault_rng.uniform_int(2, 10)),
                                        chip::FaultKind::kSensorPixelBurst, c,
                                        inner_site(), -1, 2});
  }
  for (int p = 0; p < static_cast<int>(net.port_count()); ++p)
    if (fault_rng.bernoulli(0.08))
      config.faults.scripted.push_back({static_cast<int>(fault_rng.uniform_int(1, 8)),
                                        chip::FaultKind::kPortIntermittent, -1,
                                        {0, 0}, p, 25});
  std::stable_sort(config.faults.scripted.begin(), config.faults.scripted.end(),
                   [](const chip::FaultEvent& a, const chip::FaultEvent& b) {
                     return a.tick < b.tick;
                   });

  control::Orchestrator orch(net, config);
  std::vector<control::ChamberSetup> chambers;
  for (auto& w : worlds) chambers.push_back(w->setup());
  orch.set_observer(obs);
  Rng rng = Rng(0x50AC).fork(round);
  result.report = orch.run(chambers, transfers, rng.split(), pool);
  return result;
}

void accumulate(SoakTotals& totals, const RoundResult& round) {
  // A round that could not plan at all reports 0 ticks; count it as one so
  // a chamber degraded past planning can never stall the soak loop.
  totals.ticks += std::max(1, round.report.ticks);
  ++totals.rounds;
  totals.attempted += round.attempted;
  if (!round.report.planned) {
    ++totals.unplanned_rounds;
    return;
  }
  totals.delivered += round.report.delivered_transfers.size();
  for (const control::EpisodeReport& chamber : round.report.chambers)
    totals.delivered += chamber.delivered_ids.size();
  for (const control::TransferOutcome& out : round.report.transfers)
    if (out.phase != control::TransferPhase::kDelivered &&
        out.phase != control::TransferPhase::kFailed)
      ++totals.livelocked;
}

bool reports_identical(const control::OrchestratorReport& a,
                       const control::OrchestratorReport& b) {
  if (a.ticks != b.ticks || a.transfer_requests != b.transfer_requests ||
      a.admissions != b.admissions || a.denials != b.denials ||
      a.reroutes != b.reroutes || a.timeouts != b.timeouts ||
      a.delivered_transfers != b.delivered_transfers ||
      a.failed_transfers != b.failed_transfers ||
      a.failed_ports != b.failed_ports ||
      a.injected_faults.size() != b.injected_faults.size() ||
      a.chambers.size() != b.chambers.size())
    return false;
  for (std::size_t f = 0; f < a.injected_faults.size(); ++f) {
    const chip::FaultEvent& x = a.injected_faults[f];
    const chip::FaultEvent& y = b.injected_faults[f];
    if (x.tick != y.tick || x.kind != y.kind || x.chamber != y.chamber ||
        !(x.site == y.site) || x.port != y.port || x.duration != y.duration)
      return false;
  }
  for (std::size_t c = 0; c < a.chambers.size(); ++c) {
    const auto& ea = a.chambers[c].events;
    const auto& eb = b.chambers[c].events;
    if (ea.size() != eb.size()) return false;
    for (std::size_t e = 0; e < ea.size(); ++e)
      if (ea[e].tick != eb[e].tick || ea[e].kind != eb[e].kind ||
          ea[e].cage_id != eb[e].cage_id || !(ea[e].site == eb[e].site))
        return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  long long total_ticks = 200000;
  std::string obs_prefix;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--obs=", 0) == 0) obs_prefix = arg.substr(6);
    else total_ticks = std::atoll(arg.c_str());
  }
  if (total_ticks <= 0) {
    std::fprintf(stderr, "usage: %s [total_ticks_per_arm > 0] [--obs=PREFIX]\n",
                 argv[0]);
    return 2;
  }

  std::optional<obs::Observer> observer;
  if (!obs_prefix.empty()) {
    obs::ObsConfig ocfg;
    ocfg.enabled = true;
    ocfg.snapshot_period = 100;
    ocfg.metrics_path = obs_prefix + ".metrics.jsonl";
    ocfg.trace_path = obs_prefix + ".trace.json";
    ocfg.summary_path = obs_prefix + ".summary.json";
    ocfg.label = "soak_chamber_service";
    observer.emplace(std::move(ocfg));
  }

  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = kGrid;
  cfg.rows = kGrid;
  const field::HarmonicCage cage = chip::BiochipDevice(cfg).calibrate_cage(5, 6);
  const fluidic::ChamberNetwork net = chain(cfg);

  bool ok = true;
  core::ThreadPool* const pool = &core::ThreadPool::global();

  // Round 0 must be bitwise serial-vs-pooled identical in both arms.
  for (const bool health_on : {false, true}) {
    const ArmState fresh;
    if (std::getenv("SOAK_TRACE") != nullptr)
      std::fprintf(stderr, "identity check: health %s serial\n", health_on ? "on" : "off");
    const RoundResult serial = run_round(cfg, cage, net, fresh, health_on, 0, nullptr);
    if (std::getenv("SOAK_TRACE") != nullptr)
      std::fprintf(stderr, "identity check: health %s pooled (serial ticks %d)\n",
                   health_on ? "on" : "off", serial.report.ticks);
    const RoundResult pooled = run_round(cfg, cage, net, fresh, health_on, 0, pool);
    if (!reports_identical(serial.report, pooled.report)) {
      std::fprintf(stderr, "FAIL: serial vs pooled round-0 mismatch (health %s)\n",
                   health_on ? "on" : "off");
      ok = false;
    }
  }

  SoakTotals totals[2];
  for (const bool health_on : {false, true}) {
    ArmState arm;
    SoakTotals& arm_totals = totals[health_on ? 1 : 0];
    std::uint64_t round = 0;
    while (arm_totals.ticks < total_ticks) {
      // Telemetry covers one representative episode: the health-on arm's
      // first round (the JSONL tick stream must stay monotone, so rounds
      // are not stitched together).
      obs::Observer* round_obs =
          health_on && round == 0 && observer.has_value() ? &*observer : nullptr;
      const RoundResult result =
          run_round(cfg, cage, net, arm, health_on, round++, pool, round_obs);
      if (round_obs != nullptr) round_obs->finalize(result.report.ticks);
      accumulate(arm_totals, result);
      if (std::getenv("SOAK_TRACE") != nullptr)
        std::fprintf(stderr, "round %llu ticks %d attempted %zu planned %d\n",
                     static_cast<unsigned long long>(round), result.report.ticks,
                     result.attempted, result.report.planned ? 1 : 0);
      if (result.report.planned) {
        // Accumulate-then-hold: carry ground truth forward until a chamber
        // reaches the density target, then freeze its carried map so the
        // soak holds ~5.5% while fresh silent faults keep landing.
        if (arm.defects.empty()) {
          arm.defects = result.report.final_truth_defects;
        } else {
          for (std::size_t c = 0; c < kChambers; ++c)
            if (arm.defects[c].defect_count() < kElectrodeFaultTarget)
              arm.defects[c] = result.report.final_truth_defects[c];
        }
        arm.failed_ports = result.report.failed_ports;
      }
    }
    std::size_t worst_defects = 0;
    for (const chip::DefectMap& map : arm.defects)
      worst_defects = std::max(worst_defects, map.defect_count());
    std::printf(
        "health %-3s  rounds %zu  ticks %lld  delivered %zu/%zu (%.3f)  "
        "livelocked %zu  unplanned %zu  worst defect density %.1f%%\n",
        health_on ? "on" : "off", arm_totals.rounds, arm_totals.ticks,
        arm_totals.delivered, arm_totals.attempted, arm_totals.fraction(),
        arm_totals.livelocked, arm_totals.unplanned_rounds,
        100.0 * static_cast<double>(worst_defects) / (kGrid * kGrid));
  }

  if (totals[0].livelocked + totals[1].livelocked > 0) {
    std::fprintf(stderr, "FAIL: livelocked transfers detected\n");
    ok = false;
  }
  if (totals[1].fraction() <= totals[0].fraction()) {
    std::fprintf(stderr,
                 "FAIL: health-on delivered fraction %.3f not above health-off %.3f\n",
                 totals[1].fraction(), totals[0].fraction());
    ok = false;
  }
  return ok ? 0 : 1;
}
