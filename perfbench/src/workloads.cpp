#include "workloads.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "control/orchestrator.hpp"
#include "control/streaming.hpp"
#include "fluidic/chamber_network.hpp"
#include "obs/obs.hpp"
#include "physics/medium.hpp"

namespace perfbench {
namespace {

using namespace biochip;
constexpr double kSitePeriod = 0.4;  // [s] per supervisory tick

// Stream slots of the workload seed: every input is a pure function of
// (seed, slot, index), so a pass can be rebuilt bit for bit.
enum Slot : std::uint64_t { kControlStream, kDefects, kChipPattern, kCellSites };

Rng slot(std::uint64_t seed, Slot s) { return Rng(seed).fork(s); }

/// FNV-1a over 64-bit words: one number for "every simulated statistic".
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_int(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_real(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    add(u);
  }
  template <typename T>
  void add_ints(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add_int(static_cast<std::int64_t>(x));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_events(Digest& d, const std::vector<control::ControlEvent>& events) {
  d.add(events.size());
  for (const control::ControlEvent& e : events) {
    d.add_int(e.tick);
    d.add_int(static_cast<int>(e.kind));
    d.add_int(e.cage_id);
    d.add_int(e.site.col);
    d.add_int(e.site.row);
  }
}

void add_episode(Digest& d, const control::EpisodeReport& r) {
  d.add_int(r.planned);
  d.add_int(r.success);
  d.add_int(r.ticks);
  d.add_real(r.elapsed);
  d.add(r.replans);
  d.add(r.frames_sensed);
  add_events(d, r.events);
  d.add_ints(r.delivered_ids);
  d.add_ints(r.failed_ids);
}

sensor::CapacitivePixel pixel_for(const chip::BiochipDevice& dev) {
  sensor::CapacitivePixel px;
  px.electrode_area = dev.array().footprint({0, 0}).area();
  px.chamber_height = dev.config().chamber_height;
  px.sense_voltage = dev.drive_amplitude();
  return px;
}

chip::DeviceConfig chamber_config(int side) {
  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = side;
  cfg.rows = side;
  return cfg;
}

/// The paper device's cage surrogate, solved as every caller of the library
/// solves it before simulating: calibrate_cage(5, 6) on a local patch.
field::HarmonicCage calibrate_cage() {
  return chip::BiochipDevice(chip::paper_config_on_node(chip::paper_node()))
      .calibrate_cage(5, 6);
}

/// One chamber's chip world. Holds references into itself: never moved.
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

  World(const chip::DeviceConfig& cfg, const field::HarmonicCage& cage,
        std::uint64_t pattern_seed)
      : dev(cfg), cages(dev.array(), 2), engine(dev, medium, cage, 1.5 * cfg.pitch),
        imager(dev.array(), pixel_for(dev), medium.temperature, pattern_seed),
        defects(dev.array()) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  physics::ParticleBody body(const cell::ParticleSpec& spec, Vec3 at, int id) const {
    return {at, spec.radius, spec.density,
            spec.dep_prefactor(medium, dev.config().drive_frequency), id};
  }
  /// Clear the 3×3 pixel ring a cage needs around a site.
  void clear_ring(GridCoord s) {
    for (int dr = -1; dr <= 1; ++dr)
      for (int dc = -1; dc <= 1; ++dc)
        defects.set_state({s.col + dc, s.row + dr}, chip::PixelState::kOk);
  }
  /// Cage a lymphocyte at `site`; returns the cage id.
  int add_cell(GridCoord site) {
    clear_ring(site);
    const int id = cages.create(site);
    bodies.push_back(body(cell::viable_lymphocyte(), engine.field_model().trap_center(site), id));
    cage_bodies.emplace_back(id, static_cast<int>(bodies.size()) - 1);
    return id;
  }
  control::ChamberSetup setup() {
    return {&cages, &engine, &imager, &defects, &bodies, cage_bodies, goals};
  }
};

using Worlds = std::vector<std::unique_ptr<World>>;

void add_bodies(Digest& d, const World& world) {
  for (const physics::ParticleBody& b : world.bodies) {
    d.add_real(b.position.x);
    d.add_real(b.position.y);
    d.add_real(b.position.z);
  }
}

fluidic::Microchamber chamber_geometry(const chip::DeviceConfig& cfg) {
  fluidic::Microchamber geo;
  geo.length = cfg.cols * cfg.pitch;
  geo.width = cfg.rows * cfg.pitch;
  geo.height = cfg.chamber_height;
  return geo;
}

/// Every listed goal id lands in exactly one of the two outcome lists.
bool lands_once(const std::vector<int>& goals, const std::vector<int>& delivered,
                const std::vector<int>& failed) {
  if (goals.size() != delivered.size() + failed.size()) return false;
  for (const int id : goals)
    if (std::count(delivered.begin(), delivered.end(), id) +
            std::count(failed.begin(), failed.end(), id) != 1)
      return false;
  return true;
}

/// Ticks a delivered cage held its cell before the episode ended: from its
/// last kDelivered event to `end` (0 when the trail has none).
double held_ticks(const std::vector<control::ControlEvent>& events, int cage_id, int end) {
  int tick = end;
  for (const control::ControlEvent& e : events)
    if (e.kind == control::EventKind::kDelivered && e.cage_id == cage_id) tick = e.tick;
  return end - tick;
}

Metric sim(std::string name, std::optional<double> value, std::string unit) {
  return {std::move(name), value, std::move(unit), true};
}

// ------------------------------------------------------------ streaming ----

// bm_streaming/71's service chip at its latency knee, offered 0.071 cells
// per inlet-tick; 10,000 ticks deliver about 1,200 cells.
constexpr int kStreamSide = 16;
constexpr int kStreamChambers = 2;
constexpr int kStreamTicks = 10000;
constexpr int kStreamQuota = 3;

class StreamWorkload final : public Workload {
 public:
  StreamWorkload(std::uint64_t seed, bool tracked)
      : seed_(seed), tracked_(tracked), cfg_(chamber_config(kStreamSide)) {
    for (int c = 0; c < kStreamChambers; ++c)
      network_.add_chamber(chamber_geometry(cfg_), kStreamSide, kStreamSide);
    for (int c = 0; c < kStreamChambers; ++c) network_.add_inlet(c, {1, 8});

    config_.ticks = kStreamTicks;
    config_.arrival_rates.assign(kStreamChambers, 0.071);
    config_.type_weights = {3.0, 1.0};
    config_.admission.queue_capacity = 4;
    config_.admission.chamber_quota = kStreamQuota;
    config_.admission.degraded_quota = 1;
    config_.service_deadline = 120;
    config_.goal_sites.assign(kStreamChambers, {{12, 4}, {12, 8}, {12, 12}});
    config_.control.escape_rate = 1e-3;
    config_.elide_idle_chambers = true;
    // The soak's open-horizon health settings: the defaults ratchet a chamber
    // into quarantine on horizons this long.
    config_.control.health.enabled = true;
    config_.control.health.strike_window = 600;
    config_.control.health.quarantine_probation = 4000;
    config_.control.health.suspect_after_losses = 3;
    config_.control.health.quarantined_blocked_fraction = 0.30;
    if (tracked_) config_.control.field_tracking_nodes_per_pitch = 2;
  }

  SetupParts setup() override {
    SetupParts parts;
    CallTimer timer;
    cage_ = calibrate_cage();
    parts.cage_calibrate = timer.stop();
    timer = CallTimer();
    const Worlds worlds = build_worlds();
    parts.world_build = timer.stop();
    return parts;
  }

  Pass run(LayerFold* trace) override { return run_with(config_, trace); }

  std::vector<std::string> cross_checks(const Pass& measured) override {
    if (!tracked_) return {};
    control::StreamingConfig plain = config_;
    plain.control.field_tracking_nodes_per_pitch = 0;
    if (run_with(plain, nullptr).digest != measured.digest)
      return {"tracked and untracked runs of one seed differ"};
    return {};
  }

 private:
  Worlds build_worlds() const {
    Worlds worlds;
    const Rng pattern = slot(seed_, kChipPattern);
    for (int c = 0; c < kStreamChambers; ++c)
      worlds.push_back(std::make_unique<World>(
          cfg_, *cage_, pattern.fork(static_cast<std::uint64_t>(c))()));
    return worlds;
  }

  Pass run_with(control::StreamingConfig config, LayerFold* trace) const {
    Worlds worlds = build_worlds();
    config.body_prototypes = {
        worlds[0]->body(cell::viable_lymphocyte(), {0.0, 0.0, 0.0}, 0),
        worlds[0]->body(cell::polystyrene_bead(5e-6), {0.0, 0.0, 0.0}, 0)};
    std::vector<control::ChamberSetup> chambers;
    for (auto& w : worlds) chambers.push_back(w->setup());
    std::optional<obs::Observer> observer;
    if (trace != nullptr) {
      obs::ObsConfig oc;
      oc.enabled = true;
      oc.timing = true;
      // Six driver spans per tick plus five per chamber, with room to spare.
      oc.trace_capacity = static_cast<std::size_t>(config.ticks) * (8 + 6 * kStreamChambers);
      observer.emplace(oc);
    }
    control::StreamingService service(network_, config);
    service.set_observer(observer.has_value() ? &*observer : nullptr);

    const CallTimer timer;
    const control::StreamingReport r =
        service.run(chambers, slot(seed_, kControlStream), nullptr);
    Pass pass;
    pass.calls.push_back(timer.stop());
    pass.timed_s = pass.calls.back().ms * 1e-3;

    pass.ticks = static_cast<std::uint64_t>(r.ticks);
    pass.chamber_ticks = pass.ticks * kStreamChambers;
    pass.call_chamber_ticks.push_back(pass.chamber_ticks);
    pass.elided_chamber_ticks = r.elided_chamber_ticks;
    pass.frames_sensed = r.frames_sensed;
    pass.faults_injected = r.injected_faults;
    if (observer.has_value()) {
      const obs::TraceRecorder& rec = *observer->trace();
      if (rec.dropped() != 0) pass.failures.push_back("trace ring dropped spans");
      trace->add(rec.spans());
      for (int c = 0; c < kStreamChambers; ++c)
        pass.replans += static_cast<std::uint64_t>(
            observer->metrics().find("service.replans", c)->ivalue);
    }

    // Accounting closure and the service's own bounds.
    const control::AdmissionStats& a = r.admission;
    if (a.offered != a.shed + a.admitted + r.queued_end)
      pass.failures.push_back("offered != shed + admitted + queued");
    if (a.admitted != r.delivered + r.evicted + r.in_flight_end)
      pass.failures.push_back("admitted != delivered + evicted + in flight");
    std::uint64_t hist_total = 0;
    for (const std::uint64_t v : r.latency_hist) hist_total += v;
    if (hist_total != r.delivered) pass.failures.push_back("latency histogram != delivered");
    if (control::count_events(r, control::EventKind::kAdmissionShed) != a.shed)
      pass.failures.push_back("shed != kAdmissionShed events");
    if (r.peak_resident_bodies > static_cast<std::size_t>(kStreamQuota * kStreamChambers))
      pass.failures.push_back("peak resident bodies exceed quota x chambers");

    Digest d;
    d.add_int(r.ticks);
    d.add(a.offered);
    d.add(a.shed);
    d.add(a.deferrals);
    d.add(a.admitted);
    d.add(a.queue_wait_ticks);
    d.add(r.delivered);
    d.add(r.evicted);
    d.add_ints(r.latency_hist);
    d.add(r.peak_in_flight);
    d.add(r.peak_resident_bodies);
    d.add(r.peak_cage_slots);
    d.add(r.frames_sensed);
    for (const auto& counts : r.event_counts) d.add_ints(counts);
    d.add(r.injected_faults);
    d.add_ints(r.health);
    d.add(r.elided_chamber_ticks);
    d.add(r.in_flight_end);
    d.add(r.queued_end);
    for (const auto& w : worlds) add_bodies(d, *w);
    pass.digest = d.value();

    std::vector<double> latencies;
    for (std::size_t k = 0; k < r.latency_hist.size(); ++k)
      latencies.insert(latencies.end(), r.latency_hist[k], static_cast<double>(k));
    const auto ratio = [](std::uint64_t num, std::uint64_t den) -> std::optional<double> {
      if (den == 0) return std::nullopt;
      return static_cast<double>(num) / static_cast<double>(den);
    };
    pass.simulated = {
        sim("cells_per_hour", r.cells_per_hour(kSitePeriod), "1/h"),
        sim("latency_p50_ticks", percentile(latencies, 50), "ticks"),
        sim("latency_p99_ticks", percentile(latencies, 99), "ticks"),
        sim("fail_frac", ratio(a.shed + r.evicted, a.offered), "ratio"),
        sim("delivered", static_cast<double>(r.delivered), "count"),
        sim("control.queue_wait_ticks", ratio(a.queue_wait_ticks, a.admitted), "ticks"),
    };
    return pass;
  }

  std::uint64_t seed_;
  bool tracked_;
  chip::DeviceConfig cfg_;
  fluidic::ChamberNetwork network_;
  control::StreamingConfig config_;
  std::optional<field::HarmonicCage> cage_;
};

// ---------------------------------------------------------------- fleet ----

// bm_orchestrator_faulted/3: three 24² chambers chained by ports, two local
// deliveries per chamber plus one transfer per port, under a hostile fault
// schedule. Each episode draws its own defect map and streams.
constexpr int kFleetSide = 24;
constexpr int kFleetChambers = 3;
constexpr int kFleetEpisodes = 100;

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed)
      : seed_(seed), cfg_(chamber_config(kFleetSide)) {
    for (int c = 0; c < kFleetChambers; ++c)
      network_.add_chamber(chamber_geometry(cfg_), kFleetSide, kFleetSide);
    for (int c = 0; c + 1 < kFleetChambers; ++c)
      network_.add_port(c, {kFleetSide - 2, kFleetSide / 2}, c + 1, {1, kFleetSide / 2},
                        500e-6, 60e-6);
    config_.control.escape_rate = 3e-3;
    config_.control.rescue = true;
    config_.control.health.enabled = true;
    config_.faults.rates.electrode_dead = 1e-2;
    config_.faults.rates.electrode_silent_dead = 2e-2;
    config_.faults.rates.sensor_row_dropout = 5e-3;
    config_.faults.rates.sensor_pixel_burst = 5e-3;
    config_.faults.rates.port_intermittent = 5e-3;
    config_.faults.max_electrode_faults_per_chamber = 10;
  }

  SetupParts setup() override {
    SetupParts parts;
    CallTimer timer;
    cage_ = calibrate_cage();
    parts.cage_calibrate = timer.stop();
    timer = CallTimer();
    std::vector<control::TransferGoal> transfers;
    const Worlds worlds = build_episode(0, transfers);
    parts.world_build = timer.stop();
    return parts;
  }

  CallLatency call_latency() const override { return {"episode_ms", 90}; }

  Pass run(LayerFold* trace) override {
    Pass pass;
    Digest d;
    std::vector<double> makespans;
    std::uint64_t goals = 0, undelivered = 0, admissions = 0, attempts = 0;
    double held = 0.0, goal_ticks = 0.0;
    for (int i = 0; i < kFleetEpisodes; ++i) {
      std::vector<control::TransferGoal> transfers;
      Worlds worlds = build_episode(i, transfers);
      std::vector<control::ChamberSetup> chambers;
      for (auto& w : worlds) chambers.push_back(w->setup());
      std::optional<obs::Observer> observer;
      if (trace != nullptr) {
        obs::ObsConfig oc;
        oc.enabled = true;
        oc.timing = true;
        observer.emplace(oc);
      }
      control::Orchestrator orch(network_, config_);
      orch.set_observer(observer.has_value() ? &*observer : nullptr);
      const Rng stream = slot(seed_, kControlStream).fork(static_cast<std::uint64_t>(i));

      const CallTimer timer;
      const control::OrchestratorReport r = orch.run(chambers, transfers, stream, nullptr);
      pass.calls.push_back(timer.stop());
      pass.timed_s += pass.calls.back().ms * 1e-3;

      if (observer.has_value()) {
        const obs::TraceRecorder& rec = *observer->trace();
        if (rec.dropped() != 0) pass.failures.push_back("trace ring dropped spans");
        trace->add(rec.spans());
      }
      pass.ticks += static_cast<std::uint64_t>(r.ticks);
      pass.call_chamber_ticks.push_back(static_cast<std::uint64_t>(r.ticks) * kFleetChambers);
      pass.chamber_ticks += pass.call_chamber_ticks.back();
      pass.elided_chamber_ticks += r.elided_chamber_ticks;
      pass.faults_injected += r.injected_faults.size();
      makespans.push_back(r.ticks);

      // Every goal and every transfer lands in exactly one outcome list.
      std::size_t episode_goals = transfers.size();
      for (int c = 0; c < kFleetChambers; ++c) {
        const control::EpisodeReport& cr = r.chambers[static_cast<std::size_t>(c)];
        std::vector<int> ids;
        for (const control::CageGoal& g : worlds[static_cast<std::size_t>(c)]->goals)
          ids.push_back(g.cage_id);
        if (!lands_once(ids, cr.delivered_ids, cr.failed_ids))
          pass.failures.push_back("a chamber goal does not land in exactly one list");
        pass.frames_sensed += cr.frames_sensed;
        pass.replans += cr.replans;
        episode_goals += ids.size();
        undelivered += cr.failed_ids.size();
        for (const int id : cr.delivered_ids) held += held_ticks(cr.events, id, r.ticks);
        add_episode(d, cr);
      }
      std::vector<int> all(transfers.size());
      for (std::size_t k = 0; k < all.size(); ++k) all[k] = static_cast<int>(k);
      const std::vector<int> delivered(r.delivered_transfers.begin(),
                                       r.delivered_transfers.end());
      const std::vector<int> failed(r.failed_transfers.begin(), r.failed_transfers.end());
      if (!lands_once(all, delivered, failed))
        pass.failures.push_back("a transfer does not land in exactly one list");
      undelivered += r.failed_transfers.size();
      for (const std::size_t k : r.delivered_transfers)
        held += held_ticks(r.chambers[static_cast<std::size_t>(transfers[k].to_chamber)].events,
                           r.transfers[k].dest_cage_id, r.ticks);
      goals += episode_goals;
      goal_ticks += static_cast<double>(r.ticks) * static_cast<double>(episode_goals);
      admissions += r.admissions;
      attempts += r.admissions + r.denials;

      d.add_int(r.planned);
      d.add_int(r.ticks);
      d.add(r.transfer_requests);
      d.add(r.admissions);
      d.add(r.denials);
      d.add(r.reroutes);
      d.add(r.timeouts);
      for (const control::TransferOutcome& o : r.transfers) {
        d.add_int(static_cast<int>(o.phase));
        d.add_int(o.dest_cage_id);
        d.add_int(o.requests);
        d.add_int(o.denials);
        d.add_int(o.handoff_tick);
        d.add_int(o.port_id);
        d.add_int(o.reroutes);
        d.add_int(o.timed_out);
      }
      d.add(r.injected_faults.size());
      d.add_ints(r.failed_ports);
      d.add_ints(r.health);
      for (const auto& w : worlds) add_bodies(d, *w);
    }
    pass.digest = d.value();
    pass.simulated = {
        sim("makespan_ticks_p50", percentile(makespans, 50), "ticks"),
        sim("fail_frac", static_cast<double>(undelivered) / static_cast<double>(goals),
            "ratio"),
        sim("episodes", kFleetEpisodes, "count"),
        sim("physics.held_share", held / goal_ticks, "ratio"),
        sim("control.transfer_admit_ratio",
            attempts == 0 ? std::nullopt
                          : std::optional<double>(static_cast<double>(admissions) /
                                                  static_cast<double>(attempts)),
            "ratio"),
    };
    return pass;
  }

 private:
  Worlds build_episode(int index, std::vector<control::TransferGoal>& transfers) const {
    constexpr int s = kFleetSide;
    const Rng defects = slot(seed_, kDefects).fork(static_cast<std::uint64_t>(index));
    const Rng pattern = slot(seed_, kChipPattern).fork(static_cast<std::uint64_t>(index));
    Worlds worlds;
    for (int c = 0; c < kFleetChambers; ++c) {
      const auto cu = static_cast<std::uint64_t>(c);
      worlds.push_back(std::make_unique<World>(cfg_, *cage_, pattern.fork(cu)()));
      World& w = *worlds.back();
      Rng defect_rng = defects.fork(cu);
      w.defects = chip::sample_defects(w.dev.array(), 0.01, defect_rng);
      for (const GridCoord site : {GridCoord{s - 2, s / 2}, GridCoord{1, s / 2},
                                   GridCoord{s - 4, 4}, GridCoord{s - 4, 7},
                                   GridCoord{s - 5, s / 2 - 3}})
        w.clear_ring(site);
      w.goals.push_back({w.add_cell({3, 4}), {s - 4, 4}});
      w.goals.push_back({w.add_cell({3, s - 5}), {s - 4, 7}});
    }
    for (int c = 0; c + 1 < kFleetChambers; ++c) {
      World& w = *worlds[static_cast<std::size_t>(c)];
      transfers.push_back({c, w.add_cell({4, s / 2}), c + 1, {s - 5, s / 2 - 3}});
    }
    return worlds;
  }

  std::uint64_t seed_;
  chip::DeviceConfig cfg_;
  fluidic::ChamberNetwork network_;
  control::OrchestratorConfig config_;
  std::optional<field::HarmonicCage> cage_;
};

// ------------------------------------------------------------ rare cell ----

// The paper's 320 × 320 array at 20 µm pitch with 1% defects: twelve cells
// at scattered sites are each towed 60-120 pitches to a bank near the right
// edge. Episodes run until the pass holds enough ticks for a tick p99.
constexpr int kRareSide = 320;
constexpr int kRareCells = 12;
constexpr int kRareBankCol = kRareSide - 6;
constexpr std::uint64_t kRareMinTicks = 1100;

class RareCellWorkload final : public Workload {
 public:
  explicit RareCellWorkload(std::uint64_t seed) : seed_(seed), cfg_(chamber_config(kRareSide)) {
    control_.escape_rate = 1e-3;
  }

  SetupParts setup() override {
    SetupParts parts;
    CallTimer timer;
    cage_ = calibrate_cage();
    parts.cage_calibrate = timer.stop();
    timer = CallTimer();
    const std::unique_ptr<World> world = build_episode(0);
    parts.world_build = timer.stop();
    timer = CallTimer();
    control::ClosedLoopEngine engine(world->cages, world->engine, world->imager,
                                     world->defects, kSitePeriod, control_);
    const control::EpisodeRuntime runtime(engine, world->goals, world->bodies,
                                          world->cage_bodies, stream(0), nullptr);
    parts.initial_plan = timer.stop();
    return parts;
  }

  CallLatency call_latency() const override { return {"tick_ms", 99}; }

  Pass run(LayerFold* trace) override {
    Pass pass;
    Digest d;
    std::vector<double> makespans;
    std::uint64_t failed = 0, goals = 0;
    double held = 0.0, goal_ticks = 0.0;
    for (int i = 0; pass.ticks < kRareMinTicks; ++i) {
      const std::unique_ptr<World> world = build_episode(i);
      control::ClosedLoopEngine engine(world->cages, world->engine, world->imager,
                                       world->defects, kSitePeriod, control_);
      control::EpisodeRuntime runtime(engine, world->goals, world->bodies,
                                      world->cage_bodies, stream(i), nullptr);
      if (!runtime.planned()) {
        pass.failures.push_back("initial plan failed");
        break;
      }
      // The benchmark is the driver here: its own span around each call
      // into the chamber tick holds the call overhead, as the network
      // drivers' `chambers` span does.
      std::optional<obs::TraceRecorder> rec;
      if (trace != nullptr) {
        rec.emplace(static_cast<std::size_t>(runtime.budget()) * 8 + 16);
        runtime.set_trace(&*rec, 0);
      }
      obs::TraceRecorder* recorder = rec.has_value() ? &*rec : nullptr;
      for (int t = 1; t <= runtime.budget(); ++t) {
        const CallTimer timer;
        {
          const obs::PhaseSpan span(recorder, "chambers", -1, t);
          runtime.tick(t);
        }
        pass.calls.push_back(timer.stop());
        pass.call_chamber_ticks.push_back(1);
        pass.timed_s += pass.calls.back().ms * 1e-3;
        if (runtime.all_delivered()) break;
      }
      const control::EpisodeReport r = runtime.finish();
      if (recorder != nullptr) {
        if (recorder->dropped() != 0) pass.failures.push_back("trace ring dropped spans");
        trace->add(recorder->spans());
        runtime.set_trace(nullptr, -1);  // the recorder dies first
      }
      std::vector<int> ids;
      for (const control::CageGoal& g : world->goals) ids.push_back(g.cage_id);
      if (!lands_once(ids, r.delivered_ids, r.failed_ids))
        pass.failures.push_back("a goal does not land in exactly one list");
      pass.ticks += static_cast<std::uint64_t>(r.ticks);
      pass.chamber_ticks += static_cast<std::uint64_t>(r.ticks);
      pass.frames_sensed += r.frames_sensed;
      pass.replans += r.replans;
      makespans.push_back(r.ticks);
      goals += ids.size();
      failed += r.failed_ids.size();
      for (const int id : r.delivered_ids) held += held_ticks(r.events, id, r.ticks);
      goal_ticks += static_cast<double>(r.ticks) * static_cast<double>(ids.size());
      add_episode(d, r);
      add_bodies(d, *world);
    }
    pass.digest = d.value();
    pass.simulated = {
        sim("makespan_ticks_p50", percentile(makespans, 50), "ticks"),
        sim("fail_frac", static_cast<double>(failed) / static_cast<double>(goals), "ratio"),
        sim("episodes", static_cast<double>(makespans.size()), "count"),
        sim("physics.held_share", held / goal_ticks, "ratio"),
    };
    return pass;
  }

 private:
  Rng stream(int index) const {
    return slot(seed_, kControlStream).fork(static_cast<std::uint64_t>(index));
  }

  std::unique_ptr<World> build_episode(int index) const {
    const auto iu = static_cast<std::uint64_t>(index);
    auto world = std::make_unique<World>(cfg_, *cage_,
                                         slot(seed_, kChipPattern).fork(iu)());
    Rng defect_rng = slot(seed_, kDefects).fork(iu);
    world->defects = chip::sample_defects(world->dev.array(), 0.01, defect_rng);
    Rng sites = slot(seed_, kCellSites).fork(iu);
    std::vector<GridCoord> used;
    const auto clear_of = [&](GridCoord s) {
      for (const GridCoord u : used)
        if (std::max(std::abs(u.col - s.col), std::abs(u.row - s.row)) < 4) return false;
      return true;
    };
    for (int k = 0; k < kRareCells; ++k) {
      const GridCoord goal{kRareBankCol, 28 + 24 * k};
      used.push_back(goal);
      GridCoord start;
      do {  // a seeded site 60-120 pitches (Manhattan) from the goal
        const auto dist = static_cast<int>(sites.uniform_int(60, 120));
        const auto dr = static_cast<int>(sites.uniform_int(-20, 20));
        start = {goal.col - (dist - std::abs(dr)), goal.row + dr};
      } while (!clear_of(start));
      used.push_back(start);
      world->clear_ring(goal);
      world->goals.push_back({world->add_cell(start), goal});
    }
    return world;
  }

  std::uint64_t seed_;
  chip::DeviceConfig cfg_;
  control::ControlConfig control_;
  std::optional<field::HarmonicCage> cage_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stream_knee", "fleet_faulted", "rare_cell",
                                                 "field_tracked"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "stream_knee") return std::make_unique<StreamWorkload>(seed, false);
  if (name == "field_tracked") return std::make_unique<StreamWorkload>(seed, true);
  if (name == "fleet_faulted") return std::make_unique<FleetWorkload>(seed);
  if (name == "rare_cell") return std::make_unique<RareCellWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
