// Open-system streaming service: continuous Poisson arrivals into a
// two-chamber chip, admission control with watermarked inlet queues and
// per-chamber in-flight quotas, typed load shedding, and a bounded-memory
// soak (ISSUE 7 acceptance scenario; docs/robustness.md, "Overload
// behavior").
//
// Phases:
//   1. identity  — a sustainable-load run must be bitwise serial-vs-pooled
//                  identical: one `==` over the whole streaming report plus
//                  every final body position.
//   2. capacity  — saturate the inlets to measure the chip's sustained
//                  service rate C (delivered cells per tick, whole chip).
//   3. sweep     — offered loads of 0.5x / 1.0x / 2.0x C: cells/hour and
//                  p50/p99 time-in-chip vs offered load. The scripted 2x
//                  overload arm must shed a sane typed fraction (every shed
//                  is a `kAdmissionShed` audit event, accounted one-to-one)
//                  while residency stays inside the quota + watermark bound.
//   4. soak      — [soak_ticks] at 1.0x C under accumulating (capped)
//                  electrode and sensor fault rates, health monitoring and
//                  idle-chamber elision. The peak-residency gates are the
//                  same as the short arms': memory does not scale with the
//                  horizon.
//
// Gates (non-zero exit): serial == pooled; exact accounting closure per arm
// (offered = shed + admitted + still-queued; admitted = delivered + evicted
// + still-in-flight — zero livelock by construction); latency histogram
// holds exactly the delivered cells; peak residency bounded by
// quota x chambers (+ queue capacity x inlets for in-flight); every arm
// keeps delivering; overload sheds >= 10% and no less than the half-load
// arm.
//
// Usage: example_streaming_chamber_service [soak_ticks] [--obs=PREFIX] [--quick]
// (default 2000 — CI scale; pass 1000000 for the long-horizon soak: the
// run takes correspondingly longer but holds the same peak residency.)
//
// --obs=PREFIX attaches the telemetry layer to the identity + soak arms and
// writes PREFIX.metrics.jsonl (periodic counting-plane snapshots),
// PREFIX.trace.json (Chrome-trace phase spans) and PREFIX.summary.json
// (final summary) — validated by tools/check_obs.py in CI. --quick skips
// the capacity probe and load sweep (phases 2–3) for the obs smoke test.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "control/streaming.hpp"
#include "core/threadpool.hpp"
#include "fluidic/chamber_network.hpp"
#include "obs/obs.hpp"
#include "physics/medium.hpp"

namespace {

using namespace biochip;

constexpr int kGrid = 16;
constexpr std::size_t kChambers = 2;  // one inlet each
constexpr std::size_t kQuota = 3;
constexpr std::size_t kQueueCapacity = 4;

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

  physics::ParticleBody prototype(const cell::ParticleSpec& spec) const {
    return {{0.0, 0.0, 0.0}, spec.radius, spec.density,
            spec.dep_prefactor(medium, dev.config().drive_frequency), 0};
  }

  control::ChamberSetup setup() {
    return {&cages, &engine, &imager, &defects, &bodies, cage_bodies, goals};
  }
};

/// One streaming arm: fresh worlds, `rate` mean arrivals per inlet-tick.
/// The cell mix pairs viable lymphocytes with same-footprint polystyrene
/// beads (identical 5 um imaging signature, different physics).
control::StreamingReport run_arm(const chip::DeviceConfig& cfg,
                                 const field::HarmonicCage& cage, double rate,
                                 int ticks, std::uint64_t seed,
                                 core::ThreadPool* pool, bool with_faults,
                                 std::vector<Vec3>* positions = nullptr,
                                 obs::Observer* obs = nullptr) {
  fluidic::ChamberNetwork net;
  fluidic::Microchamber geo;
  geo.length = cfg.cols * cfg.pitch;
  geo.width = cfg.rows * cfg.pitch;
  geo.height = cfg.chamber_height;
  for (std::size_t c = 0; c < kChambers; ++c) net.add_chamber(geo, kGrid, kGrid);
  for (int c = 0; c < static_cast<int>(kChambers); ++c) net.add_inlet(c, {1, 8});

  std::vector<std::unique_ptr<World>> worlds;
  for (std::size_t c = 0; c < kChambers; ++c)
    worlds.push_back(std::make_unique<World>(cfg, cage));

  control::StreamingConfig scfg;
  scfg.ticks = ticks;
  scfg.arrival_rates.assign(kChambers, rate);
  scfg.type_weights = {3.0, 1.0};
  scfg.body_prototypes = {worlds[0]->prototype(cell::viable_lymphocyte()),
                          worlds[0]->prototype(cell::polystyrene_bead(5e-6))};
  scfg.admission.queue_capacity = static_cast<int>(kQueueCapacity);
  scfg.admission.chamber_quota = static_cast<int>(kQuota);
  scfg.admission.degraded_quota = 1;
  scfg.service_deadline = 120;
  scfg.goal_sites.assign(kChambers, {{12, 4}, {12, 8}, {12, 12}});
  scfg.control.escape_rate = 1e-3;
  scfg.control.health.enabled = true;
  scfg.elide_idle_chambers = true;
  if (with_faults) {
    // Accumulating runtime degradation, held at a bounded density. The cap
    // keeps the worst-case quarantined-region growth (3 faults x a 3x3 ring)
    // near ~10% of the array — inside the health ladder's *degraded* rung
    // (throttled admissions) but below permanent quarantine, so a
    // million-tick soak degrades gracefully instead of shutting its inlets.
    scfg.faults.rates.electrode_silent_dead = 4e-4;
    scfg.faults.rates.electrode_dead = 2e-4;
    scfg.faults.rates.sensor_pixel_burst = 5e-4;
    scfg.faults.rates.sensor_row_dropout = 2e-4;
    scfg.faults.max_electrode_faults_per_chamber = 3;
    // Watchdog tuning for an open-ended horizon. Strikes expire (a dead
    // electrode re-strikes within any window; stray escapes and transient
    // sensor bursts must not permanently condemn sites on a million-tick
    // run), site quarantines serve a probation term instead of lasting
    // forever (false positives recover; a genuinely dead electrode re-earns
    // its quarantine from fresh strikes), and the quarantine rung sits well
    // above the ~10% of the array the capped dead electrodes legitimately
    // cost — so the designed steady state is *degraded*: throttled but
    // serving, with bounded blocked-fraction drift instead of a ratchet.
    scfg.control.health.strike_window = 600;
    scfg.control.health.quarantine_probation = 4000;
    scfg.control.health.suspect_after_losses = 3;
    scfg.control.health.quarantined_blocked_fraction = 0.30;
  }

  control::StreamingService service(net, scfg);
  std::vector<control::ChamberSetup> chambers;
  for (auto& w : worlds) chambers.push_back(w->setup());
  service.set_observer(obs);
  Rng rng(seed);
  const control::StreamingReport report = service.run(chambers, rng.split(), pool);
  if (positions != nullptr)
    for (const auto& w : worlds)
      for (const physics::ParticleBody& b : w->bodies)
        positions->push_back(b.position);
  return report;
}

bool gate(bool ok, const char* msg) {
  if (!ok) std::fprintf(stderr, "FAIL: %s\n", msg);
  return ok;
}

double shed_fraction(const control::StreamingReport& r) {
  return r.admission.offered == 0
             ? 0.0
             : static_cast<double>(r.admission.shed) /
                   static_cast<double>(r.admission.offered);
}

void print_arm(const char* name, double rate, const control::StreamingReport& r) {
  std::printf(
      "%-9s rate %.4f/inlet  ticks %7d  offered %5llu  shed %5.1f%%  "
      "delivered %5llu  evicted %3llu  cells/hour %7.1f  p50 %3d  p99 %3d "
      "ticks  peak in-flight %zu  peak bodies %zu\n",
      name, rate, r.ticks,
      static_cast<unsigned long long>(r.admission.offered),
      100.0 * shed_fraction(r), static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.evicted), r.cells_per_hour(0.4),
      r.latency_quantile(0.5), r.latency_quantile(0.99), r.peak_in_flight,
      r.peak_resident_bodies);
}

/// The gates every arm must pass, short run or million-tick soak alike.
bool check_arm(const char* name, const control::StreamingReport& r) {
  if (std::getenv("STREAM_TRACE") != nullptr)
    for (std::size_t c = 0; c < r.event_counts.size(); ++c)
      for (std::size_t k = 0; k < r.event_counts[c].size(); ++k)
        if (r.event_counts[c][k] != 0)
          std::fprintf(stderr, "%s chamber %zu %-20s %llu\n", name, c,
                       control::to_string(static_cast<control::EventKind>(k)),
                       static_cast<unsigned long long>(r.event_counts[c][k]));
  bool ok = true;
  // Exact conservation: every offered cell is shed, admitted, or still
  // queued; every admitted cell is delivered, evicted, or still in flight.
  ok &= gate(r.admission.offered ==
                 r.admission.shed + r.admission.admitted + r.queued_end,
             "offered-side accounting does not close");
  ok &= gate(r.admission.admitted == r.delivered + r.evicted + r.in_flight_end,
             "admitted-side accounting does not close (livelock?)");
  std::uint64_t hist_total = 0;
  for (std::uint64_t v : r.latency_hist) hist_total += v;
  ok &= gate(hist_total == r.delivered,
             "latency histogram does not hold exactly the delivered cells");
  // Typed load shedding: overload is audit events, never a silent drop.
  ok &= gate(control::count_events(r, control::EventKind::kAdmissionShed) ==
                 r.admission.shed,
             "shed count != kAdmissionShed events");
  // Bounded memory: residency never exceeds quota + watermarked queues.
  ok &= gate(r.peak_in_flight <= kQuota * kChambers + kQueueCapacity * kChambers,
             "peak in-flight exceeds quota + queue watermark");
  ok &= gate(r.peak_resident_bodies <= kQuota * kChambers,
             "peak resident bodies exceed the in-flight quota");
  ok &= gate(r.peak_cage_slots <= kQuota * kChambers,
             "peak cage slots exceed the in-flight quota");
  ok &= gate(r.in_flight_end <= kQuota * kChambers,
             "end-of-run in-flight exceeds the quota");
  // Zero livelock: the service kept delivering.
  ok &= gate(r.delivered > 0, "arm delivered nothing");
  if (!ok) std::fprintf(stderr, "FAIL: arm '%s' gates\n", name);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  long long soak_ticks = 2000;
  std::string obs_prefix;
  bool quick = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--obs=", 0) == 0) obs_prefix = arg.substr(6);
    else if (arg == "--quick") quick = true;
    else soak_ticks = std::atoll(arg.c_str());
  }
  if (soak_ticks <= 0 || soak_ticks > 1000000000LL) {
    std::fprintf(stderr,
                 "usage: %s [soak_ticks in 1..1e9] [--obs=PREFIX] [--quick]\n",
                 argv[0]);
    return 2;
  }

  // Telemetry (off unless --obs): attached to the soak arm below. The
  // snapshot period keeps JSONL output bounded on any horizon.
  std::optional<obs::Observer> observer;
  if (!obs_prefix.empty()) {
    obs::ObsConfig ocfg;
    ocfg.enabled = true;
    ocfg.snapshot_period = 500;
    ocfg.metrics_path = obs_prefix + ".metrics.jsonl";
    ocfg.trace_path = obs_prefix + ".trace.json";
    ocfg.summary_path = obs_prefix + ".summary.json";
    ocfg.label = "streaming_chamber_service";
    observer.emplace(std::move(ocfg));
  }

  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = kGrid;
  cfg.rows = kGrid;
  const field::HarmonicCage cage = chip::BiochipDevice(cfg).calibrate_cage(5, 6);

  bool ok = true;
  core::ThreadPool* const pool = &core::ThreadPool::global();

  // ---- 1. serial vs pooled bitwise identity at a sustainable load --------
  std::vector<Vec3> serial_pos, pooled_pos;
  const control::StreamingReport serial =
      run_arm(cfg, cage, 0.12, 400, 90210, nullptr, true, &serial_pos);
  const control::StreamingReport pooled =
      run_arm(cfg, cage, 0.12, 400, 90210, pool, true, &pooled_pos);
  ok &= gate(serial == pooled && serial_pos == pooled_pos,
             "serial vs pooled streaming run mismatch");
  ok &= check_arm("identity", serial);
  std::printf("identity  serial == pooled over %d ticks (%llu offered, %llu "
              "delivered, %llu faults)\n",
              serial.ticks,
              static_cast<unsigned long long>(serial.admission.offered),
              static_cast<unsigned long long>(serial.delivered),
              static_cast<unsigned long long>(serial.injected_faults));

  // ---- 2. capacity probe: saturate the inlets ----------------------------
  // --quick (the CI obs smoke) skips the probe + sweep and soaks at the
  // identity arm's sustainable rate instead.
  double capacity = 0.12 * static_cast<double>(kChambers);
  if (!quick) {
    const int sweep_ticks = 2000;
    const control::StreamingReport probe =
        run_arm(cfg, cage, 1.0, sweep_ticks, 1001, pool, false);
    ok &= check_arm("probe", probe);
    capacity =  // sustained service rate, cells/tick, whole chip
        static_cast<double>(probe.delivered) / static_cast<double>(probe.ticks);
    ok &= gate(capacity > 0.0, "capacity probe delivered nothing");
    print_arm("probe", 1.0, probe);
    if (capacity <= 0.0) return 1;

    // ---- 3. offered-load sweep: 0.5x / 1.0x / scripted 2.0x capacity -----
    struct SweepArm {
      const char* name;
      double factor;
      std::uint64_t seed;
    };
    const SweepArm arms[] = {{"half", 0.5, 3001}, {"match", 1.0, 3002},
                             {"overload", 2.0, 3003}};
    double half_shed = 0.0, overload_shed = 0.0;
    std::uint64_t overload_sheds = 0, overload_deferrals = 0;
    for (const SweepArm& arm : arms) {
      const double rate = arm.factor * capacity / static_cast<double>(kChambers);
      const control::StreamingReport r =
          run_arm(cfg, cage, rate, sweep_ticks, arm.seed, pool, false);
      print_arm(arm.name, rate, r);
      ok &= check_arm(arm.name, r);
      if (arm.factor == 0.5) half_shed = shed_fraction(r);
      if (arm.factor == 2.0) {
        overload_shed = shed_fraction(r);
        overload_sheds = r.admission.shed;
        overload_deferrals = r.admission.deferrals;
      }
    }
    // Shed-fraction sanity at 2x overload: the chip sheds a real fraction of
    // the offered stream — typed, bounded, and more than at half load.
    ok &= gate(overload_sheds > 0 && overload_deferrals > 0,
               "2x overload produced no typed shed/deferral events");
    ok &= gate(overload_shed >= 0.10 && overload_shed <= 0.95,
               "2x overload shed fraction outside [0.10, 0.95]");
    ok &= gate(overload_shed >= half_shed,
               "shed fraction not monotone in offered load");
  }

  // ---- 4. long-horizon soak at 1.0x capacity with accumulating faults ----
  const double soak_rate = capacity / static_cast<double>(kChambers);
  const control::StreamingReport soak = run_arm(
      cfg, cage, soak_rate, static_cast<int>(soak_ticks), 777, pool, true,
      nullptr, observer.has_value() ? &*observer : nullptr);
  print_arm("soak", soak_rate, soak);
  std::printf("soak      final health:");
  for (std::size_t c = 0; c < soak.health.size(); ++c)
    std::printf(" chamber %zu %s", c, control::to_string(soak.health[c]));
  std::printf("  injected faults %llu\n",
              static_cast<unsigned long long>(soak.injected_faults));
  ok &= check_arm("soak", soak);  // same residency bounds as the short arms

  // ---- telemetry export + registry-vs-report closure -----------------------
  if (observer.has_value()) {
    observer->finalize(soak.ticks);
    const obs::MetricsRegistry& reg = observer->metrics();
    const obs::Metric* delivered = reg.find("service.delivered");
    const obs::Metric* offered = reg.find("admission.offered");
    const obs::Metric* shed = reg.find("admission.shed");
    ok &= gate(delivered != nullptr && delivered->value == soak.delivered,
               "obs delivered counter != streaming report");
    ok &= gate(offered != nullptr && offered->value == soak.admission.offered,
               "obs offered counter != streaming report");
    ok &= gate(shed != nullptr && shed->value == soak.admission.shed,
               "obs shed counter != streaming report");
    const obs::Metric* hist = reg.find("service.latency_ticks");
    std::uint64_t hist_total = 0;
    if (hist != nullptr)
      for (std::uint64_t b : hist->buckets) hist_total += b;
    ok &= gate(hist != nullptr && hist_total == soak.delivered,
               "obs latency histogram does not hold the delivered cells");
    std::printf("obs       wrote %s.{metrics.jsonl,trace.json,summary.json} "
                "(%zu metrics)\n",
                obs_prefix.c_str(), reg.size());
  }

  return ok ? 0 : 1;
}
