// Tests for the telemetry layer: registry semantics, histogram bucketing,
// counting-plane snapshot bitwise identity serial vs pooled under a hostile
// fault schedule, registry-vs-report accounting closure, solver accounting
// reconciliation, trace-ring bounds and pool execution-plane stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/error.hpp"
#include "control/streaming.hpp"
#include "core/threadpool.hpp"
#include "field/solver.hpp"
#include "fluidic/chamber_network.hpp"
#include "obs/export.hpp"
#include "obs/fold.hpp"
#include "obs/obs.hpp"
#include "physics/medium.hpp"

namespace biochip::obs {
namespace {

// ---------------------------------------------------------- registry ----

TEST(MetricsRegistry, FindOrCreateReturnsStableIdsAndChecksKinds) {
  MetricsRegistry reg;
  const MetricId a = reg.counter("service.delivered");
  const MetricId b = reg.counter("service.delivered");
  EXPECT_EQ(a.index, b.index);
  // Same name, different index = a different metric.
  const MetricId c0 = reg.counter("event.cell_lost", 0);
  const MetricId c1 = reg.counter("event.cell_lost", 1);
  EXPECT_NE(c0.index, c1.index);
  // Re-registering under another kind is a contract violation.
  EXPECT_THROW(reg.gauge("service.delivered"), PreconditionError);

  reg.inc(a);
  reg.inc(a, 4);
  EXPECT_EQ(reg.at(a).value, 5u);
  reg.set_counter(a, 2);
  EXPECT_EQ(reg.at(a).value, 2u);

  const MetricId g = reg.gauge("queue.depth", 1);
  reg.set(g, -3);
  EXPECT_EQ(reg.at(g).ivalue, -3);

  const Metric* found = reg.find("event.cell_lost", 1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->index, 1);
  EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(MetricsRegistry, HistogramBucketsAreInclusiveUpperBoundsPlusOverflow) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("latency", {1, 2, 4, 8});
  // Inclusive upper bounds: value <= bound lands in that bucket.
  reg.observe(h, 0);   // <= 1
  reg.observe(h, 1);   // <= 1
  reg.observe(h, 2);   // <= 2
  reg.observe(h, 3);   // <= 4
  reg.observe(h, 4);   // <= 4
  reg.observe(h, 8);   // <= 8
  reg.observe(h, 9);   // overflow
  reg.observe(h, 100); // overflow
  const Metric& m = reg.at(h);
  ASSERT_EQ(m.buckets.size(), 5u);
  EXPECT_EQ(m.buckets[0], 2u);
  EXPECT_EQ(m.buckets[1], 1u);
  EXPECT_EQ(m.buckets[2], 2u);
  EXPECT_EQ(m.buckets[3], 1u);
  EXPECT_EQ(m.buckets[4], 2u);
}

TEST(MetricsRegistry, SnapshotComparesAndFiltersExecutionPlane) {
  MetricsRegistry reg;
  reg.inc(reg.counter("a"));
  reg.set(reg.gauge("pool.max_parts", -1, Plane::kExecution), 8);

  const MetricsSnapshot full = reg.snapshot(7);
  EXPECT_EQ(full.tick, 7);
  EXPECT_EQ(full.metrics.size(), 2u);
  const MetricsSnapshot counting = reg.snapshot(7, /*counting_only=*/true);
  ASSERT_EQ(counting.metrics.size(), 1u);
  EXPECT_EQ(counting.metrics[0].name, "a");

  MetricsRegistry other;
  other.inc(other.counter("a"));
  other.set(other.gauge("pool.max_parts", -1, Plane::kExecution), 999);
  // Execution plane differs; the counting plane is identical.
  EXPECT_FALSE(reg.snapshot(7) == other.snapshot(7));
  EXPECT_TRUE(reg.snapshot(7, true) == other.snapshot(7, true));
}

// ---------------------------------------------------------- exporters ----

TEST(Exporters, SnapshotJsonlAndSummaryAreWellFormed) {
  MetricsRegistry reg;
  reg.inc(reg.counter("service.delivered"), 3);
  const MetricId h = reg.histogram("lat", {1, 2});
  reg.observe(h, 2);

  std::ostringstream jsonl;
  write_snapshot_jsonl(jsonl, reg.snapshot(42));
  const std::string line = jsonl.str();
  EXPECT_NE(line.find("\"schema\":\"biochip.metrics.v1\""), std::string::npos);
  EXPECT_NE(line.find("\"tick\":42"), std::string::npos);
  EXPECT_NE(line.find("\"service.delivered\""), std::string::npos);
  EXPECT_NE(line.find("\"bounds\":[1,2]"), std::string::npos);
  EXPECT_NE(line.find("\"buckets\":[0,1,0]"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');

  std::ostringstream summary;
  write_summary_json(summary, reg.snapshot(42), "unit_test");
  EXPECT_NE(summary.str().find("\"label\": \"unit_test\""), std::string::npos);
  EXPECT_NE(summary.str().find("\"tick\": 42"), std::string::npos);
}

// -------------------------------------------------------- timing plane ----

TEST(TraceRecorder, RingBoundsMemoryAndCountsDrops) {
  TraceRecorder rec(4);
  for (int n = 0; n < 10; ++n)
    rec.record("phase", 100 * n, 100 * n + 50, /*lane=*/-1, /*tick=*/n);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const std::vector<TraceSpan> spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Chronological, the newest 4.
  EXPECT_EQ(spans.front().tick, 6);
  EXPECT_EQ(spans.back().tick, 9);

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceRecorder, NullRecorderPhasesAreSafeNoOps) {
  // The disabled path: no recorder, no clock read, no crash.
  {
    PhaseTicker phase(nullptr, -1, 1);
    phase.begin("a");
    phase.begin("b");
    phase.end();
  }
  {
    PhaseSpan span(nullptr, "c", -1, 1);
  }
  SUCCEED();
}

// --------------------------------------------------- solver accounting ----

field::DirichletBc plate_bc(const Grid3& g, double v_bottom, double v_top) {
  field::DirichletBc bc = field::DirichletBc::all_free(g);
  for (std::size_t j = 0; j < g.ny(); ++j)
    for (std::size_t i = 0; i < g.nx(); ++i) {
      bc.fixed[g.index(i, j, 0)] = 1;
      bc.value[g.index(i, j, 0)] = v_bottom;
      bc.fixed[g.index(i, j, g.nz() - 1)] = 1;
      bc.value[g.index(i, j, g.nz() - 1)] = v_top;
    }
  return bc;
}

// Workspace accounting is the exact sum of the per-call SolveStats — the
// same counters the benches accumulate — and fold_solver mirrors it into
// the registry verbatim.
TEST(SolverAccounting, WorkspaceTotalsAreExactSumsOfReturnedStats) {
  Grid3 phi(17, 17, 17, 1e-6);
  const field::DirichletBc bc = plate_bc(phi, 0.0, 3.3);
  field::MultigridWorkspace ws;

  field::SolveAccounting manual;
  for (int n = 0; n < 3; ++n) {
    Grid3 g(17, 17, 17, 1e-6);
    const field::SolveStats stats = field::solve_laplace(g, bc, {}, &ws);
    EXPECT_TRUE(stats.converged);
    manual.account(stats);
  }

  const field::SolveAccounting& acc = ws.accounting();
  EXPECT_EQ(acc.solves, 3u);
  EXPECT_EQ(acc.solves, manual.solves);
  EXPECT_EQ(acc.cycles, manual.cycles);
  EXPECT_EQ(acc.total_sweeps, manual.total_sweeps);
  EXPECT_EQ(acc.fine_equiv_sweeps, manual.fine_equiv_sweeps);
  EXPECT_EQ(acc.last_residual, manual.last_residual);
  EXPECT_GT(acc.cycles, 0u);
  EXPECT_GT(acc.total_sweeps, 0u);

  MetricsRegistry reg;
  fold_solver(reg, acc);
  EXPECT_EQ(reg.find("solver.solves")->value, acc.solves);
  EXPECT_EQ(reg.find("solver.cycles")->value, acc.cycles);
  EXPECT_EQ(reg.find("solver.sweeps")->value, acc.total_sweeps);
  EXPECT_EQ(reg.find("solver.fe_sweeps")->rvalue, acc.fine_equiv_sweeps);
  EXPECT_EQ(reg.find("solver.final_residual")->rvalue, acc.last_residual);
}

// ------------------------------------------------ pool execution plane ----

TEST(PoolStats, ParallelForTrafficIsCountedAndDeltaed) {
  core::ThreadPool pool(4);
  const core::PoolStats before = pool.stats();
  std::vector<int> hits(64, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t n = b; n < e; ++n) hits[n] = 1;
  });
  const core::PoolStats delta = pool.stats().since(before);
  EXPECT_EQ(delta.jobs, 1u);
  EXPECT_GE(delta.chunks, 1u);
  EXPECT_LE(delta.chunks, 4u);
  EXPECT_GE(delta.max_parts, 1u);

  MetricsRegistry reg;
  fold_pool(reg, delta);
  const Metric* jobs = reg.find("pool.jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->plane, Plane::kExecution);
  EXPECT_EQ(jobs->value, delta.jobs);
}

// ------------------------------------- streaming snapshot identity ----

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

class ObsStreamingTest : public ::testing::Test {
 protected:
  ObsStreamingTest() {
    cfg_ = chip::paper_config_on_node(chip::paper_node());
    cfg_.cols = 16;
    cfg_.rows = 16;
    cage_ = chip::BiochipDevice(cfg_).calibrate_cage(5, 6);
  }

  /// One observed streaming run under a hostile schedule: scripted electrode
  /// + sensor faults, random escapes, health monitoring, elision — the
  /// nastiest deterministic load the identity suites exercise.
  std::pair<MetricsSnapshot, control::StreamingReport> run_observed(
      std::size_t max_parts, Observer& observer) {
    fluidic::ChamberNetwork network;
    fluidic::Microchamber geo;
    geo.length = cfg_.cols * cfg_.pitch;
    geo.width = cfg_.rows * cfg_.pitch;
    geo.height = cfg_.chamber_height;
    for (int c = 0; c < 2; ++c) network.add_chamber(geo, 16, 16);
    for (int c = 0; c < 2; ++c) network.add_inlet(c, {1, 8});

    auto w0 = std::make_unique<World>(cfg_, cage_);
    auto w1 = std::make_unique<World>(cfg_, cage_);

    control::StreamingConfig cfg;
    cfg.ticks = 260;
    cfg.arrival_rates = {0.12, 0.12};
    cfg.type_weights = {3.0, 1.0};
    cfg.body_prototypes = {w0->prototype(cell::viable_lymphocyte()),
                           w0->prototype(cell::polystyrene_bead(5e-6))};
    cfg.admission.queue_capacity = 4;
    cfg.admission.chamber_quota = 3;
    cfg.admission.degraded_quota = 1;
    cfg.service_deadline = 120;
    cfg.goal_sites = {{{12, 4}, {12, 8}, {12, 12}}, {{12, 4}, {12, 8}, {12, 12}}};
    cfg.control.escape_rate = 0.002;
    cfg.control.health.enabled = true;
    cfg.elide_idle_chambers = true;
    cfg.faults.scripted.push_back(
        {40, chip::FaultKind::kElectrodeDead, 0, {7, 3}, -1, 0});
    cfg.faults.scripted.push_back(
        {60, chip::FaultKind::kSensorRowDropout, 1, {0, 8}, -1, 5});
    cfg.faults.scripted.push_back(
        {90, chip::FaultKind::kSensorPixelBurst, 0, {6, 6}, -1, 3});

    control::StreamingService service(network, cfg);
    service.set_observer(&observer);
    std::vector<control::ChamberSetup> chambers{w0->setup(), w1->setup()};
    core::ThreadPool pool(4);
    const control::StreamingReport report =
        service.run(chambers, Rng(90210), max_parts == 1 ? nullptr : &pool,
                    max_parts);
    return {observer.metrics().snapshot(report.ticks, /*counting_only=*/true),
            report};
  }

  chip::DeviceConfig cfg_;
  field::HarmonicCage cage_;
};

// The counting-plane snapshot — every counter, gauge and histogram bucket —
// is bitwise identical between the serial reference and the pooled fan-out
// under the hostile fault schedule. One `==` over the whole snapshot.
TEST_F(ObsStreamingTest, CountingSnapshotBitwiseIdenticalSerialVsPooled) {
  ObsConfig ocfg;
  ocfg.enabled = true;
  ocfg.timing = false;  // counting plane only; wall clock stays untouched
  Observer serial_obs(ocfg), pooled_obs(ocfg);

  const auto [serial_snap, serial_report] = run_observed(1, serial_obs);
  const auto [pooled_snap, pooled_report] = run_observed(0, pooled_obs);

  EXPECT_TRUE(serial_report == pooled_report);
  EXPECT_TRUE(serial_snap == pooled_snap);
  EXPECT_GT(serial_snap.metrics.size(), 20u);
  // The hostile schedule actually exercised the system.
  EXPECT_GT(serial_report.admission.offered, 10u);
  EXPECT_GT(serial_report.delivered, 0u);
  EXPECT_EQ(serial_report.injected_faults, 3u);
  // Both period-advance paths ran, and their per-chamber gauges are in the
  // compared snapshot: the path choice and its count are serial ≡ pooled.
  EXPECT_GT(serial_report.exact_advances, 0u);
  EXPECT_GT(serial_report.em_advances, 0u);
  for (const char* name : {"service.exact_advances", "service.em_advances"})
    for (int c = 0; c < 2; ++c) {
      const auto same = [&](const Metric& m) { return m.name == name && m.index == c; };
      EXPECT_EQ(std::count_if(serial_snap.metrics.begin(), serial_snap.metrics.end(), same), 1)
          << name << " chamber " << c;
    }
}

// Accounting closure: the registry mirrors the streaming report exactly —
// counters, per-kind event totals, and the latency histogram holds exactly
// the delivered cells (same invariant the service gates on its own books).
TEST_F(ObsStreamingTest, RegistryReconcilesWithStreamingReport) {
  ObsConfig ocfg;
  ocfg.enabled = true;
  ocfg.timing = false;
  Observer obs(ocfg);
  const auto [snap, report] = run_observed(0, obs);
  (void)snap;
  const MetricsRegistry& reg = obs.metrics();

  EXPECT_EQ(reg.find("admission.offered")->value, report.admission.offered);
  EXPECT_EQ(reg.find("admission.shed")->value, report.admission.shed);
  EXPECT_EQ(reg.find("admission.admitted")->value, report.admission.admitted);
  EXPECT_EQ(reg.find("service.delivered")->value, report.delivered);
  EXPECT_EQ(reg.find("service.evicted")->value, report.evicted);
  EXPECT_EQ(reg.find("service.faults_injected")->value, report.injected_faults);
  EXPECT_EQ(static_cast<std::size_t>(
                reg.find("service.peak_in_flight")->ivalue),
            report.peak_in_flight);
  EXPECT_EQ(static_cast<std::size_t>(
                reg.find("service.frames_sensed")->ivalue),
            report.frames_sensed);

  // Histogram total == delivered (the report pins the same closure on its
  // own fixed-bin histogram; the registry's power-of-two bins must agree).
  const Metric* hist = reg.find("service.latency_ticks");
  ASSERT_NE(hist, nullptr);
  std::uint64_t hist_total = 0;
  for (std::uint64_t b : hist->buckets) hist_total += b;
  EXPECT_EQ(hist_total, report.delivered);

  // Per-kind event counters mirror the report's drained totals, chamber by
  // chamber — including kinds that never fired (pre-registered at zero).
  for (std::size_t c = 0; c < report.event_counts.size(); ++c)
    for (std::size_t k = 0; k < control::kEventKindCount; ++k) {
      const Metric* m = reg.find(
          std::string("event.") +
              control::to_string(static_cast<control::EventKind>(k)),
          static_cast<int>(c));
      ASSERT_NE(m, nullptr) << "kind " << k << " chamber " << c;
      EXPECT_EQ(m->value, report.event_counts[c][k])
          << "kind " << k << " chamber " << c;
    }

  // Shed closure across planes: audit events == admission counter.
  std::uint64_t shed_events = 0;
  for (std::size_t c = 0; c < report.event_counts.size(); ++c)
    shed_events +=
        reg.find(std::string("event.") +
                     control::to_string(control::EventKind::kAdmissionShed),
                 static_cast<int>(c))
            ->value;
  EXPECT_EQ(shed_events, report.admission.shed);

  // Period-advance paths: the per-chamber gauges sum to the report's totals,
  // and every live body's advance took exactly one path.
  std::int64_t exact = 0;
  std::int64_t em = 0;
  for (int c = 0; c < 2; ++c) {
    exact += reg.find("service.exact_advances", c)->ivalue;
    em += reg.find("service.em_advances", c)->ivalue;
  }
  EXPECT_EQ(static_cast<std::size_t>(exact), report.exact_advances);
  EXPECT_EQ(static_cast<std::size_t>(em), report.em_advances);
  EXPECT_GT(report.exact_advances, report.em_advances);
}

// A disabled observer must not perturb the run: report identical to a run
// with no observer attached at all.
TEST_F(ObsStreamingTest, DisabledObserverIsInert) {
  Observer disabled;  // default ObsConfig: enabled = false
  ASSERT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.trace(), nullptr);

  ObsConfig on;
  on.enabled = true;
  on.timing = false;
  Observer enabled(on);

  const auto [snap_on, report_on] = run_observed(0, enabled);
  (void)snap_on;
  const auto [snap_off, report_off] = run_observed(0, disabled);
  EXPECT_TRUE(report_on == report_off);
  EXPECT_EQ(snap_off.metrics.size(), 0u);
}

}  // namespace
}  // namespace biochip::obs
