// Experiment P-1 — particle-dynamics engine: the 10-100 µm/s manipulation
// band (paper §2) measured physics-in-the-loop (retention vs tow speed),
// plus engine throughput for population-scale simulation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/simulation.hpp"
#include "physics/dep.hpp"
#include "physics/levitation.hpp"
#include "physics/medium.hpp"

using namespace biochip;
using namespace biochip::units;

namespace {

struct Rig {
  chip::BiochipDevice device;
  physics::Medium medium;
  field::HarmonicCage cage;
  core::ManipulationEngine engine;

  Rig()
      : device([] {
          chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
          cfg.cols = 64;
          cfg.rows = 64;
          return cfg;
        }()),
        medium(physics::dep_buffer()),
        cage(device.calibrate_cage(5, 6)),
        engine(device, medium, cage, 30.0_um) {}

  physics::ParticleBody cell_at(GridCoord site, const cell::ParticleSpec& spec) {
    return {engine.field_model().trap_center(site), spec.radius, spec.density,
            spec.dep_prefactor(medium, device.config().drive_frequency), 0};
  }
};

void print_retention_vs_speed() {
  print_banner(std::cout,
               "P-1: cage tow retention vs speed (paper band: 10-100 um/s)");
  Rig rig;
  const cell::ParticleSpec spec = cell::viable_lymphocyte();
  const double theory_vmax = physics::max_tow_speed(
      rig.cage, spec.dep_prefactor(rig.medium, rig.device.config().drive_frequency),
      30.0_um, rig.medium, spec.radius);

  Table t({"tow speed [um/s]", "retained (8 trials)", "max lag [um]"});
  for (double speed : {10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0}) {
    int retained = 0;
    double worst_lag = 0.0;
    for (int trial = 0; trial < 8; ++trial) {
      physics::ParticleBody cell = rig.cell_at({10, 10}, spec);
      std::vector<GridCoord> path;
      for (int c = 10; c <= 30; ++c) path.push_back({c, 10});
      Rng rng(static_cast<std::uint64_t>(trial) + 1);
      const core::TowReport rep =
          rig.engine.tow(cell, path, 20.0_um / (speed * 1e-6), rng);
      if (rep.retained) ++retained;
      worst_lag = std::max(worst_lag, rep.max_lag);
    }
    t.row()
        .cell(speed, 0)
        .cell(std::to_string(retained) + "/8")
        .cell(worst_lag * 1e6, 1);
  }
  t.print(std::cout);
  std::cout << "\nTheory bound (holding force / drag): "
            << si_format(theory_vmax, "m/s")
            << ". Shape check: retention holds through the paper's 10-100 um/s\n"
               "band and collapses near the theoretical limit.\n";
}

void print_cell_type_speeds() {
  print_banner(std::cout, "P-1: max tow speed by particle type (calibrated cage)");
  Rig rig;
  Table t({"particle", "radius [um]", "ReK @100kHz", "v_max [um/s]"});
  for (const cell::ParticleSpec& spec : cell::standard_library()) {
    const double rek = spec.re_k(rig.medium, 100.0_kHz);
    const double pref = spec.dep_prefactor(rig.medium, 100.0_kHz);
    const double vmax =
        pref < 0.0
            ? physics::max_tow_speed(rig.cage, pref, 30.0_um, rig.medium, spec.radius)
            : 0.0;
    t.row()
        .cell(spec.name)
        .cell(spec.radius * 1e6, 1)
        .cell(rek, 3)
        .cell(vmax * 1e6, 1);
  }
  t.print(std::cout);
  std::cout << "\nShape check: nDEP particles tow at tens-to-hundreds of um/s\n"
               "(faster for large cells: force ~R^3 beats drag ~R); pDEP particles\n"
               "(v_max = 0 rows) cannot be caged at this frequency.\n";
}

void bm_integrator_throughput(benchmark::State& state) {
  Rig rig;
  const cell::ParticleSpec spec = cell::viable_lymphocyte();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<physics::ParticleBody> bodies;
  std::vector<GridCoord> sites;
  for (std::size_t i = 0; i < n; ++i) {
    const GridCoord site{static_cast<int>(4 + 4 * (i % 14)),
                         static_cast<int>(4 + 4 * (i / 14))};
    bodies.push_back(rig.cell_at(site, spec));
    sites.push_back(site);
  }
  rig.engine.field_model().set_sites(sites);
  physics::OverdampedIntegrator& integ = rig.engine.integrator();
  Rng rng(3);
  const auto& model = rig.engine.field_model();
  for (auto _ : state) {
    for (physics::ParticleBody& body : bodies)
      integ.advance(body, [&](Vec3 p) { return model.grad_erms2(p); }, rng, 10);
    benchmark::DoNotOptimize(bodies.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10 *
                          static_cast<std::int64_t>(n));
}

// Per-substep cost vs live cage count at a FIXED particle population: with
// the O(1) spatial-hash trap lookup the cost must stay flat as the active
// array grows 16 -> 1024 cages (the paper's whole-array regime). The 16
// tracked traps (and the particles in them) are identical for every arg so
// only the background occupancy varies; the seed's linear scan degraded
// with every background cage.
void bm_grad_cage_scaling(benchmark::State& state) {
  Rig rig;
  const cell::ParticleSpec spec = cell::viable_lymphocyte();
  const auto ncages = static_cast<std::size_t>(state.range(0));
  std::vector<GridCoord> sites;
  for (std::size_t i = 0; i < 16; ++i)
    sites.push_back({static_cast<int>(2 * (i % 4)), static_cast<int>(2 * (i / 4))});
  for (std::size_t i = 0; sites.size() < ncages; ++i) {
    const GridCoord site{static_cast<int>(2 * (i % 32)), static_cast<int>(2 * (i / 32))};
    if (site.col >= 8 || site.row >= 8) sites.push_back(site);
  }
  rig.engine.field_model().set_sites(sites);
  constexpr std::size_t kBodies = 64;
  std::vector<physics::ParticleBody> bodies;
  for (std::size_t i = 0; i < kBodies; ++i)
    bodies.push_back(rig.cell_at(sites[i % 16], spec));
  physics::OverdampedIntegrator& integ = rig.engine.integrator();
  Rng rng(3);
  const auto& model = rig.engine.field_model();
  for (auto _ : state) {
    for (physics::ParticleBody& body : bodies)
      integ.advance(body, [&](Vec3 p) { return model.grad_erms2(p); }, rng, 10);
    benchmark::DoNotOptimize(bodies.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10 *
                          static_cast<std::int64_t>(kBodies));
}

// Two-sample Kolmogorov-Smirnov statistic D.
double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / static_cast<double>(a.size()) -
                              static_cast<double>(j) / static_cast<double>(b.size())));
  }
  return d;
}

// One site period (400 steps at dt = 1 ms) of a lymphocyte. Arg 0: in a
// parked cage (the body starts at the trap and stays caged). Arg 1: just
// after its cage hopped (every period starts one pitch behind the trap).
// Arg 2: free (every period starts at the levitation height, three pitches
// from the only trap). bm_period_advance passes the field model, so the
// integrator may take the basin or the free path; bm_period_advance_em
// passes a plain gradient callable, which always steps. `basin_share`,
// `free_share`, `stepped_share`: advances per path in the timed loop.
// bm_period_advance's accuracy columns come from a fixed replay after the
// timed loop, so they do not depend on its iteration count: kReplay periods
// from the arg's start per arm, each on its own stream; `ks_d_z` is the
// two-sample KS D of the end heights, model arm against plain arm, and
// `ks_critical` its α = 1e-4 critical value.
template <bool kThroughModel>
void period_advance(benchmark::State& state) {
  Rig rig;
  const GridCoord site{10, 10};
  core::CageFieldModel& model = rig.engine.field_model();
  model.set_sites({site});
  const cell::ParticleSpec spec = cell::viable_lymphocyte();
  physics::ParticleBody body = rig.cell_at(site, spec);
  const double pitch = rig.device.array().pitch();
  Vec3 start = body.position;
  if (state.range(0) == 1) start.x -= pitch;
  if (state.range(0) == 2) {
    start.x += 3.0 * pitch;
    start.z = physics::levitation_equilibrium(rig.cage, body.dep_prefactor, rig.medium,
                                              spec.radius, spec.density)
                  .height;
  }
  const bool restart = state.range(0) != 0;
  body.position = start;
  const physics::OverdampedIntegrator& integ = rig.engine.integrator();
  constexpr std::size_t kPeriod = 400;
  const auto plain = [&](Vec3 p) { return model.grad_erms2(p); };
  Rng rng(5);
  std::int64_t paths[3] = {};
  for (auto _ : state) {
    if (restart) body.position = start;
    physics::AdvancePath path = physics::AdvancePath::kStepped;
    if constexpr (kThroughModel)
      path = integ.advance(body, model, rng, kPeriod);
    else
      path = integ.advance(body, plain, rng, kPeriod);
    ++paths[static_cast<int>(path)];
    benchmark::DoNotOptimize(body.position);
  }
  const auto share = [&](physics::AdvancePath path) {
    return static_cast<double>(paths[static_cast<int>(path)]) /
           static_cast<double>(state.iterations());
  };
  state.counters["basin_share"] = share(physics::AdvancePath::kBasin);
  state.counters["free_share"] = share(physics::AdvancePath::kFree);
  state.counters["stepped_share"] = share(physics::AdvancePath::kStepped);
  if constexpr (kThroughModel) {
    constexpr std::size_t kReplay = 2000;
    const Rng model_base(11);
    const Rng plain_base(12);
    std::vector<double> z_model;
    std::vector<double> z_plain;
    for (std::size_t i = 0; i < kReplay; ++i) {
      physics::ParticleBody a = body;
      physics::ParticleBody b = body;
      a.position = start;
      b.position = start;
      Rng ra = model_base.fork(i);
      Rng rb = plain_base.fork(i);
      integ.advance(a, model, ra, kPeriod);
      integ.advance(b, plain, rb, kPeriod);
      z_model.push_back(a.position.z);
      z_plain.push_back(b.position.z);
    }
    state.counters["ks_d_z"] = ks_statistic(z_model, z_plain);
    state.counters["ks_critical"] = std::sqrt(-std::log(1e-4 / 2.0) / 2.0) *
                                    std::sqrt(2.0 / static_cast<double>(kReplay));
  }
}

void bm_period_advance(benchmark::State& state) { period_advance<true>(state); }
void bm_period_advance_em(benchmark::State& state) { period_advance<false>(state); }

void bm_tow_simulation(benchmark::State& state) {
  Rig rig;
  const cell::ParticleSpec spec = cell::viable_lymphocyte();
  for (auto _ : state) {
    physics::ParticleBody cell = rig.cell_at({10, 10}, spec);
    std::vector<GridCoord> path;
    for (int c = 10; c <= 20; ++c) path.push_back({c, 10});
    Rng rng(9);
    core::TowReport rep = rig.engine.tow(cell, path, 0.4, rng);
    benchmark::DoNotOptimize(rep.retained);
  }
}

BENCHMARK(bm_integrator_throughput)
    ->Arg(10)
    ->Arg(100)
    ->Arg(196)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_grad_cage_scaling)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_period_advance)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_period_advance_em)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_tow_simulation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_retention_vs_speed();
  print_cell_type_speeds();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
