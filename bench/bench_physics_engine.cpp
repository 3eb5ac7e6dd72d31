// Experiment P-1 — particle-dynamics engine: the 10-100 µm/s manipulation
// band (paper §2) measured physics-in-the-loop (retention vs tow speed),
// plus engine throughput for population-scale simulation.

#include <benchmark/benchmark.h>

#include <iostream>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/simulation.hpp"
#include "physics/dep.hpp"
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

// One site period (400 steps at dt = 1 ms) of a lymphocyte in a parked cage
// (arg 0: the body starts at the trap and stays caged) or just after its
// cage hopped (arg 1: every period starts one pitch behind the trap).
// bm_period_advance passes the field model, so the integrator may draw the
// period exactly; bm_period_advance_em passes a plain gradient callable,
// which always steps. `exact_share` = advances that took the exact path.
template <bool kThroughModel>
void period_advance(benchmark::State& state) {
  Rig rig;
  const GridCoord site{10, 10};
  core::CageFieldModel& model = rig.engine.field_model();
  model.set_sites({site});
  physics::ParticleBody body = rig.cell_at(site, cell::viable_lymphocyte());
  const bool towed = state.range(0) == 1;
  const Vec3 start = body.position - Vec3{towed ? rig.device.array().pitch() : 0.0, 0.0, 0.0};
  body.position = start;
  const physics::OverdampedIntegrator& integ = rig.engine.integrator();
  constexpr std::size_t kPeriod = 400;
  Rng rng(5);
  std::int64_t exact = 0;
  for (auto _ : state) {
    if (towed) body.position = start;
    bool drawn = false;
    if constexpr (kThroughModel)
      drawn = integ.advance(body, model, rng, kPeriod);
    else
      drawn = integ.advance(body, [&](Vec3 p) { return model.grad_erms2(p); }, rng, kPeriod);
    exact += drawn ? 1 : 0;
    benchmark::DoNotOptimize(body.position);
  }
  state.counters["exact_share"] =
      static_cast<double>(exact) / static_cast<double>(state.iterations());
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
BENCHMARK(bm_period_advance)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_period_advance_em)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_tow_simulation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_retention_vs_speed();
  print_cell_type_speeds();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
