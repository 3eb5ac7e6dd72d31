// Tests for the physics substrate: media, dielectric spectra, DEP forces,
// hydrodynamics, Brownian motion, electro-thermal screens, overdamped
// dynamics (including the exact period advance inside a cage), and
// levitation equilibria.
//
// BIOCHIP_LONGFUZZ=<n> multiplies the exact-advance harness's draw count
// (the `longfuzz` ctest label runs with n=10).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/simulation.hpp"
#include "physics/brownian.hpp"
#include "physics/dep.hpp"
#include "physics/dielectrics.hpp"
#include "physics/drag.hpp"
#include "physics/dynamics.hpp"
#include "physics/levitation.hpp"
#include "physics/medium.hpp"
#include "physics/thermal.hpp"

namespace biochip::physics {
namespace {

using namespace biochip::units;

// ---------------------------------------------------------------- medium ----

TEST(Medium, PresetsAreValid) {
  for (const Medium& m : {dep_buffer(), physiological_saline(), deionized_water()})
    EXPECT_NO_THROW(validate(m));
}

TEST(Medium, ConductivityOrdering) {
  EXPECT_LT(deionized_water().conductivity, dep_buffer().conductivity);
  EXPECT_LT(dep_buffer().conductivity, physiological_saline().conductivity);
}

TEST(Medium, PermittivityIsAbsolute) {
  const Medium m = dep_buffer();
  EXPECT_NEAR(m.permittivity(), m.rel_permittivity * constants::epsilon0, 1e-20);
}

TEST(Medium, InvalidMediumThrows) {
  Medium m = dep_buffer();
  m.viscosity = 0.0;
  EXPECT_THROW(validate(m), ConfigError);
  m = dep_buffer();
  m.temperature = -1.0;
  EXPECT_THROW(validate(m), ConfigError);
}

// ----------------------------------------------------------- dielectrics ----

TEST(Dielectrics, CmFactorBounds) {
  // Re K is bounded in [-0.5, 1] for any passive particle/medium pair.
  const Medium medium = dep_buffer();
  const ParticleDielectric insulator{{2.5, 1e-6}, {}, 0.0, {}, 0.0};
  const ParticleDielectric conductor{{80.0, 5.0}, {}, 0.0, {}, 0.0};
  for (double f = 1e3; f <= 1e9; f *= 3.0) {
    for (const auto& p : {insulator, conductor}) {
      const double re = cm_factor(p, 5e-6, medium, f).real();
      EXPECT_GE(re, -0.5 - 1e-9);
      EXPECT_LE(re, 1.0 + 1e-9);
    }
  }
}

TEST(Dielectrics, ConductiveParticleLowFrequencyLimit) {
  // σ_p >> σ_m at low frequency → K → +1... (σp-σm)/(σp+2σm) actually.
  const Medium medium = dep_buffer();  // 30 mS/m
  const ParticleDielectric p{{60.0, 3.0}, {}, 0.0, {}, 0.0};
  const double k = cm_factor(p, 5e-6, medium, 1e3).real();
  const double expect = (3.0 - 0.03) / (3.0 + 2 * 0.03);
  EXPECT_NEAR(k, expect, 0.01);
}

TEST(Dielectrics, InsulatingBeadLowFrequencyIsNegative) {
  const Medium medium = dep_buffer();
  const ParticleDielectric p{{2.55, 1e-7}, {}, 0.0, {}, 0.0};
  EXPECT_LT(cm_factor(p, 5e-6, medium, 1e4).real(), -0.4);
}

TEST(Dielectrics, HighFrequencyLimitIsPermittivityContrast) {
  const Medium medium = dep_buffer();
  const ParticleDielectric p{{2.55, 1e-4}, {}, 0.0, {}, 0.0};
  const double k = cm_factor(p, 5e-6, medium, 5e8).real();
  const double expect = (2.55 - 78.5) / (2.55 + 2 * 78.5);
  EXPECT_NEAR(k, expect, 0.02);
}

TEST(Dielectrics, ShellModelReducesToCoreWhenShellMatches) {
  // Shell with identical properties to the core must be transparent.
  const DielectricMaterial mat{50.0, 0.1};
  const double omega = 2.0 * constants::pi * 1e6;
  const std::complex<double> shelled =
      shelled_sphere_permittivity(mat, mat, 5e-6, 50e-9, omega);
  const std::complex<double> plain = complex_permittivity(mat, omega);
  EXPECT_NEAR(shelled.real(), plain.real(), std::abs(plain.real()) * 1e-9);
  EXPECT_NEAR(shelled.imag(), plain.imag(), std::abs(plain.imag()) * 1e-9);
}

TEST(Dielectrics, ShellThicknessValidation) {
  const DielectricMaterial a{5.0, 1e-7}, b{60.0, 0.5};
  const double omega = 1e7;
  EXPECT_THROW(shelled_sphere_permittivity(a, b, 5e-6, 0.0, omega), PreconditionError);
  EXPECT_THROW(shelled_sphere_permittivity(a, b, 5e-6, 5e-6, omega), PreconditionError);
}

TEST(Dielectrics, ViableCellHasCrossoverInBuffer) {
  // Intact membrane: nDEP at low f, pDEP above the first crossover.
  const Medium medium = dep_buffer();
  const ParticleDielectric cell{
      {60.0, 0.50}, DielectricMaterial{6.0, 1e-7}, 7e-9, {}, 0.0};
  const double radius = 5e-6;
  EXPECT_LT(cm_factor(cell, radius, medium, 20e3).real(), 0.0);
  EXPECT_GT(cm_factor(cell, radius, medium, 2e6).real(), 0.0);
  const auto fx = crossover_frequency(cell, radius, medium);
  ASSERT_TRUE(fx.has_value());
  EXPECT_GT(*fx, 50e3);
  EXPECT_LT(*fx, 1e6);
}

TEST(Dielectrics, CrossoverScalesWithMediumConductivity) {
  // First crossover f_x ∝ σ_m for membrane-limited cells.
  const ParticleDielectric cell{
      {60.0, 0.50}, DielectricMaterial{6.0, 1e-7}, 7e-9, {}, 0.0};
  Medium lo = dep_buffer();
  lo.conductivity = 0.02;
  Medium hi = dep_buffer();
  hi.conductivity = 0.08;
  const auto f_lo = crossover_frequency(cell, 5e-6, lo);
  const auto f_hi = crossover_frequency(cell, 5e-6, hi);
  ASSERT_TRUE(f_lo && f_hi);
  EXPECT_NEAR(*f_hi / *f_lo, 4.0, 0.8);
}

TEST(Dielectrics, NoCrossoverInSalineForViableCell) {
  // In high-σ medium the cell is nDEP through the whole manipulation band.
  const Medium medium = physiological_saline();
  const ParticleDielectric cell{
      {60.0, 0.50}, DielectricMaterial{6.0, 1e-7}, 7e-9, {}, 0.0};
  const auto fx = crossover_frequency(cell, 5e-6, medium, 1e3, 5e6);
  EXPECT_FALSE(fx.has_value());
  EXPECT_LT(cm_factor(cell, 5e-6, medium, 100e3).real(), -0.3);
}

TEST(Dielectrics, SpectrumIsLogSpacedAndOrdered) {
  const Medium medium = dep_buffer();
  const ParticleDielectric p{{2.55, 2e-4}, {}, 0.0, {}, 0.0};
  const auto spec = cm_spectrum(p, 5e-6, medium, 1e4, 1e8, 9);
  ASSERT_EQ(spec.size(), 9u);
  EXPECT_NEAR(spec.front().frequency, 1e4, 1.0);
  EXPECT_NEAR(spec.back().frequency, 1e8, 1e4);
  for (std::size_t i = 1; i < spec.size(); ++i)
    EXPECT_GT(spec[i].frequency, spec[i - 1].frequency);
}

// ------------------------------------------------------------------- dep ----

TEST(Dep, PrefactorSignFollowsReK) {
  const Medium m = dep_buffer();
  EXPECT_GT(dep_prefactor(m, 5e-6, 0.5), 0.0);
  EXPECT_LT(dep_prefactor(m, 5e-6, -0.5), 0.0);
}

TEST(Dep, PrefactorScalesWithRadiusCubed) {
  const Medium m = dep_buffer();
  const double p1 = dep_prefactor(m, 5e-6, -0.4);
  const double p2 = dep_prefactor(m, 10e-6, -0.4);
  EXPECT_NEAR(p2 / p1, 8.0, 1e-9);
}

TEST(Dep, ForceIsPrefactorTimesGradient) {
  const Vec3 grad{1e12, -2e12, 0.5e12};
  const Vec3 f = dep_force(-2e-25, grad);
  EXPECT_DOUBLE_EQ(f.x, -2e-25 * 1e12);
  EXPECT_DOUBLE_EQ(f.y, 4e-13);
}

TEST(Dep, TrapStiffnessPositiveForNdepInMinimum) {
  const field::HarmonicCage cage{{0, 0, 20e-6}, 1e7, 1e19, 5e19};
  const TrapStiffness k = trap_stiffness(cage, -1.5e-25);
  EXPECT_GT(k.radial, 0.0);
  EXPECT_GT(k.vertical, 0.0);
  // pDEP particle in the same cage is anti-trapped.
  const TrapStiffness kp = trap_stiffness(cage, +1.5e-25);
  EXPECT_LT(kp.radial, 0.0);
}

TEST(Dep, HoldingForceZeroForAntiTrap) {
  const field::HarmonicCage cage{{0, 0, 20e-6}, 1e7, 1e19, 5e19};
  EXPECT_GT(holding_force(cage, -1e-25, 10e-6), 0.0);
  EXPECT_DOUBLE_EQ(holding_force(cage, +1e-25, 10e-6), 0.0);
}

TEST(Dep, MaxTowSpeedInPaperRange) {
  // Paper-scale cage and cell: the bound must land in (or above) the
  // 10-100 µm/s band the paper quotes for cell motion.
  const Medium m = dep_buffer();
  const field::HarmonicCage cage{{0, 0, 20e-6}, 5e7, 1.2e19, 1.2e20};
  const double prefactor = dep_prefactor(m, 5e-6, -0.27);
  const double vmax = max_tow_speed(cage, prefactor, 20e-6, m, 5e-6);
  EXPECT_GT(vmax, 10e-6);
  EXPECT_LT(vmax, 2000e-6);
}

// ------------------------------------------------------------------ drag ----

TEST(Drag, StokesCoefficient) {
  const Medium m = dep_buffer();
  EXPECT_NEAR(stokes_drag_coefficient(m, 5e-6),
              6.0 * constants::pi * m.viscosity * 5e-6, 1e-15);
}

TEST(Drag, FaxenCorrectionIncreasesNearWall) {
  EXPECT_NEAR(faxen_wall_correction(5e-6, 1.0), 1.0, 1e-5);  // far away
  const double near = faxen_wall_correction(5e-6, 6e-6);
  const double touching = faxen_wall_correction(5e-6, 5e-6);
  EXPECT_GT(near, 1.3);
  EXPECT_GT(touching, near);
  EXPECT_LT(touching, 25.0);  // guarded divergence
}

TEST(Drag, SedimentationSignAndMagnitude) {
  const Medium m = dep_buffer();
  // Cell slightly denser than buffer sinks at ~µm/s scale.
  const double v = sedimentation_velocity(m, 5e-6, 1070.0);
  EXPECT_LT(v, 0.0);
  EXPECT_GT(v, -20e-6);
  // Neutrally buoyant particle does not move.
  EXPECT_NEAR(sedimentation_velocity(m, 5e-6, m.density), 0.0, 1e-12);
}

TEST(Drag, ReynoldsIsTinyAtCellScale) {
  const Medium m = dep_buffer();
  EXPECT_LT(particle_reynolds(m, 10e-6, 100e-6), 1e-2);
}

// -------------------------------------------------------------- brownian ----

TEST(Brownian, StokesEinsteinDiffusion) {
  const Medium m = dep_buffer();
  const double d = diffusion_coefficient(m, 5e-6);
  // ~5e-14 m²/s for a 5 µm-radius sphere in water at 298 K.
  EXPECT_GT(d, 1e-14);
  EXPECT_LT(d, 1e-13);
}

TEST(Brownian, RmsStepScalesWithSqrtTime) {
  const Medium m = dep_buffer();
  EXPECT_NEAR(rms_step(m, 5e-6, 4.0) / rms_step(m, 5e-6, 1.0), 2.0, 1e-9);
}

TEST(Brownian, KickStatisticsMatchTheory) {
  const Medium m = dep_buffer();
  Rng rng(51);
  RunningStats x2;
  const double dt = 0.01;
  for (int i = 0; i < 30000; ++i) {
    const Vec3 k = brownian_kick(m, 5e-6, dt, rng);
    x2.add(k.x * k.x);
  }
  EXPECT_NEAR(x2.mean(), 2.0 * diffusion_coefficient(m, 5e-6) * dt,
              0.05 * 2.0 * diffusion_coefficient(m, 5e-6) * dt);
}

TEST(Brownian, EscapeRatioSmallForRealisticTrap) {
  // k ~ 1e-6 N/m, x_max ~ 10 µm → depth ~ 5e-17 J >> kT ~ 4e-21 J.
  const Medium m = dep_buffer();
  EXPECT_LT(thermal_escape_ratio(m, 1e-6, 10e-6), 1e-3);
  EXPECT_GT(thermal_escape_ratio(m, 0.0, 10e-6), 1e6);  // no trap
}

// --------------------------------------------------------------- thermal ----

TEST(Thermal, JouleRiseScalesWithSigmaAndV2) {
  const Medium lo = dep_buffer();
  Medium hi = lo;
  hi.conductivity = 2.0 * lo.conductivity;
  EXPECT_NEAR(joule_temperature_rise(hi, 3.3) / joule_temperature_rise(lo, 3.3), 2.0,
              1e-9);
  EXPECT_NEAR(joule_temperature_rise(lo, 6.6) / joule_temperature_rise(lo, 3.3), 4.0,
              1e-9);
}

TEST(Thermal, LowSigmaBufferStaysCool) {
  // The design point of the paper's chip: mK-scale heating at 3.3 V.
  EXPECT_LT(joule_temperature_rise(dep_buffer(), 3.3), 0.1);
  // Saline at the same drive heats ~50x more.
  EXPECT_GT(joule_temperature_rise(physiological_saline(), 3.3), 1.0);
}

TEST(Thermal, ChargeRelaxationFrequency) {
  const Medium m = dep_buffer();
  const double fc = charge_relaxation_frequency(m);
  EXPECT_NEAR(fc, m.conductivity / (2.0 * constants::pi * m.permittivity()), 1.0);
  EXPECT_GT(fc, 1e6);  // 30 mS/m → ~6.9 MHz
}

TEST(Thermal, AceoVelocityScaleReasonable) {
  const double u = aceo_velocity_scale(dep_buffer(), 1.0, 20e-6);
  EXPECT_GT(u, 1e-6);
  EXPECT_LT(u, 1.0);
}

// -------------------------------------------------------------- dynamics ----

class DynamicsTest : public ::testing::Test {
 protected:
  Medium medium_ = dep_buffer();
  DynamicsOptions opts_ = {
      .dt = 1e-3,
      .brownian = false,
      .gravity = false,
      .wall_correction = false,
      .bounds = {{0, 0, 0}, {1e-3, 1e-3, 1e-4}},
  };
};

TEST_F(DynamicsTest, RelaxationIntoHarmonicTrap) {
  // Overdamped relaxation: x(t) = x0 exp(-k t / γ).
  const field::HarmonicCage cage{{5e-4, 5e-4, 5e-5}, 0.0, 1e19, 1e19};
  const double prefactor = -1.5e-25;
  OverdampedIntegrator integ(medium_, opts_);
  ParticleBody p{{5e-4 + 10e-6, 5e-4, 5e-5}, 5e-6, medium_.density, prefactor, 0};
  Rng rng(1);
  const double gamma = stokes_drag_coefficient(medium_, p.radius);
  const double k = -prefactor * cage.c_r;
  const double steps = 200.0;
  integ.advance(p, [&](Vec3 q) { return cage.grad_erms2(q); }, rng,
                static_cast<std::size_t>(steps));
  const double expect =
      10e-6 * std::exp(-k * opts_.dt * steps / gamma);
  EXPECT_NEAR(p.position.x - 5e-4, expect, 0.15 * 10e-6);
}

TEST_F(DynamicsTest, GravityOnlySedimentation) {
  DynamicsOptions opts = opts_;
  opts.gravity = true;
  OverdampedIntegrator integ(medium_, opts);
  ParticleBody p{{5e-4, 5e-4, 5e-5}, 5e-6, 1070.0, 0.0, 0};
  Rng rng(2);
  const double z0 = p.position.z;
  for (int i = 0; i < 1000; ++i)
    integ.step(p, [](Vec3) { return Vec3{}; }, rng);
  const double v_expected = sedimentation_velocity(medium_, p.radius, p.density);
  EXPECT_NEAR((p.position.z - z0) / (1000 * opts.dt), v_expected,
              std::fabs(v_expected) * 0.05);
}

TEST_F(DynamicsTest, BoundsConfinement) {
  OverdampedIntegrator integ(medium_, opts_);
  // Huge downward force: particle must stop at radius above the floor.
  ParticleBody p{{5e-4, 5e-4, 5e-5}, 5e-6, 5000.0, -1e-20, 0};
  Rng rng(3);
  for (int i = 0; i < 100; ++i)
    integ.step(p, [](Vec3) { return Vec3{0.0, 0.0, 1e15}; }, rng);
  EXPECT_GE(p.position.z, p.radius - 1e-12);
}

TEST_F(DynamicsTest, BrownianMsdMatchesDiffusion) {
  DynamicsOptions opts = opts_;
  opts.brownian = true;
  OverdampedIntegrator integ(medium_, opts);
  Rng rng(4);
  RunningStats msd;
  const int kSteps = 100;
  for (int trial = 0; trial < 400; ++trial) {
    ParticleBody p{{5e-4, 5e-4, 5e-5}, 2e-6, medium_.density, 0.0, 0};
    const Vec3 start = p.position;
    for (int s = 0; s < kSteps; ++s)
      integ.step(p, [](Vec3) { return Vec3{}; }, rng);
    const Vec3 d = p.position - start;
    msd.add(d.x * d.x + d.y * d.y);  // xy only: z hits walls
  }
  const double d_coef = diffusion_coefficient(medium_, 2e-6);
  const double expect = 4.0 * d_coef * kSteps * opts.dt;
  EXPECT_NEAR(msd.mean(), expect, expect * 0.15);
}

TEST_F(DynamicsTest, SuggestedDtIsFractionOfRelaxation) {
  OverdampedIntegrator integ(medium_, opts_);
  const double gamma = stokes_drag_coefficient(medium_, 5e-6);
  const double k = 1e-6;
  EXPECT_NEAR(integ.suggested_dt(k, 5e-6, 10.0), gamma / k / 10.0, 1e-12);
}

TEST_F(DynamicsTest, InvalidOptionsThrow) {
  DynamicsOptions bad = opts_;
  bad.dt = 0.0;
  EXPECT_THROW(OverdampedIntegrator(medium_, bad), PreconditionError);
  DynamicsOptions empty = opts_;
  empty.bounds = {{0, 0, 0}, {0, 0, 0}};
  EXPECT_THROW(OverdampedIntegrator(medium_, empty), PreconditionError);
}

// ------------------------------------------------- exact period advance ----
//
// advance() through a basin-certifying field (core::CageFieldModel) draws a
// caged body's end point from the step chain's N-step law; through a plain
// gradient callable it steps. The step chain is the oracle: the harness
// compares the two arms' end-point distributions, and every fallback must be
// bit-identical to stepping.

std::size_t longfuzz_factor() {
  const char* env = std::getenv("BIOCHIP_LONGFUZZ");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v > 1 ? static_cast<std::size_t>(v) : 1;
}

// The paper chip's calibrated cage, solved once for the whole suite.
struct PaperCage {
  chip::BiochipDevice device{[] {
    chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
    cfg.cols = 32;
    cfg.rows = 32;
    return cfg;
  }()};
  Medium medium = dep_buffer();
  field::HarmonicCage cage = device.calibrate_cage(5, 6);
};

const PaperCage& paper_cage() {
  static const PaperCage rig;
  return rig;
}

class ExactAdvanceTest : public ::testing::Test {
 protected:
  // One site period of a chamber tick: 0.4 s at dt = 1 ms.
  static constexpr std::size_t kPeriod = 400;

  ExactAdvanceTest() : model_(rig_.cage, pitch(), 30e-6), integ_(rig_.medium, options()) {}

  double pitch() const { return rig_.device.array().pitch(); }
  // The manipulation engine's integrator settings.
  DynamicsOptions options(double dt = 1e-3) const {
    return {.dt = dt,
            .brownian = true,
            .gravity = true,
            .wall_correction = true,
            .bounds = rig_.device.chamber_bounds()};
  }
  ParticleBody body(const cell::ParticleSpec& spec, Vec3 at) const {
    return {at, spec.radius, spec.density,
            spec.dep_prefactor(rig_.medium, rig_.device.config().drive_frequency), 0};
  }
  Vec3 trap(GridCoord site) const { return model_.trap_center(site); }

  // `advance` through the model must fall back (return false) and end
  // bit-identical to stepping the plain callable on the same stream.
  void expect_bitwise_em(const OverdampedIntegrator& integ, const ParticleBody& start,
                         std::uint64_t seed) const {
    ParticleBody a = start;
    ParticleBody b = start;
    Rng ra(seed);
    Rng rb(seed);
    EXPECT_FALSE(integ.advance(a, model_, ra, kPeriod));
    integ.advance(b, [&](Vec3 p) { return model_.grad_erms2(p); }, rb, kPeriod);
    EXPECT_EQ(a.position, b.position);
    EXPECT_EQ(ra.normal(), rb.normal());
    EXPECT_EQ(ra(), rb());
  }

  const PaperCage& rig_ = paper_cage();
  core::CageFieldModel model_;
  OverdampedIntegrator integ_;
};

// End points of `n` independent period advances from `start`, per axis.
struct Arm {
  std::vector<double> axis[3];
  std::size_t exact = 0;  ///< advances that took the exact path
};

template <typename Field>
Arm draw_arm(const OverdampedIntegrator& integ, Field&& field, const ParticleBody& start,
             const Rng& base, std::size_t n, std::size_t steps) {
  Arm arm;
  for (std::vector<double>& v : arm.axis) v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ParticleBody b = start;
    Rng stream = base.fork(i);
    if (integ.advance(b, field, stream, steps)) ++arm.exact;
    arm.axis[0].push_back(b.position.x);
    arm.axis[1].push_back(b.position.y);
    arm.axis[2].push_back(b.position.z);
  }
  return arm;
}

// Two-sample Kolmogorov-Smirnov statistic D.
double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na - static_cast<double>(j) / nb));
  }
  return d;
}

// The statistical gate: per axis, the exact arm and the step-chain arm agree
// in mean (5 SE), in variance (|ln ratio| within 5 SE of ln s²), and in
// distribution (two-sample KS below its α = 1e-4 critical value, 0.0498 at
// 4,000 draws per arm). Cases: a lymphocyte and a 5 µm bead, each at the
// trap, one pitch behind it (the cage just hopped) and (1.2, 0.6) pitch off
// axis. Every model-arm draw must take the exact path.
TEST_F(ExactAdvanceTest, PeriodLawMatchesStepChain) {
  const std::size_t n = 4000 * longfuzz_factor();
  const double dn = static_cast<double>(n);
  const double ks_critical = std::sqrt(-std::log(1e-4 / 2.0) / 2.0) * std::sqrt(2.0 / dn);
  const double lnvar_bound = 5.0 * std::sqrt(4.0 / (dn - 1.0));
  const GridCoord site{16, 16};
  model_.set_sites({site});
  const double p = pitch();
  const struct {
    const char* name;
    Vec3 offset;
  } starts[] = {{"at trap", {}}, {"towed", {-p, 0.0, 0.0}}, {"off axis", {1.2 * p, 0.6 * p, 0.0}}};
  std::uint64_t seed = 1;
  for (const cell::ParticleSpec& spec : {cell::viable_lymphocyte(), cell::polystyrene_bead(5e-6)})
    for (const auto& start : starts) {
      SCOPED_TRACE(spec.name + " " + start.name);
      const ParticleBody b = body(spec, trap(site) + start.offset);
      const Arm exact = draw_arm(integ_, model_, b, Rng(seed++), n, kPeriod);
      const Arm em = draw_arm(integ_, [&](Vec3 q) { return model_.grad_erms2(q); }, b,
                              Rng(seed++), n, kPeriod);
      EXPECT_EQ(exact.exact, n);
      EXPECT_EQ(em.exact, 0u);
      for (int axis = 0; axis < 3; ++axis) {
        SCOPED_TRACE("axis " + std::to_string(axis));
        RunningStats se;
        RunningStats so;
        for (const double v : exact.axis[axis]) se.add(v);
        for (const double v : em.axis[axis]) so.add(v);
        const double sem = std::sqrt(se.variance() / dn + so.variance() / dn);
        EXPECT_LE(std::fabs(se.mean() - so.mean()), 5.0 * sem);
        EXPECT_LE(std::fabs(std::log(se.variance() / so.variance())), lnvar_bound);
        EXPECT_LT(ks_statistic(exact.axis[axis], em.axis[axis]), ks_critical);
      }
    }
}

TEST_F(ExactAdvanceTest, ExactPathDrawsThreeNormals) {
  const GridCoord site{16, 16};
  model_.set_sites({site});
  ParticleBody b = body(cell::viable_lymphocyte(), trap(site));
  Rng ra(7);
  Rng rb(7);
  ASSERT_TRUE(integ_.advance(b, model_, ra, kPeriod));
  for (int i = 0; i < 3; ++i) rb.normal();
  EXPECT_EQ(ra.normal(), rb.normal());
  EXPECT_EQ(ra(), rb());
  EXPECT_LT((b.position - trap(site)).norm(), 1e-6);
}

TEST_F(ExactAdvanceTest, ZeroStepsLeaveBodyAndStreamUntouched) {
  const GridCoord site{16, 16};
  model_.set_sites({site});
  const ParticleBody start = body(cell::viable_lymphocyte(), trap(site));
  ParticleBody b = start;
  Rng ra(8);
  Rng rb(8);
  EXPECT_FALSE(integ_.advance(b, model_, ra, 0));
  EXPECT_EQ(b.position, start.position);
  EXPECT_EQ(ra.normal(), rb.normal());
  EXPECT_EQ(ra(), rb());
}

TEST_F(ExactAdvanceTest, FallbacksAreBitwiseStepChain) {
  const cell::ParticleSpec spec = cell::viable_lymphocyte();
  const GridCoord site{16, 16};

  // Equidistant between two active traps: an exact tie never certifies.
  model_.set_sites({{15, 16}, {17, 16}});
  expect_bitwise_em(integ_, body(spec, trap(site)), 11);

  model_.set_sites({site});
  // Outside every capture radius (two pitches from the only trap).
  expect_bitwise_em(integ_, body(spec, trap(site) + Vec3{2.0 * pitch(), 0.0, 0.0}), 12);
  // Resting on the floor under the trap.
  Vec3 floor = trap(site);
  floor.z = rig_.device.chamber_bounds().min.z + spec.radius;
  expect_bitwise_em(integ_, body(spec, floor), 13);

  // A lid 50 nm above the trap (less than 8 σ_z): the reach box touches it.
  DynamicsOptions low_lid = options();
  low_lid.bounds.max.z = trap(site).z + spec.radius + 50e-9;
  expect_bitwise_em(OverdampedIntegrator(rig_.medium, low_lid), body(spec, trap(site)), 14);

  // dt = 6 ms makes the z step factor a = 1 - dt k_z / γ negative.
  expect_bitwise_em(OverdampedIntegrator(rig_.medium, options(6e-3)), body(spec, trap(site)),
                    15);
}

// ------------------------------------------------------------ levitation ----

TEST(Levitation, StableEquilibriumBelowCageCenter) {
  const Medium m = dep_buffer();
  const field::HarmonicCage cage{{0, 0, 21e-6}, 5e7, 1.2e19, 1.2e20};
  const double prefactor = dep_prefactor(m, 5e-6, -0.27);
  const LevitationResult lev = levitation_equilibrium(cage, prefactor, m, 5e-6, 1070.0);
  EXPECT_TRUE(lev.stable);
  EXPECT_LT(lev.height, cage.center.z);  // denser cell sags below the minimum
  EXPECT_GT(lev.height, 5e-6);           // but stays clear of the chip
  EXPECT_GT(lev.stiffness_z, 0.0);
  EXPECT_GT(lev.sag, 0.0);
}

TEST(Levitation, PdepParticleNotLevitated) {
  const Medium m = dep_buffer();
  const field::HarmonicCage cage{{0, 0, 21e-6}, 5e7, 1.2e19, 1.2e20};
  const LevitationResult lev =
      levitation_equilibrium(cage, +1.5e-25, m, 5e-6, 1070.0);
  EXPECT_FALSE(lev.stable);
}

TEST(Levitation, WeakCageDropsHeavyParticle) {
  const Medium m = dep_buffer();
  const field::HarmonicCage cage{{0, 0, 21e-6}, 5e7, 1.2e16, 1.2e16};  // 1000x weaker
  const double prefactor = dep_prefactor(m, 5e-6, -0.05);
  const LevitationResult lev = levitation_equilibrium(cage, prefactor, m, 5e-6, 2500.0);
  EXPECT_FALSE(lev.stable);  // sag exceeds the clearance
}

TEST(Levitation, BuoyantParticleRisesAboveCenter) {
  const Medium m = dep_buffer();  // density 1020
  const field::HarmonicCage cage{{0, 0, 21e-6}, 5e7, 1.2e19, 1.2e20};
  const double prefactor = dep_prefactor(m, 5e-6, -0.27);
  const LevitationResult lev = levitation_equilibrium(cage, prefactor, m, 5e-6, 950.0);
  EXPECT_TRUE(lev.stable);
  EXPECT_GT(lev.height, cage.center.z);
}

}  // namespace
}  // namespace biochip::physics
