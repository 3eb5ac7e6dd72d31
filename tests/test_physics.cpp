// Tests for the physics substrate: media, dielectric spectra, DEP forces,
// hydrodynamics, Brownian motion, electro-thermal screens, overdamped
// dynamics, and levitation equilibria.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
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
