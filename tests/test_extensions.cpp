// Tests for the extension modules: parallel multi-cage transport, defect /
// yield modeling, the hydraulic network solver, the two-shell cell model,
// optical frame synthesis, and design centering.

#include <gtest/gtest.h>

#include <cmath>

#include "cell/library.hpp"
#include "chip/defects.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "control/platform.hpp"
#include "flow/centering.hpp"
#include "fluidic/network.hpp"
#include "sensor/detect.hpp"
#include "sensor/frame.hpp"

namespace biochip {
namespace {

// ------------------------------------------------------ parallel transport ----

class ParallelTest : public ::testing::Test {
 protected:
  ParallelTest() {
    control::PlatformConfig cfg = control::PlatformConfig::paper_defaults();
    cfg.device.cols = 48;
    cfg.device.rows = 48;
    cfg.seed = 1234;
    lab_ = std::make_unique<control::LabOnChipPlatform>(cfg);
    lab_->load_sample({{cell::viable_lymphocyte(), 6, 0.0}});
    // Deterministic starting sites: a row of separated cells.
    for (std::size_t i = 0; i < lab_->bodies().size(); ++i) {
      lab_->bodies()[i].position = {(8.0 + 6.0 * static_cast<double>(i)) * 20e-6,
                                    10.5 * 20e-6, 6e-6};
    }
    for (const auto& inst : lab_->sample()) {
      auto cage = lab_->trap_cell(inst.id);
      if (cage.has_value()) cages_.push_back(*cage);
    }
  }

  void SetUp() override { ASSERT_EQ(cages_.size(), 6u); }
  std::unique_ptr<control::LabOnChipPlatform> lab_;
  std::vector<int> cages_;
};

TEST_F(ParallelTest, ConvoyMovesTogether) {
  // All six cages shift 10 rows north simultaneously.
  std::vector<control::CageGoal> goals;
  for (int id : cages_)
    goals.push_back({id, {lab_->cages().site(id).col, lab_->cages().site(id).row + 10}});
  const control::EpisodeReport result = lab_->move_cells(goals);
  EXPECT_TRUE(result.planned);
  EXPECT_TRUE(result.success) << result.failed_ids.size() << " failed";
  for (const auto& goal : goals)
    EXPECT_EQ(lab_->cages().site(goal.cage_id), goal.destination);
  // Every particle arrived at its trap.
  for (int id : cages_) {
    const int bidx = *lab_->body_in_cage(id);
    const Vec3 trap{(lab_->cages().site(id).col + 0.5) * 20e-6,
                    (lab_->cages().site(id).row + 0.5) * 20e-6,
                    lab_->unit_cage().center.z};
    EXPECT_LT((lab_->bodies()[static_cast<std::size_t>(bidx)].position - trap).norm(),
              25e-6)
        << id;
  }
}

TEST_F(ParallelTest, CrossingPairResolvedAndExecuted) {
  // First and last cage swap columns — paths must weave around the others.
  const GridCoord a = lab_->cages().site(cages_.front());
  const GridCoord b = lab_->cages().site(cages_.back());
  const control::EpisodeReport result =
      lab_->move_cells({{cages_.front(), b}, {cages_.back(), a}});
  EXPECT_TRUE(result.planned);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(lab_->cages().site(cages_.front()), b);
  EXPECT_EQ(lab_->cages().site(cages_.back()), a);
}

TEST_F(ParallelTest, ElapsedMatchesStepsTimesPeriod) {
  const control::EpisodeReport result =
      lab_->move_cells({{cages_[0], {lab_->cages().site(cages_[0]).col, 40}}});
  ASSERT_TRUE(result.success);
  EXPECT_NEAR(result.elapsed, static_cast<double>(result.ticks) * lab_->site_period(),
              1e-9);
}

TEST_F(ParallelTest, DestinationOutsideArrayThrows) {
  EXPECT_THROW(lab_->move_cells({{cages_[0], {100, 100}}}), PreconditionError);
}

// Edge sites lack a full counter-phase ring, but on a clean map every cage
// keeps its trap wherever it sits: goals on the last row and the last column
// are delivered, and a cage parked on row 0 keeps its cell through the move.
// A held cell sits within thermal jitter (~0.1 µm) of its trap; one whose
// trap is dropped lags a pitch behind or sediments at ~1 µm/s, so these
// checks use a quarter pitch, not the capture-basin 25 µm.
constexpr double kHeldRadius = 5e-6;

TEST_F(ParallelTest, EdgeDestinationsDelivered) {
  const GridCoord a = lab_->cages().site(cages_.front());
  const GridCoord b = lab_->cages().site(cages_.back());
  const std::vector<control::CageGoal> goals{{cages_.front(), {a.col, 47}},
                                             {cages_.back(), {47, b.row}}};
  const control::EpisodeReport result = lab_->move_cells(goals);
  EXPECT_TRUE(result.planned);
  EXPECT_TRUE(result.success) << result.failed_ids.size() << " failed";
  for (const auto& goal : goals) {
    EXPECT_EQ(lab_->cages().site(goal.cage_id), goal.destination);
    const int bidx = *lab_->body_in_cage(goal.cage_id);
    const Vec3 trap{(goal.destination.col + 0.5) * 20e-6,
                    (goal.destination.row + 0.5) * 20e-6, lab_->unit_cage().center.z};
    EXPECT_LT((lab_->bodies()[static_cast<std::size_t>(bidx)].position - trap).norm(),
              kHeldRadius)
        << goal.cage_id;
  }
}

TEST_F(ParallelTest, CageParkedOnEdgeKeepsItsCell) {
  const GridCoord edge{lab_->cages().site(cages_[0]).col, 0};
  ASSERT_TRUE(lab_->move_cell(cages_[0], edge).success);
  const control::EpisodeReport result =
      lab_->move_cells({{cages_[1], {lab_->cages().site(cages_[1]).col, 20}}});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(lab_->cages().site(cages_[0]), edge);
  const int bidx = *lab_->body_in_cage(cages_[0]);
  const Vec3 trap{(edge.col + 0.5) * 20e-6, 0.5 * 20e-6, lab_->unit_cage().center.z};
  EXPECT_LT((lab_->bodies()[static_cast<std::size_t>(bidx)].position - trap).norm(),
            kHeldRadius);
}

// ------------------------------------------------------------------ defects ----

TEST(Defects, CleanMapFullyUsable) {
  const chip::ElectrodeArray array(32, 32, 20e-6);
  const chip::DefectMap map(array);
  EXPECT_EQ(map.defect_count(), 0u);
  EXPECT_DOUBLE_EQ(chip::usable_cage_fraction(array, map), 1.0);
}

TEST(Defects, SampleDensityMatchesProbability) {
  const chip::ElectrodeArray array(128, 128, 20e-6);
  Rng rng(5);
  const chip::DefectMap map = chip::sample_defects(array, 0.01, rng);
  const double rate =
      static_cast<double>(map.defect_count()) / static_cast<double>(array.electrode_count());
  EXPECT_NEAR(rate, 0.01, 0.003);
}

TEST(Defects, DefectKillsOnlyNeighborhood) {
  const chip::ElectrodeArray array(32, 32, 20e-6);
  chip::DefectMap map(array);
  map.set_state({16, 16}, chip::PixelState::kDead);
  EXPECT_FALSE(chip::site_usable(array, map, {16, 16}));
  EXPECT_FALSE(chip::site_usable(array, map, {17, 16}));  // ring touches defect
  EXPECT_TRUE(chip::site_usable(array, map, {18, 16}));
  EXPECT_TRUE(chip::site_usable(array, map, {16, 20}));
}

TEST(Defects, EdgeSitesNeedFullRing) {
  const chip::ElectrodeArray array(8, 8, 20e-6);
  const chip::DefectMap map(array);
  EXPECT_FALSE(chip::site_usable(array, map, {0, 0}));  // no closed wall at edge
  EXPECT_TRUE(chip::site_usable(array, map, {1, 1}));
}

TEST(Defects, GracefulDegradationBeatsAllGoodYield) {
  // The architectural point: at a defect rate that would yield ~0 perfect
  // dies, the array still offers >90% of its cage sites.
  const chip::ElectrodeArray array(320, 320, 20e-6);
  const double p = 1e-5;  // 1 defect per 100k pixels
  EXPECT_LT(chip::all_good_yield(array, p), 0.40);
  EXPECT_GT(chip::expected_usable_fraction(p), 0.9999);
  Rng rng(7);
  const chip::DefectMap map = chip::sample_defects(array, 1e-3, rng);
  const double usable = chip::usable_cage_fraction(array, map);
  EXPECT_NEAR(usable, chip::expected_usable_fraction(1e-3), 0.01);
}

// blocked_site_mask computes site_usable's (2·ring+1)² window as a row then a
// column dilation plus the edge rule; it must match the per-site definition
// byte for byte, on grids narrower than the window too (every site blocked).
TEST(Defects, BlockedMaskMatchesPerSiteUsability) {
  Rng rng(0xB10C);
  std::size_t sites = 0, blocked = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const int ring = trial % 4;
    const int cols = 1 + static_cast<int>(rng.uniform_int(0, 15));
    const int rows = 1 + static_cast<int>(rng.uniform_int(0, 15));
    const chip::ElectrodeArray array(cols, rows, 20e-6);
    const double p = 0.02 * static_cast<double>(trial % 6);  // 0 .. 0.1
    const chip::DefectMap map = chip::sample_defects(array, p, rng);
    const std::vector<std::uint8_t> mask = chip::blocked_site_mask(array, map, ring);
    ASSERT_EQ(mask.size(), array.electrode_count());
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) {
        const std::uint8_t expect = chip::site_usable(array, map, {c, r}, ring) ? 0 : 1;
        ASSERT_EQ(mask[static_cast<std::size_t>(r * cols + c)], expect)
            << "trial " << trial << " (" << cols << "x" << rows << ", ring " << ring
            << ") site {" << c << "," << r << "}";
        ++sites;
        blocked += expect;
      }
  }
  EXPECT_GT(blocked, sites / 10);
  EXPECT_LT(blocked, sites - sites / 10);
}

TEST(Defects, ExpectedFractionMonotonicInRing) {
  EXPECT_GT(chip::expected_usable_fraction(0.01, 1),
            chip::expected_usable_fraction(0.01, 2));
}

// ---------------------------------------------------------- hydraulic network ----

class NetworkTest : public ::testing::Test {
 protected:
  physics::Medium medium_ = physics::dep_buffer();
};

TEST_F(NetworkTest, ChannelResistanceFormula) {
  // 1 mm x 300 µm x 100 µm channel in water-like medium.
  const double r = fluidic::channel_resistance(medium_, 1e-3, 300e-6, 100e-6);
  const double expect = 12.0 * medium_.viscosity * 1e-3 /
                        (300e-6 * 1e-12 * (1.0 - 0.63 * 100.0 / 300.0));
  EXPECT_NEAR(r, expect, expect * 1e-12);
  EXPECT_THROW(fluidic::channel_resistance(medium_, 1e-3, 100e-6, 300e-6),
               PreconditionError);  // height > width
}

TEST_F(NetworkTest, SeriesChannelsAddResistance) {
  fluidic::HydraulicNetwork net(medium_);
  const int in = net.add_node("in");
  const int mid = net.add_node("mid");
  const int out = net.add_node("out");
  net.add_channel(in, mid, 1e-3, 300e-6, 100e-6);
  net.add_channel(mid, out, 1e-3, 300e-6, 100e-6);
  net.set_pressure(in, 1000.0);
  net.set_pressure(out, 0.0);
  const auto sol = net.solve();
  EXPECT_NEAR(sol.node_pressure[static_cast<std::size_t>(mid)], 500.0, 1e-6);
  EXPECT_NEAR(sol.channel_flow[0], sol.channel_flow[1], 1e-18);  // continuity
  const double r = fluidic::channel_resistance(medium_, 1e-3, 300e-6, 100e-6);
  EXPECT_NEAR(sol.channel_flow[0], 1000.0 / (2.0 * r), 1000.0 / (2.0 * r) * 1e-9);
}

TEST_F(NetworkTest, ParallelChannelsSplitFlowByConductance) {
  fluidic::HydraulicNetwork net(medium_);
  const int in = net.add_node("in");
  const int out = net.add_node("out");
  net.add_channel(in, out, 1e-3, 300e-6, 100e-6, "wide");
  net.add_channel(in, out, 1e-3, 300e-6, 50e-6, "thin");  // h³ → ~8x resistive
  net.set_pressure(in, 1000.0);
  net.set_pressure(out, 0.0);
  const auto sol = net.solve();
  EXPECT_GT(sol.channel_flow[0], 5.0 * sol.channel_flow[1]);
}

TEST_F(NetworkTest, FlowSourceRaisesPressure) {
  fluidic::HydraulicNetwork net(medium_);
  const int pump = net.add_node("pump");
  const int vent = net.add_node("vent");
  net.add_channel(pump, vent, 2e-3, 300e-6, 100e-6);
  net.set_pressure(vent, 0.0);
  const double q = 1e-9 / 60.0;  // 1 µl/min
  net.set_flow(pump, q);
  const auto sol = net.solve();
  const double r = fluidic::channel_resistance(medium_, 2e-3, 300e-6, 100e-6);
  EXPECT_NEAR(sol.node_pressure[static_cast<std::size_t>(pump)], q * r, q * r * 1e-9);
  EXPECT_NEAR(net.mean_velocity(sol, 0), q / (300e-6 * 100e-6), 1e-9);
}

TEST_F(NetworkTest, MassConservationOnBranchingNetwork) {
  // in → junction → two outlets; net flow at the junction must vanish.
  fluidic::HydraulicNetwork net(medium_);
  const int in = net.add_node("in");
  const int j = net.add_node("junction");
  const int o1 = net.add_node("out1");
  const int o2 = net.add_node("out2");
  net.add_channel(in, j, 1e-3, 300e-6, 100e-6);
  net.add_channel(j, o1, 2e-3, 300e-6, 100e-6);
  net.add_channel(j, o2, 3e-3, 300e-6, 80e-6);
  net.set_pressure(in, 500.0);
  net.set_pressure(o1, 0.0);
  net.set_pressure(o2, 0.0);
  const auto sol = net.solve();
  EXPECT_NEAR(sol.channel_flow[0], sol.channel_flow[1] + sol.channel_flow[2],
              std::fabs(sol.channel_flow[0]) * 1e-9);
}

TEST_F(NetworkTest, MissingReferenceThrows) {
  fluidic::HydraulicNetwork net(medium_);
  const int a = net.add_node("a");
  const int b = net.add_node("b");
  net.add_channel(a, b, 1e-3, 300e-6, 100e-6);
  EXPECT_THROW(net.solve(), ConfigError);
}

// ------------------------------------------------------------ two-shell cell ----

TEST(TwoShell, TransparentNucleusMatchesSingleShell) {
  // Nucleus with cytoplasm properties must not change the spectrum.
  cell::ParticleSpec base = cell::viable_lymphocyte();
  cell::ParticleSpec nucleated = base;
  nucleated.dielectric.nucleus = nucleated.dielectric.body;
  nucleated.dielectric.nucleus_radius_fraction = 0.5;
  const physics::Medium m = physics::dep_buffer();
  for (double f = 1e4; f <= 1e8; f *= 10.0)
    EXPECT_NEAR(nucleated.re_k(m, f), base.re_k(m, f), 1e-9) << f;
}

TEST(TwoShell, NucleusShiftsHighFrequencyResponse) {
  const cell::ParticleSpec plain = cell::viable_lymphocyte();
  const cell::ParticleSpec nucleated = cell::nucleated_lymphocyte();
  const physics::Medium m = physics::dep_buffer();
  // Below the membrane crossover both look alike (membrane dominates)...
  EXPECT_NEAR(nucleated.re_k(m, 20e3), plain.re_k(m, 20e3), 0.05);
  // ...above it, the conductive nucleus raises Re K.
  bool differs = false;
  for (double f = 1e6; f <= 1e8; f *= 3.0)
    if (std::fabs(nucleated.re_k(m, f) - plain.re_k(m, f)) > 0.01) differs = true;
  EXPECT_TRUE(differs);
}

TEST(TwoShell, InvalidNucleusFractionThrows) {
  cell::ParticleSpec s = cell::nucleated_lymphocyte();
  s.dielectric.nucleus_radius_fraction = 1.5;
  const physics::Medium m = physics::dep_buffer();
  EXPECT_THROW(s.re_k(m, 1e6), PreconditionError);
}

TEST(TwoShell, NucleatedCellStillSortsViable) {
  // The viability sort frequency still sees the nucleated cell as nDEP.
  const physics::Medium m = physics::dep_buffer();
  EXPECT_LT(cell::nucleated_lymphocyte().re_k(m, 100e3), 0.0);
}

// ------------------------------------------------------------ optical frames ----

class OpticalFrameTest : public ::testing::Test {
 protected:
  chip::ElectrodeArray array_{32, 32, 20.0e-6};
  sensor::OpticalPixel pixel_ = [] {
    sensor::OpticalPixel px;
    px.photodiode_area = 10e-6 * 10e-6;
    return px;
  }();
  sensor::OpticalFrameSynthesizer synth_{array_, pixel_};
};

TEST_F(OpticalFrameTest, ShadowIsNegativeAtParticle) {
  const Grid2 f = synth_.ideal_frame({{{320e-6, 320e-6, 6e-6}, 5e-6}});
  const GridCoord at = array_.nearest({320e-6, 320e-6});
  EXPECT_LT(f.at(static_cast<std::size_t>(at.col), static_cast<std::size_t>(at.row)),
            0.0);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 0.0);
}

TEST_F(OpticalFrameTest, AveragingShrinksShotNoise) {
  Rng rng(3);
  RunningStats s1, s16;
  for (int rep = 0; rep < 6; ++rep) {
    // Bind the frames before iterating: ranging over `temporary.data()`
    // destroys the Grid2 after the range-init (pre-C++23 lifetime rules) —
    // a stack-use-after-scope the ASan CI job flagged.
    const Grid2 noisy = synth_.noisy_frame({}, rng);
    for (double v : noisy.data()) s1.add(v);
    const Grid2 averaged = synth_.averaged_frame({}, rng, 16);
    for (double v : averaged.data()) s16.add(v);
  }
  EXPECT_NEAR(s1.stddev() / s16.stddev(), 4.0, 0.6);
}

TEST_F(OpticalFrameTest, DetectorFindsShadowedCell) {
  Rng rng(4);
  const Grid2 frame = synth_.averaged_frame({{{320e-6, 320e-6, 6e-6}, 5e-6}}, rng, 16);
  const double sigma = synth_.noise_sigma() / 4.0;
  const auto dets = sensor::detect_threshold(frame, array_, 5.0 * sigma);
  const auto stats = sensor::match_detections({{320e-6, 320e-6}}, dets, 30e-6);
  EXPECT_EQ(stats.true_positives, 1);
}

// ---------------------------------------------------------------- centering ----

TEST(Centering, ExactEvaluatorConvergesToOptimum) {
  flow::CenteringProblem prob{0.0, 1.0, 0.37, 1.0};
  flow::EvaluatorModel exact{0.0, 0.0, 60.0, 1.0};
  Rng rng(1);
  const flow::CenteringOutcome out = flow::center_design(prob, exact, 30, rng);
  EXPECT_LT(out.design_error, 1e-3);
  EXPECT_EQ(out.evaluations, 30);
  EXPECT_NEAR(out.time, 30.0 * 60.0, 1e-9);
}

TEST(Centering, BiasedEvaluatorHitsErrorFloor) {
  flow::CenteringProblem prob{0.0, 1.0, 0.37, 1.0};
  flow::EvaluatorModel biased = flow::fluidic_simulation_evaluator();
  Rng rng(2);
  RunningStats err;
  for (int t = 0; t < 40; ++t) {
    Rng trial = rng.split();
    err.add(flow::center_design(prob, biased, 40, trial).design_error);
  }
  // Unlimited budget cannot beat the bias.
  EXPECT_NEAR(err.mean(), std::fabs(biased.bias), 0.04);
}

TEST(Centering, HybridBeatsEqualBuildCountAndEightBuilds) {
  // Well-conditioned problem (quality swing >> noise): at the same number of
  // experimental chip builds, pre-shrinking with biased simulation reduces
  // the residual error; it also beats 8 builds alone on wall time.
  flow::CenteringProblem prob{0.0, 1.0, 0.37, 10.0};
  const flow::EvaluatorModel sim = flow::fluidic_simulation_evaluator();
  const flow::EvaluatorModel exp_ev = flow::fluidic_experiment_evaluator();
  Rng rng(3);
  RunningStats err_hybrid, err_exp6, time_hybrid, time_exp8;
  for (int t = 0; t < 120; ++t) {
    Rng r1 = rng.split(), r2 = rng.split(), r3 = rng.split();
    const auto hybrid = flow::center_design_hybrid(prob, sim, exp_ev, 20, 6, r1);
    const auto exp6 = flow::center_design(prob, exp_ev, 6, r2);
    const auto exp8 = flow::center_design(prob, exp_ev, 8, r3);
    err_hybrid.add(hybrid.design_error);
    err_exp6.add(exp6.design_error);
    time_hybrid.add(hybrid.time);
    time_exp8.add(exp8.time);
  }
  EXPECT_LT(err_hybrid.mean(), err_exp6.mean());
  EXPECT_LT(time_hybrid.mean(), time_exp8.mean());
}

TEST(Centering, InvalidBudgetThrows) {
  flow::CenteringProblem prob{0.0, 1.0, 0.5, 1.0};
  Rng rng(4);
  EXPECT_THROW(flow::center_design(prob, {}, 1, rng), PreconditionError);
}

}  // namespace
}  // namespace biochip
