// Cross-module integration tests: full paper-claim scenarios wired through
// the public API, mirroring what the examples and benches do.

#include <gtest/gtest.h>

#include <cmath>

#include "cad/benchmarks.hpp"
#include "cell/library.hpp"
#include "chip/device.hpp"
#include "common/units.hpp"
#include "control/platform.hpp"
#include "flow/montecarlo.hpp"
#include "fluidic/fabrication.hpp"
#include "fluidic/packaging.hpp"
#include "physics/dep.hpp"
#include "physics/levitation.hpp"
#include "sensor/capacitive.hpp"
#include "sensor/scan.hpp"

namespace biochip {
namespace {

using namespace biochip::units;

// C1: the full-scale device hosts a levitated cell in every lattice cage.
TEST(Integration, ClaimC1_PaperScaleDeviceLevitatesCells) {
  const chip::BiochipDevice dev = chip::paper_device();
  ASSERT_GT(dev.array().electrode_count(), 100000u);
  ASSERT_NEAR(dev.chamber_volume() * 1e9, 4.1, 0.3);  // µl
  ASSERT_GT(dev.cage_capacity(2), 20000u);

  const field::HarmonicCage cage = dev.calibrate_cage(5, 6);
  const physics::Medium medium = physics::dep_buffer();
  const cell::ParticleSpec cell = cell::viable_lymphocyte();
  const double prefactor = cell.dep_prefactor(medium, dev.config().drive_frequency);
  ASSERT_LT(prefactor, 0.0);
  const physics::LevitationResult lev =
      physics::levitation_equilibrium(cage, prefactor, medium, cell.radius, cell.density);
  EXPECT_TRUE(lev.stable);
  EXPECT_GT(lev.height, 10.0_um);
}

// C2: on the same floorplan, an older node out-pulls a newer one.
TEST(Integration, ClaimC2_OlderNodeYieldsStrongerTraps) {
  const chip::CmosNode old_node = chip::node_by_name("0.35um");
  const chip::CmosNode new_node = chip::node_by_name("0.13um");
  const chip::BiochipDevice old_dev(chip::paper_config_on_node(old_node));
  const chip::BiochipDevice new_dev(chip::paper_config_on_node(new_node));
  const field::HarmonicCage old_cage = old_dev.calibrate_cage(5, 6);
  const field::HarmonicCage new_cage = new_dev.calibrate_cage(5, 6);

  const physics::Medium medium = physics::dep_buffer();
  const cell::ParticleSpec cell = cell::viable_lymphocyte();
  const double pref = cell.dep_prefactor(medium, 100.0_kHz);
  const double v_old =
      physics::max_tow_speed(old_cage, pref, 30.0_um, medium, cell.radius);
  const double v_new =
      physics::max_tow_speed(new_cage, pref, 30.0_um, medium, cell.radius);
  // (3.3/1.2)² ≈ 7.6× stronger actuation on the older node.
  EXPECT_GT(v_old, 5.0 * v_new);
  // Both nodes fit the pixel easily — lithography is not the constraint.
  EXPECT_TRUE(old_dev.pixel_fits());
  EXPECT_TRUE(new_dev.pixel_fits());
}

// C3: electronics (program + scan) fit thousands of times into one
// cell-transit interval.
TEST(Integration, ClaimC3_ElectronicsVsMassTransfer) {
  const chip::BiochipDevice dev = chip::paper_device();
  const chip::ProgrammingModel pm = dev.config().programming;
  const sensor::ScanTiming scan;
  for (double speed : {10e-6, 100e-6}) {
    const double transit = chip::pitch_transit_time(dev.array().pitch(), speed);
    EXPECT_GT(transit / pm.full_program_time(dev.array()), 50.0);
    EXPECT_GT(transit / scan.frame_time(dev.array()), 10.0);
  }
}

// C4: averaging within the transit budget lifts a marginal cell above the
// detection threshold.
TEST(Integration, ClaimC4_AveragingBuysDetection) {
  const chip::BiochipDevice dev = chip::paper_device();
  sensor::CapacitivePixel px;
  px.electrode_area = dev.array().footprint({0, 0}).area();
  px.chamber_height = dev.config().chamber_height;
  px.sense_voltage = dev.drive_amplitude();
  const sensor::ScanTiming scan;

  const double r = 2.5e-6, z = 2.6e-6, temp = 298.15;
  const double snr1 = px.single_frame_snr(r, z, temp);
  ASSERT_LT(snr1, 5.0);  // marginal single-frame
  const std::size_t budget = scan.max_frames_within_transit(dev.array(), 50e-6);
  ASSERT_GE(budget, 4u);
  const std::size_t needed = sensor::frames_for_snr(px, r, z, temp, 5.0);
  EXPECT_LE(needed, budget * 40);  // reachable while the cell crawls a few pitches
  EXPECT_GT(px.averaged_snr(r, z, temp, needed), 5.0 - 1e-9);
}

// C5: each habitat picks its own flow.
TEST(Integration, ClaimC5_FlowsWinInTheirHabitats) {
  const flow::FlowComparison cmos = flow::compare_flows(flow::cmos_flow_parameters(), 800, 3);
  const flow::FlowComparison fluid =
      flow::compare_flows(flow::fluidic_flow_parameters(), 800, 5);
  EXPECT_EQ(cmos.faster, flow::FlowKind::kSimulateFirst);
  EXPECT_EQ(fluid.faster, flow::FlowKind::kFabricateFirst);
}

// C6 + Fig. 3: the dry-film package assembles the paper's chamber and the
// process plan matches the published economics.
TEST(Integration, ClaimC6_DryFilmPackageOnCmosDie) {
  fluidic::PackageSpec spec;
  spec.die_width = 8.0_mm;
  spec.die_height = 8.0_mm;
  spec.active_width = 6.4_mm;
  spec.active_height = 6.4_mm;
  spec.resist_thickness = 100.0_um;
  const fluidic::AssembledDevice assembled =
      fluidic::assemble(spec, fluidic::AssemblyYield{});
  ASSERT_TRUE(assembled.feasible);

  fluidic::FluidicMask mask("paper_chamber");
  mask.add_rect("chamber", fluidic::FeatureKind::kChamber,
                {{0.8_mm, 0.8_mm}, {7.2_mm, 7.2_mm}}, 0);
  mask.add_port("inlet", {0.4_mm, 4.0_mm}, 600.0_um, 0);
  const fluidic::FabricationReport report = fluidic::plan_fabrication(
      mask, fluidic::dry_film_resist(), 20, spec.resist_thickness, /*on_cmos_die=*/true);
  EXPECT_TRUE(report.feasible);
  EXPECT_LE(report.turnaround, 3.0_day);
  // Masks are "few euros": NRE is dominated by the reusable setup.
  EXPECT_LT(report.nre_cost - fluidic::dry_film_resist().setup_cost, 20.0_eur);
}

// Platform-level single-cell workflow: load -> image -> trap -> move -> verify.
TEST(Integration, SingleCellWorkflowEndToEnd) {
  control::PlatformConfig cfg = control::PlatformConfig::paper_defaults();
  cfg.device.cols = 48;
  cfg.device.rows = 48;
  cfg.seed = 2024;
  control::LabOnChipPlatform lab(cfg);
  lab.load_sample({{cell::viable_lymphocyte(), 4, 0.05}});

  // Image with enough averaging for clean detection.
  const auto detections = lab.detect_cells(64);
  EXPECT_GE(detections.size(), 3u);

  // Trap every cell and park them on a 4-separated lattice row.
  int moved = 0;
  int lane = 4;
  for (const cell::Instance& inst : lab.sample()) {
    const auto cage = lab.trap_cell(inst.id);
    if (!cage) continue;
    const GridCoord dest{lane, 24};
    lane += 4;
    const control::MoveResult mv = lab.move_cell(*cage, dest);
    if (mv.success) ++moved;
  }
  EXPECT_GE(moved, 2);
}

// CAD + platform: an assay's transport clock is the cage speed, and the
// paper-scale array synthesizes the whole benchmark suite.
TEST(Integration, AssaySynthesisOnPaperArray) {
  control::PlatformConfig cfg = control::PlatformConfig::paper_defaults();
  cfg.device.cols = 128;  // quarter array keeps the test fast
  cfg.device.rows = 128;
  control::LabOnChipPlatform lab(cfg);
  for (const cad::AssayGraph& assay : cad::benchmark_suite()) {
    const cad::SynthesisResult r = lab.run_assay(assay, cad::ChipResources{6, 0, 4});
    EXPECT_TRUE(r.success) << assay.name();
    EXPECT_GT(r.total_time, r.processing_makespan) << assay.name();
  }
}

// Determinism across the whole stack: identical seeds, identical outcomes.
TEST(Integration, FullStackDeterminism) {
  auto run_once = []() {
    control::PlatformConfig cfg = control::PlatformConfig::paper_defaults();
    cfg.device.cols = 32;
    cfg.device.rows = 32;
    cfg.seed = 555;
    control::LabOnChipPlatform lab(cfg);
    lab.load_sample({{cell::viable_lymphocyte(), 3, 0.05}});
    const auto cage = lab.trap_cell(1);
    if (!cage) return Vec3{};
    const GridCoord from = lab.cages().site(*cage);
    const GridCoord to{from.col < 16 ? from.col + 6 : from.col - 6, from.row};
    lab.move_cell(*cage, to);
    return lab.bodies()[1].position;
  };
  const Vec3 a = run_once();
  const Vec3 b = run_once();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace biochip
