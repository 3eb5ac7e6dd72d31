// Edge-case tests for utility corners not covered elsewhere: table/SI
// formatting, geometry printing, timing and scan boundaries.

#include <gtest/gtest.h>

#include <sstream>

#include "chip/timing.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "sensor/capacitive.hpp"
#include "sensor/scan.hpp"

namespace biochip {
namespace {

using namespace biochip::units;

TEST(Geometry, StreamOperators) {
  std::ostringstream os;
  os << Vec2{1.5, -2.0} << " " << Vec3{1, 2, 3} << " " << GridCoord{4, 5};
  EXPECT_EQ(os.str(), "(1.5, -2) (1, 2, 3) [4, 5]");
}

TEST(Table, SiFormatHandlesZeroNegativeAndExtremes) {
  EXPECT_EQ(si_format(0.0, "V"), "0 V");
  EXPECT_EQ(si_format(-2e-5, "m", 3), "-20 um");
  // Below all prefixes: falls back to scientific notation.
  const std::string tiny = si_format(1e-21, "F", 2);
  EXPECT_NE(tiny.find("e-"), std::string::npos);
}

TEST(Table, FmtSwitchesToScientificOutsideComfortRange) {
  EXPECT_NE(fmt(1.23e8, 3).find("e+"), std::string::npos);
  EXPECT_NE(fmt(1.23e-7, 3).find("e-"), std::string::npos);
  EXPECT_EQ(fmt(12.5, 2), "12.50");
}

TEST(Table, EmptyHeaderListRejected) {
  EXPECT_THROW(Table({}), PreconditionError);
}

TEST(Table, CellBeforeRowRejected) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), PreconditionError);
}

TEST(Table, BannerContainsTitle) {
  std::ostringstream os;
  print_banner(os, "hello");
  EXPECT_NE(os.str().find("hello"), std::string::npos);
}

TEST(Timing, PatternRateDegenerateInputs) {
  chip::ProgrammingModel pm;
  // Zero dirty pixels: rate saturates at the clock itself.
  EXPECT_DOUBLE_EQ(pm.pattern_rate(0), pm.clock_frequency);
  EXPECT_GT(pm.incremental_program_time(1), 0.0);
}

TEST(Scan, SingleFrameBudgetAtHighSpeed) {
  // Very fast cells leave no time for even one frame on a huge array.
  sensor::ScanTiming scan;
  chip::ElectrodeArray huge(1024, 1024, 20.0_um);
  EXPECT_EQ(scan.max_frames_within_transit(huge, 1000e-6), 0u);
}

TEST(Capacitive, SensingDepthScalesWithPixel) {
  sensor::CapacitivePixel small;
  small.electrode_area = 8.0_um * 8.0_um;
  small.chamber_height = 100.0_um;
  sensor::CapacitivePixel big = small;
  big.electrode_area = 32.0_um * 32.0_um;
  EXPECT_NEAR(big.sensing_depth() / small.sensing_depth(), 4.0, 1e-9);
}

TEST(Capacitive, FillFactorSaturatesForGiantParticles) {
  sensor::CapacitivePixel px;
  px.electrode_area = 16.0_um * 16.0_um;
  px.chamber_height = 100.0_um;
  // A particle far larger than the sensing volume cannot displace more than
  // all of it: |dC| is bounded by baseline * contrast.
  const double bound = px.baseline_capacitance() *
                       (px.medium_eps_r - px.particle_eps_r) / px.medium_eps_r;
  EXPECT_LE(std::fabs(px.delta_c(100.0_um, 100.0_um, 0.0)), bound + 1e-21);
}

TEST(Units, CurrencyAndForceLiterals) {
  EXPECT_DOUBLE_EQ(2.5_keur, 2500.0);
  EXPECT_DOUBLE_EQ(3.0_pN, 3e-12);
  EXPECT_DOUBLE_EQ(1.0_fN, 1e-15);
}

}  // namespace
}  // namespace biochip
