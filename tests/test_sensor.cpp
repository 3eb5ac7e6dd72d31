// Tests for the sensor library: capacitive/optical pixel models, scan
// timing, frame synthesis (offsets, CDS, averaging), detection, and the
// law-drawn sparse sense against the dense sequence.
//
// BIOCHIP_LONGFUZZ=<n> multiplies the sparse-sense harness's case count (the
// `longfuzz` ctest label runs with n=10).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sensor/capacitive.hpp"
#include "sensor/detect.hpp"
#include "sensor/frame.hpp"
#include "sensor/optical.hpp"
#include "sensor/scan.hpp"

namespace biochip::sensor {
namespace {

using namespace biochip::units;

CapacitivePixel paper_pixel() {
  CapacitivePixel px;
  px.electrode_area = 16.0_um * 16.0_um;
  px.chamber_height = 100.0_um;
  px.sense_voltage = 3.3;
  return px;
}

// ------------------------------------------------------------ capacitive ----

TEST(Capacitive, BaselineIsSeriesCombination) {
  const CapacitivePixel px = paper_pixel();
  const double c = px.baseline_capacitance();
  // fF scale for a 16 µm electrode through 100 µm of water.
  EXPECT_GT(c, 0.1e-15);
  EXPECT_LT(c, 100e-15);
  // Series: less than either plate alone.
  const double c_liquid =
      px.medium_eps_r * constants::epsilon0 * px.electrode_area / px.chamber_height;
  EXPECT_LT(c, c_liquid);
}

TEST(Capacitive, DeltaCNegativeAndMonotonicInRadius) {
  const CapacitivePixel px = paper_pixel();
  double prev = 0.0;
  for (double r : {1e-6, 2e-6, 4e-6, 8e-6}) {
    const double d = px.delta_c(r, r * 1.05, 0.0);
    EXPECT_LT(d, 0.0) << r;
    EXPECT_LT(d, prev) << r;  // more negative with size
    prev = d;
  }
}

TEST(Capacitive, DeltaCDecaysWithHeightAndLateralOffset) {
  const CapacitivePixel px = paper_pixel();
  const double near = std::fabs(px.delta_c(5e-6, 6e-6, 0.0));
  const double high = std::fabs(px.delta_c(5e-6, 30e-6, 0.0));
  const double aside = std::fabs(px.delta_c(5e-6, 6e-6, 15e-6));
  EXPECT_GT(near, high);
  EXPECT_GT(near, aside);
}

// The window walk computes each target's amplitude once and multiplies it by
// each pixel's lateral falloff. Over random radii, heights (on the floor up
// to the lid) and lateral offsets that product must be the very double the
// one-call formula gives, in its product order: −C₀·contrast·fill·vertical,
// then ·falloff.
TEST(Capacitive, TargetSignalTimesFalloffIsDeltaCBitwise) {
  const CapacitivePixel px = paper_pixel();
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const double r = rng.uniform(0.5e-6, 12e-6);
    const double z = rng.uniform(r, 100e-6);
    const double lateral = rng.uniform(0.0, 60e-6);
    const double lambda = px.sensing_depth();
    double fill = (4.0 / 3.0) * constants::pi * r * r * r / (px.electrode_area * lambda);
    if (fill > 1.0) fill = 1.0;
    const double vertical = std::exp(-std::max(z - r, 0.0) / lambda);
    const double half_width = 0.5 * std::sqrt(px.electrode_area);
    const double lat = std::exp(-0.5 * (lateral / half_width) * (lateral / half_width));
    const double contrast = (px.medium_eps_r - px.particle_eps_r) / px.medium_eps_r;
    const double reference = -px.baseline_capacitance() * contrast * fill * vertical * lat;
    ASSERT_EQ(px.target_signal(r, z).at(lateral), reference) << r << " " << z << " " << lateral;
    ASSERT_EQ(px.delta_c(r, z, lateral), reference);
  }
}

TEST(Capacitive, NoiseSigmaHasAmplifierFloor) {
  CapacitivePixel px = paper_pixel();
  const double sigma = px.frame_noise_sigma(298.15);
  EXPECT_GE(sigma, px.amp_noise_charge / px.sense_voltage);
  px.amp_noise_charge = 0.0;
  EXPECT_GT(px.frame_noise_sigma(298.15), 0.0);  // kT/C term remains
}

TEST(Capacitive, HigherSenseVoltageBuysSnr) {
  // Claim C2's sensing half: ΔC-referred noise falls as 1/V.
  CapacitivePixel hi = paper_pixel();   // 3.3 V
  CapacitivePixel lo = paper_pixel();
  lo.sense_voltage = 1.0;
  EXPECT_NEAR(hi.single_frame_snr(5e-6, 6e-6, 298.15) /
                  lo.single_frame_snr(5e-6, 6e-6, 298.15),
              3.3, 1e-9);
}

TEST(Capacitive, AveragedSnrFollowsSqrtN) {
  // Claim C4's law: SNR(N) = SNR(1)·√N.
  const CapacitivePixel px = paper_pixel();
  const double s1 = px.averaged_snr(5e-6, 6e-6, 298.15, 1);
  const double s16 = px.averaged_snr(5e-6, 6e-6, 298.15, 16);
  const double s256 = px.averaged_snr(5e-6, 6e-6, 298.15, 256);
  EXPECT_NEAR(s16 / s1, 4.0, 1e-9);
  EXPECT_NEAR(s256 / s1, 16.0, 1e-9);
}

TEST(Capacitive, FramesForSnrInvertsTheLaw) {
  const CapacitivePixel px = paper_pixel();
  const double s1 = px.single_frame_snr(2e-6, 2.2e-6, 298.15);
  const std::size_t n = frames_for_snr(px, 2e-6, 2.2e-6, 298.15, 5.0 * s1);
  EXPECT_GE(n, 25u);
  EXPECT_LE(n, 26u);
  EXPECT_EQ(frames_for_snr(px, 10e-6, 10.5e-6, 298.15, 1e-6), 1u);
}

class AveragingLawTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AveragingLawTest, SnrScalesExactly) {
  const CapacitivePixel px = paper_pixel();
  const std::size_t n = GetParam();
  EXPECT_NEAR(px.averaged_snr(5e-6, 6e-6, 298.15, n),
              px.single_frame_snr(5e-6, 6e-6, 298.15) * std::sqrt(double(n)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PowersOfFour, AveragingLawTest,
                         ::testing::Values(1u, 4u, 16u, 64u, 256u, 1024u, 4096u));

// --------------------------------------------------------------- optical ----

TEST(Optical, BaselineAndShadowSigns) {
  OpticalPixel px;
  px.photodiode_area = 10.0_um * 10.0_um;
  EXPECT_GT(px.baseline_current(), 0.0);
  EXPECT_GT(px.delta_current(5e-6, 0.0), 0.0);
  EXPECT_LT(px.delta_current(5e-6, 20e-6), px.delta_current(5e-6, 0.0));
}

TEST(Optical, ShadowSaturatesAtPixelArea) {
  OpticalPixel px;
  px.photodiode_area = 10.0_um * 10.0_um;
  const double huge = px.delta_current(50e-6, 0.0);
  const double expected_cap =
      px.responsivity * px.irradiance * px.photodiode_area * px.shadow_contrast;
  EXPECT_NEAR(huge, expected_cap, expected_cap * 1e-9);
}

TEST(Optical, SnrImprovesWithIntegrationAndAveraging) {
  OpticalPixel px;
  px.photodiode_area = 10.0_um * 10.0_um;
  const double s1 = px.single_frame_snr(5e-6);
  EXPECT_GT(s1, 0.0);
  EXPECT_NEAR(px.averaged_snr(5e-6, 9) / s1, 3.0, 1e-9);
  OpticalPixel longer = px;
  longer.integration_time = 4.0 * px.integration_time;
  // Signal ∝ T, noise ∝ √T → SNR ∝ √T... here noise charge = sqrt(2qI·T/2):
  EXPECT_NEAR(longer.single_frame_snr(5e-6) / s1, 2.0, 1e-6);
}

// ------------------------------------------------------------------ scan ----

TEST(Scan, FrameTimeScalesWithArray) {
  ScanTiming scan;
  chip::ElectrodeArray small(64, 64, 20.0_um), large(320, 320, 20.0_um);
  EXPECT_LT(scan.frame_time(small), scan.frame_time(large));
  EXPECT_GT(scan.frame_rate(small), scan.frame_rate(large));
}

TEST(Scan, PaperArrayFrameRateAboveVideoRate) {
  // 102k pixels over 8 ADCs at 1 Msps -> ~70 fps: sensor readout is not the
  // bottleneck (claim C3/C4 coupling).
  ScanTiming scan;
  chip::ElectrodeArray a(320, 320, 20.0_um);
  EXPECT_GT(scan.frame_rate(a), 25.0);
}

TEST(Scan, MaxFramesWithinTransitBudget) {
  ScanTiming scan;
  chip::ElectrodeArray a(320, 320, 20.0_um);
  const std::size_t n = scan.max_frames_within_transit(a, 50e-6);
  EXPECT_GE(n, 10u);   // plenty of averaging during one pitch transit
  EXPECT_LE(n, 1000u);
  // Faster cells leave less time.
  EXPECT_LT(scan.max_frames_within_transit(a, 100e-6), n);
}

TEST(Scan, AcquisitionTimeLinearInFrames) {
  ScanTiming scan;
  chip::ElectrodeArray a(64, 64, 20.0_um);
  EXPECT_NEAR(scan.acquisition_time(a, 10), 10.0 * scan.frame_time(a), 1e-12);
}

// ----------------------------------------------------------------- frame ----

class FrameTest : public ::testing::Test {
 protected:
  chip::ElectrodeArray array_{32, 32, 20.0e-6};
  FrameSynthesizer synth_{array_, paper_pixel(), 298.15, 77};
  std::vector<FrameTarget> one_cell_{{{320.0e-6, 320.0e-6, 6.0e-6}, 5.0e-6}};
};

TEST_F(FrameTest, IdealFrameSignalAtParticlePixel) {
  const Grid2 f = synth_.ideal_frame(one_cell_);
  const GridCoord at = array_.nearest({320.0e-6, 320.0e-6});
  EXPECT_LT(f.at(static_cast<std::size_t>(at.col), static_cast<std::size_t>(at.row)), 0.0);
  // Far corner is clean.
  EXPECT_DOUBLE_EQ(f.at(0, 0), 0.0);
}

TEST_F(FrameTest, OffsetsAreDeterministicPerSeed) {
  const Grid2 offsets = synth_.offsets();
  const Grid2 again = FrameSynthesizer(array_, paper_pixel(), 298.15, 77).offsets();
  for (std::size_t n = 0; n < offsets.size(); ++n)
    EXPECT_DOUBLE_EQ(offsets.data()[n], again.data()[n]);
  FrameSynthesizer other(array_, paper_pixel(), 298.15, 78);
  EXPECT_NE(offsets.data()[0], other.offsets().data()[0]);
}

TEST_F(FrameTest, RawFrameIsIdealPlusOffsetsPlusNoiseBitwise) {
  // A raw read adds each pixel's fixed-pattern offset and one noise draw of
  // the caller's stream, so it is reproducible from its parts bit for bit,
  // and it leaves the caller's stream where the per-pixel draws end.
  Rng rng(9);
  Rng noise = rng;
  const Grid2 raw = synth_.raw_frame(one_cell_, rng);
  const Grid2 ideal = synth_.ideal_frame(one_cell_);
  const Grid2 offsets = synth_.offsets();
  const double sigma = paper_pixel().frame_noise_sigma(298.15);
  for (std::size_t n = 0; n < raw.size(); ++n) {
    double expected = ideal.data()[n];
    expected += offsets.data()[n] + noise.normal(0.0, sigma);
    ASSERT_EQ(std::memcmp(&raw.data()[n], &expected, sizeof(double)), 0) << "pixel " << n;
  }
  const double a = rng.normal(), b = noise.normal();
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
  EXPECT_EQ(rng(), noise());
}

TEST_F(FrameTest, CdsRemovesFixedPatternOffsets) {
  Rng rng(5);
  const Grid2 raw = synth_.raw_frame({}, rng);
  const Grid2 cds = synth_.cds_frame({}, rng);
  // Raw frame variance is dominated by the 3 fF offsets; CDS by ~40 aF noise.
  RunningStats raw_stats, cds_stats;
  for (double v : raw.data()) raw_stats.add(v);
  for (double v : cds.data()) cds_stats.add(v);
  EXPECT_GT(raw_stats.stddev(), 20.0 * cds_stats.stddev());
}

TEST_F(FrameTest, AveragingShrinksNoiseBySqrtN) {
  Rng rng(6);
  RunningStats s1, s64;
  for (int rep = 0; rep < 12; ++rep) {
    const Grid2 f1 = synth_.averaged_frame({}, rng, 1);
    const Grid2 f64 = synth_.averaged_frame({}, rng, 64);
    for (double v : f1.data()) s1.add(v);
    for (double v : f64.data()) s64.add(v);
  }
  EXPECT_NEAR(s1.stddev() / s64.stddev(), 8.0, 1.0);
}

TEST_F(FrameTest, InvalidTargetThrows) {
  EXPECT_THROW(synth_.ideal_frame({{{0, 0, 0}, 0.0}}), PreconditionError);
}

// ---------------------------------------------------------------- detect ----

class DetectTest : public ::testing::Test {
 protected:
  chip::ElectrodeArray array_{32, 32, 20.0e-6};
  CapacitivePixel pixel_ = paper_pixel();
  FrameSynthesizer synth_{array_, pixel_, 298.15, 99};

  std::vector<FrameTarget> targets_ = {
      {{100.0e-6, 100.0e-6, 6.0e-6}, 5.0e-6},
      {{420.0e-6, 180.0e-6, 6.0e-6}, 5.0e-6},
      {{300.0e-6, 520.0e-6, 6.0e-6}, 5.0e-6},
  };
  std::vector<Vec2> truth_ = {{100.0e-6, 100.0e-6}, {420.0e-6, 180.0e-6},
                              {300.0e-6, 520.0e-6}};
};

TEST_F(DetectTest, ThresholdFindsAllCellsInAveragedFrame) {
  Rng rng(7);
  const Grid2 frame = synth_.averaged_frame(targets_, rng, 64);
  const double sigma = synth_.cds_noise_sigma() / 8.0;
  const auto dets = detect_threshold(frame, array_, 6.0 * sigma);
  const MatchStats stats = match_detections(truth_, dets, 30e-6);
  EXPECT_EQ(stats.true_positives, 3);
  EXPECT_EQ(stats.false_negatives, 0);
  EXPECT_LE(stats.false_positives, 1);
  EXPECT_LT(stats.mean_localization_error, 15e-6);
}

TEST_F(DetectTest, SingleNoisyFrameMissesSmallCells) {
  // A 2 µm particle has single-frame SNR << 1: detection needs averaging.
  std::vector<FrameTarget> small{{{200.0e-6, 200.0e-6, 2.2e-6}, 2.0e-6}};
  Rng rng(8);
  const Grid2 one = synth_.cds_frame(small, rng);
  const double sigma = synth_.cds_noise_sigma();
  const auto dets1 = detect_threshold(one, array_, 5.0 * sigma);
  const MatchStats m1 = match_detections({{200.0e-6, 200.0e-6}}, dets1, 30e-6);
  EXPECT_EQ(m1.true_positives, 0);
  // 4096 averaged frames recover it.
  const Grid2 avg = synth_.averaged_frame(small, rng, 4096);
  const auto dets2 = detect_threshold(avg, array_, 5.0 * sigma / 64.0);
  const MatchStats m2 = match_detections({{200.0e-6, 200.0e-6}}, dets2, 30e-6);
  EXPECT_EQ(m2.true_positives, 1);
}

TEST_F(DetectTest, MatchedFilterBeatsThresholdAtLowSnr) {
  // At marginal SNR the matched filter should find at least as many cells
  // with no more false positives.
  std::vector<FrameTarget> faint{{{200.0e-6, 200.0e-6, 3.3e-6}, 3.0e-6},
                                 {{440.0e-6, 400.0e-6, 3.3e-6}, 3.0e-6}};
  const std::vector<Vec2> truth{{200.0e-6, 200.0e-6}, {440.0e-6, 400.0e-6}};
  Rng rng(9);
  int matched_wins = 0, tie = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Grid2 frame = synth_.averaged_frame(faint, rng, 4);
    const double sigma = synth_.cds_noise_sigma() / 2.0;
    const auto th = match_detections(
        truth, detect_threshold(frame, array_, 4.5 * sigma), 40e-6);
    const auto mf = match_detections(
        truth, detect_matched(frame, array_, pixel_, 3e-6, 3.3e-6, 4.5 * sigma), 40e-6);
    const double th_score = th.true_positives - th.false_positives;
    const double mf_score = mf.true_positives - mf.false_positives;
    if (mf_score > th_score) ++matched_wins;
    if (mf_score == th_score) ++tie;
  }
  EXPECT_GE(matched_wins + tie, 7);
}

TEST_F(DetectTest, MatchStatsAccounting) {
  std::vector<Detection> dets{{{100.0e-6, 100.0e-6}, 1.0, 1},
                              {{900.0e-6, 900.0e-6}, 1.0, 1}};
  const MatchStats stats = match_detections(truth_, dets, 25e-6);
  EXPECT_EQ(stats.true_positives, 1);
  EXPECT_EQ(stats.false_positives, 1);
  EXPECT_EQ(stats.false_negatives, 2);
  EXPECT_NEAR(stats.recall(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.precision(), 0.5, 1e-12);
}

TEST_F(DetectTest, TwoAdjacentCellsMergeIntoOneCluster) {
  // Cells one pitch apart blur into one cluster at this pixel pitch — the
  // known resolution limit of pitch-sampled imaging.
  std::vector<FrameTarget> pair{{{200.0e-6, 200.0e-6, 6.0e-6}, 5.0e-6},
                                {{220.0e-6, 200.0e-6, 6.0e-6}, 5.0e-6}};
  Rng rng(10);
  const Grid2 frame = synth_.averaged_frame(pair, rng, 256);
  const auto dets = detect_threshold(frame, array_, synth_.cds_noise_sigma());
  EXPECT_EQ(dets.size(), 1u);
  EXPECT_GT(dets.front().pixel_count, 1);
}

TEST(Detect, KernelIsUnitEnergy) {
  chip::ElectrodeArray array(16, 16, 20.0e-6);
  const auto kernel = matched_kernel(paper_pixel(), array, 5e-6, 6e-6, 1);
  double energy = 0.0;
  for (double v : kernel) energy += v * v;
  EXPECT_NEAR(energy, 1.0, 1e-9);
}

TEST(Detect, CorrelateMatchesTapByTapOracle) {
  // The tap-by-tap zero-padded correlation that `correlate` replaced: every
  // tap goes through the bounds-checked accessor with its own border test.
  const auto oracle = [](const Grid2& frame, const std::vector<double>& kernel, int h) {
    const int n = 2 * h + 1;
    Grid2 out(frame.nx(), frame.ny(), frame.spacing());
    const auto nx = static_cast<std::ptrdiff_t>(frame.nx());
    const auto ny = static_cast<std::ptrdiff_t>(frame.ny());
    for (std::ptrdiff_t j = 0; j < ny; ++j)
      for (std::ptrdiff_t i = 0; i < nx; ++i) {
        double acc = 0.0;
        for (int dj = -h; dj <= h; ++dj)
          for (int di = -h; di <= h; ++di) {
            const std::ptrdiff_t si = i + di, sj = j + dj;
            if (si < 0 || sj < 0 || si >= nx || sj >= ny) continue;
            acc += frame.at(static_cast<std::size_t>(si), static_cast<std::size_t>(sj)) *
                   kernel[static_cast<std::size_t>((dj + h) * n + (di + h))];
          }
        out.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) = acc;
      }
    return out;
  };
  Rng rng(2024);
  // A non-square frame (every border and corner), and one narrower than the
  // h = 2 kernel, where both borders clip the same window.
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{13, 8}, {2, 3}})
    for (const int h : {1, 2}) {
      Grid2 frame(nx, ny, 20.0e-6);
      for (double& v : frame.data()) v = rng.normal(0.0, 1e-16);
      std::vector<double> kernel(static_cast<std::size_t>((2 * h + 1) * (2 * h + 1)));
      for (double& v : kernel) v = rng.uniform(-1.0, 1.0);
      const Grid2 got = correlate(frame, kernel, h);
      const Grid2 want = oracle(frame, kernel, h);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t m = 0; m < got.size(); ++m)
        ASSERT_EQ(std::memcmp(&got.data()[m], &want.data()[m], sizeof(double)), 0)
            << nx << "x" << ny << " h=" << h << " pixel " << m;
    }
}

TEST(Frame, PixelFaultsOverlayByKind) {
  const chip::ElectrodeArray array(4, 4, 20.0_um);
  chip::DefectMap defects(array);
  defects.set_state({1, 0}, chip::PixelState::kDead);
  defects.set_state({2, 1}, chip::PixelState::kStuckBackground);
  defects.set_state({3, 2}, chip::PixelState::kStuckCage);
  Grid2 frame(4, 4, 20.0_um, /*init=*/-7e-16);
  apply_pixel_faults(frame, defects);
  EXPECT_EQ(frame.at(1, 0), 0.0);      // dead: no reading
  EXPECT_EQ(frame.at(2, 1), 0.0);      // stuck background: no reading
  EXPECT_EQ(frame.at(3, 2), 0.0);      // stuck cage: masked like the others
  EXPECT_EQ(frame.at(0, 0), -7e-16);   // healthy pixels untouched
  Grid2 wrong(3, 3, 20.0_um);
  EXPECT_THROW(apply_pixel_faults(wrong, defects), PreconditionError);
}

TEST(Detect, AssociateNearestWithinGate) {
  const std::vector<Vec2> expected{{100e-6, 100e-6}, {200e-6, 100e-6}};
  std::vector<Detection> dets(3);
  dets[0].position = {205e-6, 102e-6};  // nearest to expected[1]
  dets[1].position = {101e-6, 99e-6};   // nearest to expected[0]
  dets[2].position = {400e-6, 400e-6};  // stray, out of every gate
  const std::vector<int> a = associate_detections(expected, dets, 30e-6);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 0);
  // Each detection is used at most once: one detection cannot serve two
  // expected positions even when both are in gate.
  const std::vector<Vec2> both{{100e-6, 100e-6}, {110e-6, 100e-6}};
  const std::vector<Detection> one{dets[1]};
  const std::vector<int> b = associate_detections(both, one, 30e-6);
  EXPECT_EQ(b[0], 0);
  EXPECT_EQ(b[1], -1);
}

// `match_detections` as it was before it scored through
// `associate_detections`: its own greedy nearest-pair rounds, adding each
// matched distance to the error sum in pick order. The shared matcher's
// oracle.
MatchStats match_rounds_oracle(const std::vector<Vec2>& truth,
                               const std::vector<Detection>& detections,
                               double tolerance) {
  MatchStats stats;
  std::vector<std::uint8_t> truth_used(truth.size(), 0);
  std::vector<std::uint8_t> det_used(detections.size(), 0);
  while (true) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bt = 0, bd = 0;
    bool found = false;
    for (std::size_t t = 0; t < truth.size(); ++t) {
      if (truth_used[t]) continue;
      for (std::size_t d = 0; d < detections.size(); ++d) {
        if (det_used[d]) continue;
        const double dist = (truth[t] - detections[d].position).norm();
        if (dist <= tolerance && dist < best) {
          best = dist;
          bt = t;
          bd = d;
          found = true;
        }
      }
    }
    if (!found) break;
    truth_used[bt] = 1;
    det_used[bd] = 1;
    ++stats.true_positives;
    stats.mean_localization_error += best;
  }
  if (stats.true_positives > 0) stats.mean_localization_error /= stats.true_positives;
  for (std::size_t t = 0; t < truth.size(); ++t)
    if (!truth_used[t]) ++stats.false_negatives;
  for (std::size_t d = 0; d < detections.size(); ++d)
    if (!det_used[d]) ++stats.false_positives;
  return stats;
}

// The scoring matcher is the tracker's association plus a sum of the matched
// distances in ascending order. On seeded scenes it must count exactly what
// the rounds oracle counts and keep the mean error's bits. Half the scenes
// sit on a binary-exact lattice (a power-of-two unit), where equal offsets
// give exactly equal distances and the gate can fall on a distance exactly,
// so the tie rule and the `<=` gate are exercised, not just continuous data.
TEST(Detect, MatchDetectionsEqualsGreedyRoundsOracle) {
  const double unit = std::ldexp(1.0, -16);  // about 15 um, exact in binary
  Rng rng(0x4D415443);
  int tied_scenes = 0;
  int multi_match_scenes = 0;
  for (int scene = 0; scene < 3000; ++scene) {
    const bool lattice = scene % 2 == 0;
    const auto coord = [&] {
      return lattice ? unit * static_cast<double>(rng.uniform_int(0, 7))
                     : rng.uniform(0.0, 8.0 * unit);
    };
    std::vector<Vec2> truth(static_cast<std::size_t>(rng.uniform_int(0, 8)));
    for (Vec2& t : truth) t = {coord(), coord()};
    std::vector<Detection> dets(static_cast<std::size_t>(rng.uniform_int(0, 10)));
    for (Detection& d : dets) d.position = {coord(), coord()};
    const double tolerance = lattice ? unit * static_cast<double>(rng.uniform_int(1, 4))
                                     : rng.uniform(0.25, 4.0) * unit;

    const MatchStats got = match_detections(truth, dets, tolerance);
    const MatchStats want = match_rounds_oracle(truth, dets, tolerance);
    ASSERT_EQ(got.true_positives, want.true_positives) << "scene " << scene;
    ASSERT_EQ(got.false_positives, want.false_positives) << "scene " << scene;
    ASSERT_EQ(got.false_negatives, want.false_negatives) << "scene " << scene;
    std::uint64_t got_bits = 0, want_bits = 0;
    std::memcpy(&got_bits, &got.mean_localization_error, sizeof got_bits);
    std::memcpy(&want_bits, &want.mean_localization_error, sizeof want_bits);
    ASSERT_EQ(got_bits, want_bits) << "scene " << scene;

    if (want.true_positives >= 2) ++multi_match_scenes;
    std::vector<double> in_gate;
    for (const Vec2& t : truth)
      for (const Detection& d : dets) {
        const double dist = (t - d.position).norm();
        if (dist <= tolerance) in_gate.push_back(dist);
      }
    std::sort(in_gate.begin(), in_gate.end());
    if (std::adjacent_find(in_gate.begin(), in_gate.end()) != in_gate.end()) ++tied_scenes;
  }
  // The scenes do reach the cases the rule is about.
  EXPECT_GT(tied_scenes, 600);
  EXPECT_GT(multi_match_scenes, 600);
}

TEST(Detect, ThresholdValidation) {
  Grid2 frame(4, 4, 20.0e-6);
  chip::ElectrodeArray array(4, 4, 20.0e-6);
  EXPECT_THROW(detect_threshold(frame, array, 0.0), PreconditionError);
  EXPECT_THROW(match_detections({}, {}, 0.0), PreconditionError);
}

// ---------------------------------------------------------- sparse sense ----
//
// The closed loop senses sparsely: `averaged_crossings` → `apply_frame_faults`
// → `cluster_flagged`. `averaged_crossings` draws from the frame's law, not
// its stream, so its oracle is the dense sequence in law: `averaged_frame` →
// `apply_pixel_faults` → dropout rows → burst tiles → threshold + flood fill
// (the dense flood fill `detect_threshold` used to run, kept here).

std::size_t longfuzz_factor() {
  const char* env = std::getenv("BIOCHIP_LONGFUZZ");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v > 1 ? static_cast<std::size_t>(v) : 1;
}

// The dense 8-connected flood fill over a whole map, seeded in raster order,
// of the pixels `flag` accepts.
template <class Flag>
std::vector<Detection> dense_flood_fill(const Grid2& map, const chip::ElectrodeArray& array,
                                        Flag flag) {
  const std::size_t nx = map.nx(), ny = map.ny();
  std::vector<std::uint8_t> visited(nx * ny, 0);
  std::vector<Detection> out;
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  for (std::size_t j0 = 0; j0 < ny; ++j0)
    for (std::size_t i0 = 0; i0 < nx; ++i0) {
      if (visited[j0 * nx + i0] || !flag(map.at(i0, j0))) continue;
      double weight_sum = 0.0, peak = 0.0;
      Vec2 weighted_pos{};
      int count = 0;
      stack.assign(1, {i0, j0});
      visited[j0 * nx + i0] = 1;
      while (!stack.empty()) {
        const auto [i, j] = stack.back();
        stack.pop_back();
        const double mag = std::fabs(map.at(i, j));
        weight_sum += mag;
        weighted_pos += array.center({static_cast<int>(i), static_cast<int>(j)}) * mag;
        peak = std::max(peak, mag);
        ++count;
        for (int dj = -1; dj <= 1; ++dj)
          for (int di = -1; di <= 1; ++di) {
            const std::ptrdiff_t ni = static_cast<std::ptrdiff_t>(i) + di;
            const std::ptrdiff_t nj = static_cast<std::ptrdiff_t>(j) + dj;
            if ((di == 0 && dj == 0) || ni < 0 || nj < 0 ||
                ni >= static_cast<std::ptrdiff_t>(nx) || nj >= static_cast<std::ptrdiff_t>(ny))
              continue;
            const auto ui = static_cast<std::size_t>(ni), uj = static_cast<std::size_t>(nj);
            if (visited[uj * nx + ui] || !flag(map.at(ui, uj))) continue;
            visited[uj * nx + ui] = 1;
            stack.emplace_back(ui, uj);
          }
      }
      out.push_back({weighted_pos / weight_sum, peak, count});
    }
  return out;
}

bool same_bits(const std::vector<Detection>& a, const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t n = 0; n < a.size(); ++n)
    if (std::memcmp(&a[n].position, &b[n].position, sizeof(Vec2)) != 0 ||
        std::memcmp(&a[n].score, &b[n].score, sizeof(double)) != 0 ||
        a[n].pixel_count != b[n].pixel_count)
      return false;
  return true;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// The next draws of two generators agree: the cached half-pair first, then
// fresh pairs, then raw words.
bool same_stream(Rng& a, Rng& b) {
  for (int n = 0; n < 3; ++n)
    if (!same_bits(a.normal(), b.normal())) return false;
  return a() == b() && a() == b();
}

bool same_bits(const std::vector<FlaggedPixel>& a, const std::vector<FlaggedPixel>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t n = 0; n < a.size(); ++n)
    if (a[n].index != b[n].index || !same_bits(a[n].value, b[n].value)) return false;
  return true;
}

// One sense's inputs, drawn from a seeded config space.
struct SenseCase {
  std::vector<FrameTarget> targets;
  std::size_t n_frames = 1;
  double threshold = 0.0;
  std::unique_ptr<chip::DefectMap> defects;
  std::vector<int> zero_rows;
  std::vector<PhantomTile> tiles;
  double phantom_dc = 0.0;
};

SenseCase draw_case(const FrameSynthesizer& synth, Rng& rng) {
  const chip::ElectrodeArray& array = synth.array();
  const double pitch = array.pitch();
  SenseCase c;
  // Targets anywhere from one pitch outside the array to one inside the
  // far edge; a third sit within two pitches of the previous one, so their
  // windows overlap.
  const auto n_targets = static_cast<int>(rng.uniform_int(0, 20));
  for (int k = 0; k < n_targets; ++k) {
    Vec3 at{rng.uniform(-pitch, (array.cols() + 1) * pitch),
            rng.uniform(-pitch, (array.rows() + 1) * pitch), rng.uniform(3e-6, 25e-6)};
    if (k > 0 && rng.bernoulli(0.33)) {
      at.x = c.targets.back().position.x + rng.uniform(-2.0, 2.0) * pitch;
      at.y = c.targets.back().position.y + rng.uniform(-2.0, 2.0) * pitch;
    }
    c.targets.push_back({at, rng.uniform(2e-6, 8e-6)});
  }
  c.n_frames = static_cast<std::size_t>(rng.uniform_int(1, 64));
  const double sigma = synth.cds_noise_sigma() / std::sqrt(static_cast<double>(c.n_frames));
  c.threshold = rng.uniform(0.5, 6.0) * sigma;
  // A burst reads a multiple of the threshold that may or may not cross it.
  const double multiple = rng.bernoulli(0.5) ? rng.uniform(0.3, 1.0) : rng.uniform(1.0, 6.0);
  c.phantom_dc = -multiple * c.threshold;
  c.defects = std::make_unique<chip::DefectMap>(
      chip::sample_defects(array, rng.uniform(0.0, 0.05), rng));
  // Dropouts and bursts, half of them on a target's pixels so that they
  // overlap crossings, defects and each other.
  const auto near_target = [&]() -> GridCoord {
    if (c.targets.empty() || rng.bernoulli(0.5))
      return {static_cast<int>(rng.uniform_int(0, array.cols() - 1)),
              static_cast<int>(rng.uniform_int(0, array.rows() - 1))};
    const Vec3 p = c.targets[static_cast<std::size_t>(
                                 rng.uniform_int(0, static_cast<std::int64_t>(c.targets.size()) - 1))]
                       .position;
    return array.nearest({p.x, p.y});
  };
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) c.zero_rows.push_back(near_target().row);
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    const GridCoord at = near_target();
    const auto side = static_cast<int>(rng.uniform_int(1, 6));
    c.tiles.push_back({{at.col - side / 2, at.row - side / 2}, side});
  }
  return c;
}

// The dense overlay of `c`'s faults, written over `frame` in the closed
// loop's order: masked pixel faults (every one reads 0), dropout rows, burst
// tiles.
void overlay_faults(Grid2& frame, const chip::ElectrodeArray& array, const SenseCase& c) {
  apply_pixel_faults(frame, *c.defects);
  for (const int row : c.zero_rows)
    for (std::size_t i = 0; i < frame.nx(); ++i) frame.at(i, static_cast<std::size_t>(row)) = 0.0;
  for (const PhantomTile& t : c.tiles)
    for (int dr = 0; dr < t.side; ++dr)
      for (int dc = 0; dc < t.side; ++dc) {
        const GridCoord s{t.origin.col + dc, t.origin.row + dr};
        if (array.contains(s))
          frame.at(static_cast<std::size_t>(s.col), static_cast<std::size_t>(s.row)) =
              c.phantom_dc;
      }
}

// Threshold + flood fill of a faulted frame; the dense detector, which scans
// into the list clusterer, must give the same detections.
std::vector<Detection> dense_detect(const Grid2& frame, const chip::ElectrodeArray& array,
                                    double threshold) {
  const std::vector<Detection> oracle =
      dense_flood_fill(frame, array, [&](double v) { return v <= -threshold; });
  EXPECT_TRUE(same_bits(detect_threshold(frame, array, threshold), oracle));
  return oracle;
}

std::vector<Detection> dense_sense(const FrameSynthesizer& synth, const SenseCase& c, Rng& rng) {
  Grid2 frame = synth.averaged_frame(c.targets, rng, c.n_frames);
  overlay_faults(frame, synth.array(), c);
  return dense_detect(frame, synth.array(), c.threshold);
}

std::vector<Detection> sparse_detect(const FrameSynthesizer& synth, const SenseCase& c,
                                     const std::vector<FlaggedPixel>& crossings) {
  const std::vector<PixelFault> pixels = pixel_faults(*c.defects);
  FrameFaults faults;
  faults.pixels = pixels;
  faults.zero_rows = c.zero_rows;
  faults.phantom_tiles = c.tiles;
  faults.phantom_dc = c.phantom_dc;
  return cluster_flagged(apply_frame_faults(crossings, synth.array(), faults, c.threshold),
                         synth.array());
}

// The pixels of the targets' 2-pitch windows, which carry ideal ΔC; every
// other pixel is background and reads noise alone.
std::vector<std::uint8_t> window_mask(const chip::ElectrodeArray& array,
                                      const std::vector<FrameTarget>& targets) {
  std::vector<std::uint8_t> mask(array.electrode_count(), 0);
  const double reach = 2.0 * array.pitch();
  for (const FrameTarget& t : targets) {
    const GridCoord lo = array.nearest({t.position.x - reach, t.position.y - reach});
    const GridCoord hi = array.nearest({t.position.x + reach, t.position.y + reach});
    for (int r = lo.row; r <= hi.row; ++r)
      for (int col = lo.col; col <= hi.col; ++col) mask[array.index({col, r})] = 1;
  }
  return mask;
}

// One-sample Kolmogorov-Smirnov statistic D of samples that are Uniform(0, 1)
// under the null.
double ks_uniform(std::vector<double> u) {
  std::sort(u.begin(), u.end());
  const auto n = static_cast<double>(u.size());
  double d = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i)
    d = std::max({d, static_cast<double>(i + 1) / n - u[i], u[i] - static_cast<double>(i) / n});
  return d;
}

// The α = 1e-4 critical value of the one-sample KS statistic at n samples.
double ks_critical(std::size_t n) {
  return std::sqrt(-std::log(1e-4 / 2.0) / 2.0) / std::sqrt(static_cast<double>(n));
}

// |Δmean| <= 5 SE between two arms. Arms of fewer than `min_count` samples
// pass: the normal approximation behind 5 SE needs a sample to rest on.
bool means_agree(const RunningStats& a, const RunningStats& b, std::size_t min_count) {
  if (a.count() < min_count || b.count() < min_count) return true;
  const double se = std::sqrt(a.variance() / static_cast<double>(a.count()) +
                              b.variance() / static_cast<double>(b.count()));
  return std::fabs(a.mean() - b.mean()) <= 5.0 * se;
}

// One target's observables in one arm: whether a detection lies within two
// pitches of it, and the nearest such detection's centroid error and size.
// The error is read in steps of 1e-6 pitch: a one-pixel cluster's centroid,
// (center · |v|) / |v|, rounds differently for different values by a few
// ulps, which a 5 SE rule on a constant would otherwise flag.
struct TargetArm {
  RunningStats detected;
  RunningStats error;
  RunningStats pixels;

  void observe(const FrameTarget& t, const std::vector<Detection>& dets, double pitch) {
    const double reach = 2.0 * pitch;
    const Detection* best = nullptr;
    double best_d = reach;
    for (const Detection& d : dets) {
      const double dist = (d.position - Vec2{t.position.x, t.position.y}).norm();
      if (dist <= best_d) {
        best = &d;
        best_d = dist;
      }
    }
    detected.add(best != nullptr ? 1.0 : 0.0);
    if (best == nullptr) return;
    error.add(std::round(best_d / (1e-6 * pitch)));
    pixels.add(static_cast<double>(best->pixel_count));
  }
};

// The statistical harness over `draw_case`'s config space (15x17 to 320²
// arrays, k = threshold/σ in [0.5, 6], overlapping windows, targets resting
// near the floor, pixel faults, dropouts and bursts). Each case draws many
// law frames, each on its own stream, and checks four rules:
//  - background (pixels beyond every window): the per-frame crossing count
//    against Binomial(N_bg, p), p = Φ(−k), by mean (5 SE) and variance
//    (|ln ratio| within 5·√(4/(M−1))); the crossing values by one-sample KS
//    against the exact tail below −k; their positions uniform over the
//    background (KS on the raster rank); the reported background count;
//  - per target (small arrays, where the dense oracle is cheap): detection
//    rate, centroid error and `pixel_count` of law frames vs dense frames,
//    each |Δmean| <= 5 SE;
//  - structure, every frame: raster indices strictly ascending and inside
//    the array, every value <= −threshold, and the same stream giving the
//    same list and leaving the same generator;
//  - bit for bit after the draw, once per case: the crossings scattered into
//    an otherwise-zero frame, overlaid densely and thresholded, detect what
//    `apply_frame_faults` + `cluster_flagged` detect on the list.
// Every rule counts its failures, so a broken sampler reports each rule it
// breaks.
TEST(SparseSense, MatchesDenseSequenceInLaw) {
  const std::vector<std::pair<int, int>> shapes = {{15, 17}, {16, 16}, {24, 24}, {319, 319},
                                                   {320, 320}};
  std::vector<std::unique_ptr<FrameSynthesizer>> synths;
  for (const auto& [cols, rows] : shapes)
    synths.push_back(std::make_unique<FrameSynthesizer>(
        chip::ElectrodeArray(cols, rows, 20.0e-6), paper_pixel(), 298.15, 99));
  Rng cases(2026);
  Rng jitter(2027);  // continuous ranks for the position KS
  const std::size_t n_cases = 120 * longfuzz_factor();
  // Frames per case: the dense oracle costs ~4 ms a frame on the big arrays,
  // so they draw law frames only (the per-target rule runs on the small ones).
  constexpr std::size_t kSmallFrames = 300;
  constexpr std::size_t kBigFrames = 12;
  // Values and positions kept per case: whole frames until this many, since
  // a frame's crossings come in raster order.
  constexpr std::size_t kKsPerCase = 200;
  // Detected frames per arm below which a target's error and size go unchecked.
  constexpr std::size_t kMinDetected = 100;

  std::size_t structure_fails = 0, count_report_fails = 0, bit_fails = 0;
  std::size_t mean_fails = 0, target_fails = 0, target_checks = 0, flagged_cases = 0;
  double pooled_observed = 0.0, pooled_expected = 0.0, pooled_var = 0.0;
  double residual_sq = 0.0;  // standardized count residuals of the well-filled cases
  std::size_t residual_frames = 0;
  std::vector<double> value_u, position_u;
  for (std::size_t n = 0; n < n_cases; ++n) {
    const std::size_t shape = cases.bernoulli(0.25)
                                  ? static_cast<std::size_t>(cases.uniform_int(3, 4))
                                  : static_cast<std::size_t>(cases.uniform_int(0, 2));
    const bool big = shape >= 3;
    const FrameSynthesizer& synth = *synths[shape];
    const chip::ElectrodeArray& array = synth.array();
    const SenseCase c = draw_case(synth, cases);
    const Rng law_streams(cases());
    const Rng dense_streams(cases());
    const std::size_t frames = big ? kBigFrames : kSmallFrames;
    SCOPED_TRACE("case " + std::to_string(n) + ": " + std::to_string(shapes[shape].first) +
                 "x" + std::to_string(shapes[shape].second) + ", " +
                 std::to_string(c.targets.size()) + " targets");

    const std::vector<std::uint8_t> mask = window_mask(array, c.targets);
    std::vector<std::size_t> rank(mask.size(), 0);  // background pixels before each index
    std::size_t n_bg = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      rank[i] = n_bg;
      if (mask[i] == 0) ++n_bg;
    }
    const double sigma = synth.cds_noise_sigma() / std::sqrt(static_cast<double>(c.n_frames));
    const double k = c.threshold / sigma;
    const double tail = std::erfc(k / std::sqrt(2.0));  // 2·Φ(−k)
    const double p = 0.5 * tail;
    const double mu = static_cast<double>(n_bg) * p;
    const double var = mu * (1.0 - p);

    std::vector<TargetArm> law_arm(c.targets.size()), dense_arm(c.targets.size());
    std::size_t case_count = 0, kept = 0;
    bool flagged = false;
    for (std::size_t f = 0; f < frames; ++f) {
      Rng law = law_streams.fork(f);
      Rng twin = law;
      std::size_t reported = 0, twin_reported = 0;
      const std::vector<FlaggedPixel> crossings =
          synth.averaged_crossings(c.targets, law, c.n_frames, c.threshold, &reported);
      const std::vector<FlaggedPixel> again =
          synth.averaged_crossings(c.targets, twin, c.n_frames, c.threshold, &twin_reported);

      // Structure.
      bool ok = same_bits(crossings, again) && reported == twin_reported &&
                same_stream(law, twin);
      for (std::size_t m = 0; m < crossings.size(); ++m)
        ok = ok && crossings[m].index < mask.size() &&
             (m == 0 || crossings[m - 1].index < crossings[m].index) &&
             crossings[m].value <= -c.threshold;
      if (!ok) ++structure_fails;
      if (!ok) continue;

      // Background.
      const bool keep = kept < kKsPerCase;
      std::size_t count = 0;
      for (const FlaggedPixel& x : crossings) {
        if (mask[x.index] != 0) continue;
        ++count;
        if (!keep) continue;
        // P(Z <= z | Z <= −k), Uniform(0, 1) under the law.
        value_u.push_back(std::erfc(-x.value / sigma / std::sqrt(2.0)) / tail);
        position_u.push_back((static_cast<double>(rank[x.index]) + jitter.uniform()) /
                             static_cast<double>(n_bg));
        ++kept;
      }
      if (count != reported) ++count_report_fails;
      case_count += count;
      if (mu >= 25.0) {
        residual_sq += (static_cast<double>(count) - mu) * (static_cast<double>(count) - mu) / var;
        ++residual_frames;
      }

      const std::vector<Detection> law_dets = sparse_detect(synth, c, crossings);
      flagged = flagged || !law_dets.empty();
      // Bit for bit after the draw.
      if (f == 0) {
        Grid2 frame(static_cast<std::size_t>(array.cols()), static_cast<std::size_t>(array.rows()),
                    array.pitch());
        for (const FlaggedPixel& x : crossings) frame.data()[x.index] = x.value;
        overlay_faults(frame, array, c);
        if (!same_bits(law_dets, dense_detect(frame, array, c.threshold))) ++bit_fails;
      }

      // Per target.
      if (big) continue;
      Rng dense = dense_streams.fork(f);
      const std::vector<Detection> dense_dets = dense_sense(synth, c, dense);
      for (std::size_t t = 0; t < c.targets.size(); ++t) {
        law_arm[t].observe(c.targets[t], law_dets, array.pitch());
        dense_arm[t].observe(c.targets[t], dense_dets, array.pitch());
      }
    }
    if (flagged) ++flagged_cases;

    const double expected = static_cast<double>(frames) * mu;
    if (expected >= 25.0) {
      if (std::fabs(static_cast<double>(case_count) - expected) >
          5.0 * std::sqrt(static_cast<double>(frames) * var))
        ++mean_fails;
    } else {
      pooled_observed += static_cast<double>(case_count);
      pooled_expected += expected;
      pooled_var += static_cast<double>(frames) * var;
    }
    for (std::size_t t = 0; t < c.targets.size(); ++t) {
      target_checks += 3;
      const bool agree = means_agree(law_arm[t].detected, dense_arm[t].detected, 2) &&
                         means_agree(law_arm[t].error, dense_arm[t].error, kMinDetected) &&
                         means_agree(law_arm[t].pixels, dense_arm[t].pixels, kMinDetected);
      if (!agree) ++target_fails;
      EXPECT_TRUE(agree) << "target " << t << ": detected " << law_arm[t].detected.mean()
                         << " vs " << dense_arm[t].detected.mean() << ", error "
                         << law_arm[t].error.mean() << " vs " << dense_arm[t].error.mean()
                         << ", pixels " << law_arm[t].pixels.mean() << " vs "
                         << dense_arm[t].pixels.mean();
    }
  }

  EXPECT_EQ(structure_fails, 0u) << "rule: structure";
  EXPECT_EQ(count_report_fails, 0u) << "rule: background (reported count)";
  EXPECT_EQ(bit_fails, 0u) << "rule: bit for bit after the draw";
  EXPECT_EQ(mean_fails, 0u) << "rule: background (count mean, per case)";
  EXPECT_LE(std::fabs(pooled_observed - pooled_expected), 5.0 * std::sqrt(pooled_var))
      << "rule: background (count mean, sparse cases pooled): " << pooled_observed << " vs "
      << pooled_expected;
  ASSERT_GT(residual_frames, 100u);
  EXPECT_LE(std::fabs(std::log(residual_sq / static_cast<double>(residual_frames))),
            5.0 * std::sqrt(4.0 / (static_cast<double>(residual_frames) - 1.0)))
      << "rule: background (count variance)";
  ASSERT_GT(value_u.size(), 1000u);
  EXPECT_LT(ks_uniform(value_u), ks_critical(value_u.size())) << "rule: background (values)";
  EXPECT_LT(ks_uniform(position_u), ks_critical(position_u.size()))
      << "rule: background (positions)";
  EXPECT_EQ(target_fails, 0u) << "rule: per target, of " << target_checks << " checks";
  EXPECT_GT(flagged_cases, n_cases / 2);  // the sweep is not vacuous
}

TEST(SparseSense, MatchedFilterClustersLikeTheDenseFloodFill) {
  const chip::ElectrodeArray array(24, 24, 20.0e-6);
  const FrameSynthesizer synth(array, paper_pixel(), 298.15, 5);
  Rng rng(31);
  const std::vector<double> kernel = matched_kernel(paper_pixel(), array, 5e-6, 6e-6, 1);
  for (int rep = 0; rep < 20; ++rep) {
    const std::vector<FrameTarget> targets{
        {{rng.uniform(0.0, 480e-6), rng.uniform(0.0, 480e-6), 6e-6}, 5e-6}};
    const Grid2 frame = synth.averaged_frame(targets, rng, 4);
    const double th = rng.uniform(0.5, 3.0) * synth.cds_noise_sigma() / 2.0;
    Grid2 corr = correlate(frame, kernel, 1);
    for (double& v : corr.data()) v = -v;
    EXPECT_TRUE(same_bits(detect_matched(frame, array, paper_pixel(), 5e-6, 6e-6, th),
                          dense_flood_fill(corr, array, [&](double v) { return v >= th; })))
        << "rep " << rep;
  }
}

TEST(SparseSense, ClusterFlaggedRejectsUnorderedLists) {
  const chip::ElectrodeArray array(4, 4, 20.0e-6);
  EXPECT_THROW(cluster_flagged({{3, -1.0}, {2, -1.0}}, array), PreconditionError);
  EXPECT_THROW(cluster_flagged({{2, -1.0}, {2, -1.0}}, array), PreconditionError);
  EXPECT_THROW(cluster_flagged({{16, -1.0}}, array), PreconditionError);
  EXPECT_TRUE(cluster_flagged({}, array).empty());
  const FrameSynthesizer synth(array, paper_pixel(), 298.15, 1);
  Rng rng(1);
  EXPECT_THROW(synth.averaged_crossings({}, rng, 1, 0.0), PreconditionError);
  EXPECT_THROW(synth.averaged_crossings({}, rng, 0, 1e-18), PreconditionError);
  // A tail probability that underflows to 0 draws no background crossing.
  const double far = 40.0 * synth.cds_noise_sigma();
  ASSERT_EQ(0.5 * std::erfc(40.0 / std::sqrt(2.0)), 0.0);
  std::size_t background = 1;
  EXPECT_TRUE(synth.averaged_crossings({}, rng, 1, far, &background).empty());
  EXPECT_EQ(background, 0u);
}

}  // namespace
}  // namespace biochip::sensor
