// Capacitive imaging: scatter beads over the array, acquire averaged
// capacitance frames, and render the label-free "image" the chip sees —
// the sensing half of the paper (ref [4], Romani et al. ISSCC'04), with the
// claim-C4 averaging trade made visible: the same scene at N=1 vs N=64.
//
// Run:  ./capacitive_imaging

#include <cmath>
#include <iostream>

#include "cell/library.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "control/platform.hpp"
#include "sensor/detect.hpp"
#include "sensor/frame.hpp"

using namespace biochip;
using namespace biochip::units;

namespace {

// ASCII rendering: darker glyph = stronger |dC|.
void render(const Grid2& frame, double sigma) {
  static const char* kRamp = " .:-=+*#%@";
  for (std::size_t j = 0; j < frame.ny(); ++j) {
    for (std::size_t i = 0; i < frame.nx(); ++i) {
      const double snr = -frame.at(i, j) / sigma;  // cells give negative dC
      int level = snr <= 1.0 ? 0 : static_cast<int>(std::log2(snr) * 2.0);
      if (level > 9) level = 9;
      if (level < 0) level = 0;
      std::cout << kRamp[level];
    }
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  control::PlatformConfig config = control::PlatformConfig::paper_defaults();
  config.device.cols = 72;
  config.device.rows = 24;  // letterbox tile renders nicely in a terminal
  config.seed = 314;
  control::LabOnChipPlatform lab(config);

  // A sparse scene: 6 polystyrene beads (strong nDEP at 100 kHz, good test
  // targets for the capacitive sensor).
  lab.load_sample({{cell::polystyrene_bead(4.0e-6), 6, 0.03}});

  sensor::CapacitivePixel px;
  px.electrode_area = lab.device().array().footprint({0, 0}).area();
  px.chamber_height = lab.device().config().chamber_height;
  px.sense_voltage = lab.device().drive_amplitude();
  sensor::FrameSynthesizer synth(lab.device().array(), px,
                                 config.medium.temperature, config.seed);

  std::vector<sensor::FrameTarget> scene;
  for (const auto& body : lab.bodies()) scene.push_back({body.position, body.radius});

  Rng rng(11);
  for (std::size_t n : {1u, 64u}) {
    const Grid2 frame = synth.averaged_frame(scene, rng, n);
    const double sigma = synth.cds_noise_sigma() / std::sqrt(static_cast<double>(n));
    std::cout << "\n=== averaged frames: N = " << n
              << "  (noise sigma = " << sigma * 1e18 << " aF) ===\n";
    render(frame, sigma);
    const auto dets = sensor::detect_threshold(frame, lab.device().array(), 5.0 * sigma);
    std::cout << "threshold detections at 5 sigma: " << dets.size() << "/6\n";
  }

  std::cout << "\nThe N=1 frame is speckle; at N=64 the beads stand out at 5 sigma\n"
               "— time traded for quality, exactly as the paper prescribes (C4).\n";
  return 0;
}
